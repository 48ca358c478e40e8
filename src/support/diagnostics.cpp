#include "support/diagnostics.h"

#include "support/str.h"

namespace pa::support {

std::string_view stage_name(Stage s) {
  switch (s) {
    case Stage::Loader: return "loader";
    case Stage::Verifier: return "verifier";
    case Stage::AutoPriv: return "autopriv";
    case Stage::ChronoPriv: return "chronopriv";
    case Stage::World: return "world";
    case Stage::Rosa: return "rosa";
    case Stage::Pipeline: return "pipeline";
    case Stage::Lint: return "lint";
    case Stage::Daemon: return "daemon";
    case Stage::Unknown: return "unknown";
  }
  return "?";
}

std::string_view severity_name(Severity s) {
  switch (s) {
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

std::string_view diag_code_name(DiagCode c) {
  switch (c) {
    case DiagCode::None: return "none";
    case DiagCode::MalformedDirective: return "malformed-directive";
    case DiagCode::UnknownDirective: return "unknown-directive";
    case DiagCode::DuplicateDirective: return "duplicate-directive";
    case DiagCode::BadFieldValue: return "bad-field-value";
    case DiagCode::MissingMain: return "missing-main";
    case DiagCode::ParseFailed: return "parse-failed";
    case DiagCode::VerifyFailed: return "verify-failed";
    case DiagCode::FileNotFound: return "file-not-found";
    case DiagCode::FaultInjected: return "fault-injected";
    case DiagCode::DeadlineExceeded: return "deadline-exceeded";
    case DiagCode::CacheLoadFailed: return "cache-load-failed";
    case DiagCode::CacheSaveFailed: return "cache-save-failed";
    case DiagCode::ProtocolError: return "protocol-error";
    case DiagCode::InternalError: return "internal-error";
    case DiagCode::FilterViolation: return "filter-violation";
    case DiagCode::RedundantPrivRemove: return "redundant-priv-remove";
    case DiagCode::NeverRaisedPrivilege: return "never-raised-privilege";
    case DiagCode::RaiseWithoutLower: return "raise-without-lower";
    case DiagCode::UnreachableBlock: return "unreachable-block";
    case DiagCode::EmptyIndirectTargets: return "empty-indirect-targets";
    case DiagCode::UnusedPrivilegeEpoch: return "unused-privilege-epoch";
    case DiagCode::OverbroadEpochSyscalls: return "overbroad-epoch-syscalls";
  }
  return "?";
}

std::optional<DiagCode> parse_diag_code(std::string_view name) {
  static constexpr DiagCode kAll[] = {
      DiagCode::None,           DiagCode::MalformedDirective,
      DiagCode::UnknownDirective, DiagCode::DuplicateDirective,
      DiagCode::BadFieldValue,  DiagCode::MissingMain,
      DiagCode::ParseFailed,    DiagCode::VerifyFailed,
      DiagCode::FileNotFound,   DiagCode::FaultInjected,
      DiagCode::DeadlineExceeded, DiagCode::CacheLoadFailed,
      DiagCode::CacheSaveFailed, DiagCode::ProtocolError,
      DiagCode::InternalError,  DiagCode::FilterViolation,
      DiagCode::RedundantPrivRemove, DiagCode::NeverRaisedPrivilege,
      DiagCode::RaiseWithoutLower, DiagCode::UnreachableBlock,
      DiagCode::EmptyIndirectTargets, DiagCode::UnusedPrivilegeEpoch,
      DiagCode::OverbroadEpochSyscalls,
  };
  for (DiagCode c : kAll)
    if (diag_code_name(c) == name) return c;
  return std::nullopt;
}

std::string Diagnostic::to_string() const {
  std::string out = str::cat(severity_name(severity), " [", stage_name(stage),
                             '/', diag_code_name(code), ']');
  if (!program.empty()) {
    str::append(out, ' ', program);
    if (line > 0) str::append(out, ':', line);
    out += ':';
  }
  str::append(out, ' ', message);
  return out;
}

StageError::StageError(Diagnostic d) : Error(d.to_string()), diag_(std::move(d)) {}

void fail_stage(Stage stage, DiagCode code, std::string program,
                std::string message) {
  throw StageError(Diagnostic{stage, Severity::Error, code, std::move(program),
                              std::move(message)});
}

void fail_stage_at(Stage stage, DiagCode code, std::string program, int line,
                   std::string message) {
  throw StageError(Diagnostic{stage, Severity::Error, code, std::move(program),
                              std::move(message), line});
}

Diagnostic diagnostic_from_exception(const std::exception& e,
                                     Stage fallback_stage,
                                     std::string program) {
  if (const auto* se = dynamic_cast<const StageError*>(&e)) {
    Diagnostic d = se->diagnostic();
    if (d.program.empty()) d.program = std::move(program);
    return d;
  }
  return Diagnostic{fallback_stage, Severity::Error, DiagCode::InternalError,
                    std::move(program), e.what()};
}

std::string render_diagnostics(const std::vector<Diagnostic>& diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace pa::support
