// pa_client: command-line client for privanalyzerd.
//
//   pa_client --socket PATH submit FILE|builtin:NAME [job options]
//     --deadline SECS    per-job wall budget (0 = server default)
//     --max-states N     ROSA state budget per query
//     --no-cache         bypass the daemon's resident verdict cache
//     --filters MODE     EpochFilter mode: off (default) | report | enforce
//     --no-wait          print the job id and exit without waiting
//   pa_client --socket PATH status JOB_ID
//   pa_client --socket PATH result JOB_ID
//   pa_client --socket PATH cancel JOB_ID
//   pa_client --socket PATH ping
//   pa_client --socket PATH shutdown [--abort]
//
// The command line is checked before anything connects: a usage error
// prints the usage text and exits 2 whether or not a daemon is listening.
// `submit` waits for the result by default, streams progress events to
// stderr, prints the result body to stdout, and exits with the job's exit
// code (the one-shot CLI contract: 0 analyzed, 1 failed). `result` does the
// same for a job that is already terminal, such as one submitted with
// --no-wait; for any other job it prints the state to stderr and exits 1.
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "daemon/client.h"
#include "privanalyzer/pipeline.h"
#include "support/error.h"
#include "support/str.h"

using namespace pa;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --socket PATH COMMAND\n"
               "  submit FILE|builtin:NAME [--deadline S] [--max-states N]\n"
               "         [--no-cache] [--filters off|report|enforce] "
               "[--no-wait]\n"
               "  status JOB_ID | result JOB_ID | cancel JOB_ID | ping\n"
               "  shutdown [--abort]\n";
  return privanalyzer::kExitUsage;
}

/// One command line, parsed and validated before anything connects.
struct Command {
  std::string name;
  std::uint64_t job_id = 0;  // status, result, cancel
  daemon::JobRequest req;    // submit
  std::string target;        // submit: FILE or builtin:NAME
  bool wait = true;          // submit
  bool abort = false;        // shutdown
};

/// The command `args` names, or nullopt on any usage error.
std::optional<Command> parse_command(const std::vector<std::string>& args) {
  if (args.empty()) return std::nullopt;
  Command c;
  c.name = args.front();
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (c.name == "status" || c.name == "result" || c.name == "cancel") {
    if (rest.size() != 1) return std::nullopt;
    const auto job_id = str::parse_u64(rest[0]);
    if (!job_id) return std::nullopt;
    c.job_id = *job_id;
    return c;
  }
  if (c.name == "ping") {
    if (!rest.empty()) return std::nullopt;
    return c;
  }
  if (c.name == "shutdown") {
    if (rest.size() > 1 || (rest.size() == 1 && rest[0] != "--abort"))
      return std::nullopt;
    c.abort = rest.size() == 1;
    return c;
  }
  if (c.name != "submit") return std::nullopt;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    const bool has_value = i + 1 < rest.size();
    if (a == "--no-wait") {
      c.wait = false;
    } else if (a == "--no-cache") {
      c.req.use_cache = false;
    } else if (a == "--filters" && has_value) {
      c.req.filters = rest[++i];
      if (!privanalyzer::parse_filter_mode(c.req.filters)) return std::nullopt;
    } else if (a == "--deadline" && has_value) {
      const auto secs = str::parse_seconds(rest[++i]);
      if (!secs) return std::nullopt;
      c.req.deadline_secs = *secs;
    } else if (a == "--max-states" && has_value) {
      const auto n = str::parse_u64(rest[++i]);
      if (!n) return std::nullopt;
      c.req.max_states = *n;
    } else if (c.target.empty() && !a.empty() && a[0] != '-') {
      c.target = a;
    } else {
      return std::nullopt;
    }
  }
  if (c.target.empty()) return std::nullopt;
  return c;
}

/// Fill `req`'s program from `target`: a builtin name, or a file read as
/// PrivC (`.pc`) or PrivIR. False after reporting an unreadable file.
bool load_target(const std::string& target, daemon::JobRequest& req) {
  if (target.rfind("builtin:", 0) == 0) {
    req.kind = "builtin";
    req.source = target.substr(strlen("builtin:"));
    req.name = req.source;
    return true;
  }
  std::ifstream in(target);
  if (!in) {
    std::cerr << "error: cannot read " << target << "\n";
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  req.source = text.str();
  req.kind = target.size() > 3 && target.rfind(".pc") == target.size() - 3
                 ? "pc"
                 : "pir";
  std::string base = target;
  if (auto slash = base.find_last_of('/'); slash != std::string::npos)
    base = base.substr(slash + 1);
  req.name = base;
  return true;
}

int run_submit(daemon::Client& client, const Command& c) {
  client.on_event([](const daemon::EventMsg& e) {
    std::cerr << "job " << e.job_id << " " << e.kind << ": " << e.text
              << "\n";
  });
  daemon::SubmitReply reply = client.submit(c.req);
  if (!reply.accepted) {
    std::cerr << "rejected: " << reply.reason << "\n";
    return privanalyzer::kExitAllFailed;
  }
  std::cerr << "job " << reply.job_id << " admitted\n";
  if (!c.wait) {
    std::cout << reply.job_id << "\n";
    return privanalyzer::kExitOk;
  }
  daemon::ResultMsg result = client.wait_result(reply.job_id);
  std::cerr << "job " << result.job_id << " " << result.state << "\n";
  std::cout << result.body;
  return result.exit_code;
}

/// Run a validated command against the daemon at `client`.
int run_command(daemon::Client& client, const Command& c) {
  if (c.name == "submit") return run_submit(client, c);
  if (c.name == "status" || c.name == "cancel") {
    const daemon::StatusReply r =
        c.name == "status" ? client.status(c.job_id) : client.cancel(c.job_id);
    std::cout << r.state << "\n";
    return c.name == "status" && r.state == "unknown"
               ? privanalyzer::kExitAllFailed
               : privanalyzer::kExitOk;
  }
  if (c.name == "result") {
    const daemon::StatusReply r = client.status(c.job_id);
    if (!r.exit_code) {
      std::cerr << "job " << c.job_id << " " << r.state << "\n";
      return privanalyzer::kExitAllFailed;
    }
    std::cout << r.body;
    return *r.exit_code;
  }
  if (c.name == "ping") {
    client.ping();
    std::cout << "pong\n";
    return privanalyzer::kExitOk;
  }
  client.shutdown(c.abort ? "abort" : "drain");
  std::cout << "draining\n";
  return privanalyzer::kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) socket_path = argv[++i];
    else args.push_back(arg);
  }
  std::optional<Command> cmd = parse_command(args);
  if (socket_path.empty() || !cmd) return usage(argv[0]);
  if (cmd->name == "submit" && !load_target(cmd->target, cmd->req))
    return privanalyzer::kExitAllFailed;

  try {
    daemon::Client client(socket_path);
    return run_command(client, *cmd);
  } catch (const std::exception& e) {
    std::cerr << "pa_client: " << e.what() << "\n";
    return privanalyzer::kExitAllFailed;
  }
}
