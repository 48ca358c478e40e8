// pa_client: command-line client for privanalyzerd.
//
//   pa_client --socket PATH submit FILE|builtin:NAME [job options]
//     --deadline SECS    per-job wall budget (0 = server default)
//     --max-states N     ROSA state budget per query
//     --escalate-rounds N budget escalation rounds
//     --no-cache         bypass the daemon's resident verdict cache
//     --filters MODE     EpochFilter mode: off (default) | report | enforce
//     --no-wait          print the job id and exit without waiting
//   pa_client --socket PATH status JOB_ID
//   pa_client --socket PATH result JOB_ID
//   pa_client --socket PATH cancel JOB_ID
//   pa_client --socket PATH ping
//   pa_client --socket PATH shutdown [--abort]
//
// `submit` waits for the result by default, streams progress events to
// stderr, prints the result body to stdout, and exits with the job's exit
// code (the one-shot CLI contract: 0 analyzed, 1 failed). `result` does the
// same for a job that is already terminal, such as one submitted with
// --no-wait; for any other job it prints the state to stderr and exits 1.
#include <climits>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

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
               "         [--escalate-rounds N] [--no-cache]\n"
               "         [--filters off|report|enforce] [--no-wait]\n"
               "  status JOB_ID | result JOB_ID | cancel JOB_ID | ping\n"
               "  shutdown [--abort]\n";
  return privanalyzer::kExitUsage;
}

int cmd_submit(daemon::Client& client, const std::vector<std::string>& args) {
  daemon::JobRequest req;
  bool wait = true;
  std::string target;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--no-wait") wait = false;
    else if (a == "--no-cache") req.use_cache = false;
    else if (a == "--filters" && i + 1 < args.size()) {
      req.filters = args[++i];
      if (!privanalyzer::parse_filter_mode(req.filters))
        return privanalyzer::kExitUsage;
    } else if (a == "--deadline" && i + 1 < args.size()) {
      const auto secs = str::parse_seconds(args[++i]);
      if (!secs) return privanalyzer::kExitUsage;
      req.deadline_secs = *secs;
    } else if (a == "--max-states" && i + 1 < args.size()) {
      const auto n = str::parse_u64(args[++i]);
      if (!n) return privanalyzer::kExitUsage;
      req.max_states = *n;
    } else if (a == "--escalate-rounds" && i + 1 < args.size()) {
      const auto n = str::parse_u64(args[++i], UINT_MAX);
      if (!n) return privanalyzer::kExitUsage;
      req.escalate_rounds = static_cast<unsigned>(*n);
    } else if (target.empty() && !a.empty() && a[0] != '-') {
      target = a;
    } else {
      return privanalyzer::kExitUsage;
    }
  }
  if (target.empty()) return privanalyzer::kExitUsage;

  if (target.rfind("builtin:", 0) == 0) {
    req.kind = "builtin";
    req.source = target.substr(strlen("builtin:"));
    req.name = req.source;
  } else {
    std::ifstream in(target);
    if (!in) {
      std::cerr << "error: cannot read " << target << "\n";
      return privanalyzer::kExitAllFailed;
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
  }

  client.on_event([](const daemon::EventMsg& e) {
    std::cerr << "job " << e.job_id << " " << e.kind << ": " << e.text
              << "\n";
  });
  daemon::SubmitReply reply = client.submit(req);
  if (!reply.accepted) {
    std::cerr << "rejected: " << reply.reason << "\n";
    return privanalyzer::kExitAllFailed;
  }
  std::cerr << "job " << reply.job_id << " admitted\n";
  if (!wait) {
    std::cout << reply.job_id << "\n";
    return privanalyzer::kExitOk;
  }
  daemon::ResultMsg result = client.wait_result(reply.job_id);
  std::cerr << "job " << result.job_id << " " << result.state << "\n";
  std::cout << result.body;
  return result.exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) socket_path = argv[++i];
    else rest.push_back(arg);
  }
  if (socket_path.empty() || rest.empty()) return usage(argv[0]);
  const std::string cmd = rest.front();
  rest.erase(rest.begin());

  try {
    daemon::Client client(socket_path);
    if (cmd == "submit") return cmd_submit(client, rest);
    if ((cmd == "status" || cmd == "cancel") && rest.size() == 1) {
      const auto job_id = str::parse_u64(rest[0]);
      if (!job_id) return usage(argv[0]);
      const daemon::StatusReply r =
          cmd == "status" ? client.status(*job_id) : client.cancel(*job_id);
      std::cout << r.state << "\n";
      return cmd == "status" && r.state == "unknown"
                 ? privanalyzer::kExitAllFailed
                 : privanalyzer::kExitOk;
    }
    if (cmd == "result" && rest.size() == 1) {
      const auto job_id = str::parse_u64(rest[0]);
      if (!job_id) return usage(argv[0]);
      const daemon::StatusReply r = client.status(*job_id);
      if (!r.exit_code) {
        std::cerr << "job " << *job_id << " " << r.state << "\n";
        return privanalyzer::kExitAllFailed;
      }
      std::cout << r.body;
      return *r.exit_code;
    }
    if (cmd == "ping") {
      client.ping();
      std::cout << "pong\n";
      return privanalyzer::kExitOk;
    }
    if (cmd == "shutdown") {
      bool abort = !rest.empty() && rest[0] == "--abort";
      client.shutdown(abort ? "abort" : "drain");
      std::cout << "draining\n";
      return privanalyzer::kExitOk;
    }
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::cerr << "pa_client: " << e.what() << "\n";
    return privanalyzer::kExitAllFailed;
  }
}
