// The `rosa_check` command-line tool: run a ROSA bounded-model-checking
// query written in the textual format (rosa/text.h).
//
//   rosa_check query.rq [options]
//     --max-states N      search budget (default 2000000)
//     --max-seconds S     wall-clock budget
//     --attacker MODEL    full | cfi-ordered | fixed-args
//     --model MODEL       linux | solaris | capsicum (privilege semantics)
//     --replay            re-execute a found witness on the SimOS kernel
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>

#include "privmodels/capsicum.h"
#include "privmodels/solaris.h"
#include "rosa/graph.h"
#include "rosa/replay.h"
#include "rosa/text.h"
#include "support/error.h"
#include "support/str.h"

using namespace pa;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <query.rq> [--max-states N] [--max-seconds S]\n"
               "       [--attacker full|cfi-ordered|fixed-args]\n"
               "       [--model linux|solaris|capsicum] [--replay]\n"
               "       [--dot out.dot]\n";
  return 2;
}

/// A numeric flag value the strict parsers (support/str.h) rejected: say
/// which, then print the usage text.
int bad_value(const char* argv0, const std::string& flag, const char* value) {
  std::cerr << "error: bad value '" << value << "' for " << flag << "\n";
  return usage(argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string path;
  rosa::SearchLimits limits;
  rosa::AttackerModel attacker = rosa::AttackerModel::Full;
  const rosa::AccessChecker* checker = nullptr;
  bool replay = false;
  std::string dot_path;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--replay") {
      replay = true;
    } else if (arg == "--dot" && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (arg == "--max-states" && i + 1 < argc) {
      const auto n = str::parse_u64(argv[++i], SIZE_MAX);
      if (!n) return bad_value(argv[0], arg, argv[i]);
      limits.max_states = static_cast<std::size_t>(*n);
    } else if (arg == "--max-seconds" && i + 1 < argc) {
      const auto secs = str::parse_seconds(argv[++i]);
      if (!secs) return bad_value(argv[0], arg, argv[i]);
      limits.max_seconds = *secs;
    } else if (arg == "--attacker" && i + 1 < argc) {
      std::string m = argv[++i];
      if (m == "full") attacker = rosa::AttackerModel::Full;
      else if (m == "cfi-ordered") attacker = rosa::AttackerModel::CfiOrdered;
      else if (m == "fixed-args") attacker = rosa::AttackerModel::FixedArgs;
      else return usage(argv[0]);
    } else if (arg == "--model" && i + 1 < argc) {
      std::string m = argv[++i];
      if (m == "linux") checker = nullptr;
      else if (m == "solaris") checker = &privmodels::solaris_checker();
      else if (m == "capsicum") checker = &privmodels::capsicum_checker();
      else return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (path.empty()) return usage(argv[0]);

  try {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "error: cannot open " << path << "\n";
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    rosa::Query query = rosa::parse_query(buf.str());
    query.attacker = attacker;
    query.checker = checker;
    // Queries are written with Linux capability names; under the Solaris
    // model, translate each message's privileges into the equivalent
    // Solaris set. (Capsicum rights have no Linux equivalent; pass the raw
    // bits through and let the author write rights indices directly.)
    if (checker == &privmodels::solaris_checker())
      for (rosa::Message& m : query.messages)
        m.privs = privmodels::from_linux(m.privs);

    std::cout << rosa::print_query(query);
    std::cout << "attacker model: " << rosa::attacker_model_name(attacker)
              << ", access model: "
              << (checker ? checker->name() : "linux-capabilities") << "\n\n";

    rosa::SearchResult result = rosa::search(query, limits);
    std::cout << result.to_string() << "\n";

    if (!dot_path.empty()) {
      rosa::StateGraph graph = rosa::explore_graph(query);
      std::ofstream dot(dot_path);
      if (!dot) {
        std::cerr << "error: cannot write " << dot_path << "\n";
        return 1;
      }
      dot << graph.to_dot();
      std::cout << "state graph (" << graph.node_count() << " states, "
                << graph.edges.size() << " transitions) written to "
                << dot_path << "\n";
    }

    if (replay && checker) {
      std::cout << "\n--replay is only meaningful for the linux model "
                   "(the SimOS kernel implements Linux semantics); skipped\n";
      replay = false;
    }
    if (replay && result.verdict == rosa::Verdict::Reachable) {
      rosa::Materialized world(query.initial);
      std::string diag;
      if (world.replay(result.witness, &diag)) {
        std::cout << "\nwitness replays successfully on the SimOS kernel\n";
      } else {
        std::cout << "\nwitness replay FAILED: " << diag << "\n";
        return 1;
      }
    }
    return result.verdict == rosa::Verdict::Reachable ? 0 : 3;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
