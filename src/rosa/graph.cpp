#include "rosa/graph.h"

#include <deque>
#include <sstream>
#include <unordered_map>

#include "rosa/rules.h"
#include "support/error.h"
#include "support/str.h"

namespace pa::rosa {
namespace {

std::string label_of(const State& st) {
  std::string out;
  for (const ProcObj& p : st.procs) {
    out += str::cat("p", p.id, " u", p.uid.effective, " g", p.gid.effective);
    if (!p.running) out += " dead";
    if (!p.rdfset.empty()) {
      out += " r{";
      for (int f : p.rdfset) out += str::cat(f, " ");
      out += "}";
    }
    if (!p.wrfset.empty()) {
      out += " w{";
      for (int f : p.wrfset) out += str::cat(f, " ");
      out += "}";
    }
    out += "\\n";
  }
  return out;
}

std::string dot_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"') out += "\\\"";
    else out += c;
  }
  return out;
}

}  // namespace

bool StateGraph::any_goal() const {
  for (bool g : node_is_goal)
    if (g) return true;
  return false;
}

std::string StateGraph::to_dot(const std::string& graph_name) const {
  std::ostringstream os;
  os << "digraph " << graph_name << " {\n";
  os << "  rankdir=LR;\n  node [shape=box, fontsize=9];\n";
  for (std::size_t i = 0; i < node_labels.size(); ++i) {
    os << "  n" << i << " [label=\"s" << i << "\\n"
       << dot_escape(node_labels[i]) << "\"";
    if (node_is_goal[i]) os << ", peripheries=2, style=bold";
    if (i == 0) os << ", style=filled, fillcolor=lightgray";
    os << "];\n";
  }
  for (const Edge& e : edges)
    os << "  n" << e.from << " -> n" << e.to << " [label=\""
       << dot_escape(e.action.to_string()) << "\", fontsize=8];\n";
  if (truncated)
    os << "  trunc [label=\"(truncated)\", shape=plaintext];\n";
  os << "}\n";
  return os.str();
}

StateGraph explore_graph(const Query& query, std::size_t max_states) {
  PA_CHECK(query.messages.size() <= 64,
           "ROSA tracks at most 64 one-shot messages");
  StateGraph graph;

  State init = query.initial;
  init.normalize();
  init.set_msgs_remaining(
      query.messages.empty()
          ? 0
          : (query.messages.size() == 64
                 ? ~std::uint64_t{0}
                 : (std::uint64_t{1} << query.messages.size()) - 1));

  std::vector<State> states{init};
  std::unordered_map<std::string, std::size_t> seen{{init.canonical(), 0}};
  graph.node_labels.push_back(label_of(init));
  graph.node_is_goal.push_back(query.goal ? query.goal(init) : false);

  const AccessChecker& ck = query.checker ? *query.checker : linux_checker();
  std::vector<detail::ExpandedTransition> expanded;
  std::vector<Transition> scratch;
  std::deque<std::size_t> frontier{0};
  while (!frontier.empty()) {
    const std::size_t cur = frontier.front();
    frontier.pop_front();
    // The search loop's own expansion, so the graph honours the message
    // mask and the CFI program order exactly as search() does. It is done
    // before the pushes below can reallocate `states`.
    detail::expand_state(states[cur], query, ck, query.msg_mask, expanded,
                         scratch);
    for (detail::ExpandedTransition& et : expanded) {
      Transition& tr = et.tr;
      std::string key = tr.next.canonical();
      auto [it, inserted] = seen.emplace(std::move(key), states.size());
      if (inserted) {
        if (states.size() >= max_states) {
          graph.truncated = true;
          seen.erase(it);
          continue;
        }
        states.push_back(tr.next);
        graph.node_labels.push_back(label_of(tr.next));
        graph.node_is_goal.push_back(query.goal ? query.goal(tr.next)
                                                : false);
        frontier.push_back(it->second);
      }
      graph.edges.push_back(
          StateGraph::Edge{cur, it->second, std::move(tr.action)});
    }
  }
  return graph;
}

}  // namespace pa::rosa
