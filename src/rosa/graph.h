// Full state-graph exploration with Graphviz export — tooling for
// understanding *why* ROSA reaches a verdict. Unlike rosa/search.h (which
// stops at the first witness and skips duplicate edges), this walks the
// entire bounded space and records every transition.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rosa/search.h"

namespace pa::rosa {

struct StateGraph {
  struct Edge {
    std::size_t from = 0;
    std::size_t to = 0;
    Action action;
  };

  /// One entry per distinct state; label summarizes the process state.
  std::vector<std::string> node_labels;
  /// Parallel to node_labels: does the state satisfy the query's goal?
  std::vector<bool> node_is_goal;
  std::vector<Edge> edges;
  bool truncated = false;  // hit the node budget before exhausting

  std::size_t node_count() const { return node_labels.size(); }
  bool any_goal() const;

  /// Graphviz rendering: goal states double-circled, edges labelled with
  /// the instantiated syscall.
  std::string to_dot(const std::string& graph_name = "rosa") const;
};

/// Explore the query's reachable space (up to `max_states` distinct
/// states), recording every transition including those into already-known
/// states. States expand through the search loop's own
/// detail::expand_state, so msg_mask and CfiOrdered program order shape the
/// graph exactly as they shape search(): for an unreduced query whose space
/// fits, node_count() equals search(query).states_explored() whenever the
/// search exhausts the space.
StateGraph explore_graph(const Query& query, std::size_t max_states = 10000);

}  // namespace pa::rosa
