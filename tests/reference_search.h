// The standalone single-query ROSA search loop and escalation ladder that
// rosa::search and rosa::search_escalating replaced with one-member calls
// of rosa::detail::search_fused, kept as the reference for the ROSA
// differential tests (tests/rosa_search_diff_test.cpp and
// tests/rosa_fused_diff_test.cpp). It carries its own copies of the state
// expansion (message mask and CFI program-order gate), the budget growth
// rule and the witness walk, and counts every SearchStats field the
// way the library did before it had one loop. Only tests link it.
#pragma once

#include "rosa/search.h"

namespace pa::rosa::reference {

/// Breadth-first search of one query, exactly as rosa::search ran it before
/// the fused loop became the only one.
SearchResult search(const Query& query, const SearchLimits& limits = {});

/// reference::search with the escalation ladder: on ResourceLimit, retry
/// with every set budget multiplied by policy.factor, up to policy.rounds
/// times, stopping early at a definite verdict or an expired deadline.
SearchResult search_escalating(const Query& query, const SearchLimits& limits,
                               const EscalationPolicy& policy);

}  // namespace pa::rosa::reference
