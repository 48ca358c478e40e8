// The standalone single-query ROSA search loop that rosa::search replaced
// with a one-member call of rosa::detail::search_fused, kept as the
// reference for the ROSA differential tests (tests/rosa_search_diff_test.cpp
// and tests/rosa_fused_diff_test.cpp). It carries its own copies of the
// state expansion (message mask and CFI program-order gate) and the witness
// walk, and counts every SearchStats field the way the library did before
// it had one loop. Only tests link it.
#pragma once

#include <functional>

#include "rosa/search.h"

namespace pa::rosa::reference {

/// Breadth-first search of one query, exactly as rosa::search ran it before
/// the fused loop became the only one.
SearchResult search(const Query& query, const SearchLimits& limits = {});

/// The same search for the first state `predicate` accepts, in place of
/// the query's goal: a pattern no goal kind names, such as "any state at
/// depth d" (rosa_test::expect_decided_at_layer_boundary).
SearchResult search(const Query& query, const SearchLimits& limits,
                    const std::function<bool(const State&)>& predicate);

}  // namespace pa::rosa::reference
