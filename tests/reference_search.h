// The standalone single-query ROSA search loop that rosa::search replaced
// with a one-member call of rosa::detail::search_fused, kept as the
// reference for the ROSA differential tests (tests/rosa_search_diff_test.cpp
// and tests/rosa_fused_diff_test.cpp). It carries its own copies of the
// state expansion (message mask and CFI program-order gate) and the witness
// walk, and counts every SearchStats field the way the library did before
// it had one loop. Only tests link it.
#pragma once

#include "rosa/search.h"

namespace pa::rosa::reference {

/// Breadth-first search of one query, exactly as rosa::search ran it before
/// the fused loop became the only one.
SearchResult search(const Query& query, const SearchLimits& limits = {});

}  // namespace pa::rosa::reference
