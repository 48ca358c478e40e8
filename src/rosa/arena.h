// Chunked append-only arena with byte-level memory accounting — the node
// store of ROSA's one search loop (rosa::detail::search_fused).
//
// Two properties matter to the search loop:
//
//  1. Stable addresses. Elements never move once appended (chunks are
//     reserved up front and never reallocated), so the BFS can hold plain
//     references to popped nodes across successor appends — the old
//     std::vector<Node> store forced a re-fetch-by-index discipline because
//     any push_back could reallocate the whole array.
//  2. Accountable footprint. bytes() reports the arena's allocated chunk
//     memory plus caller-registered per-element heap bytes (add_bytes), so
//     SearchLimits::max_bytes can bound a search by memory the same way
//     max_states bounds it by node count, and SearchStats::peak_bytes can
//     report the high-water mark. The arena only ever grows, so its current
//     size IS the peak.
//
// Chunk capacities grow geometrically (first_capacity, doubling up to
// chunk_capacity, then uniform): a ten-node search is charged a 16-node
// chunk rather than a full-sized one, so bytes-per-state stays honest at
// both ends of the size spectrum, and the uniform cap keeps worst-case
// reservation slack to one chunk. Growth stays deterministic — capacities
// depend only on append count, never on allocator behaviour.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "rosa/rules.h"
#include "rosa/state.h"

namespace pa::rosa {

template <typename T>
class Arena {
 public:
  explicit Arena(std::size_t chunk_capacity = 128,
                 std::size_t first_capacity = 16)
      : chunk_cap_(chunk_capacity ? chunk_capacity : 1),
        next_cap_(std::min(first_capacity ? first_capacity : 1, chunk_cap_)) {}

  std::size_t size() const { return size_; }

  /// Append; the returned reference (and every earlier one) stays valid for
  /// the arena's lifetime.
  T& push_back(T&& v) {
    if (chunks_.empty() ||
        chunks_.back().size() == chunks_.back().capacity()) {
      starts_.push_back(size_);
      chunks_.emplace_back();
      chunks_.back().reserve(next_cap_);
      reserved_ += next_cap_;
      next_cap_ = std::min(next_cap_ * 2, chunk_cap_);
    }
    chunks_.back().push_back(std::move(v));
    ++size_;
    return chunks_.back().back();
  }

  T& operator[](std::size_t i) {
    const std::size_t c = chunk_of(i);
    return chunks_[c][i - starts_[c]];
  }
  const T& operator[](std::size_t i) const {
    const std::size_t c = chunk_of(i);
    return chunks_[c][i - starts_[c]];
  }

  /// Register heap bytes owned by elements (their own allocations are
  /// invisible to the arena) so bytes() reflects the true footprint.
  void add_bytes(std::size_t n) { extra_bytes_ += n; }

  /// Allocated bytes: chunk reservations plus registered extras.
  std::size_t bytes() const {
    return reserved_ * sizeof(T) + extra_bytes_;
  }

 private:
  std::size_t chunk_of(std::size_t i) const {
    // Chunks are few (geometric prefix, then uniform), so a binary search
    // over their start indices is a handful of compares.
    const auto it = std::upper_bound(starts_.begin(), starts_.end(), i);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
  }

  std::size_t chunk_cap_;
  std::size_t next_cap_;
  std::size_t size_ = 0;
  std::size_t reserved_ = 0;
  std::size_t extra_bytes_ = 0;
  std::vector<std::size_t> starts_;
  std::vector<std::vector<T>> chunks_;
};

namespace detail {

/// One explored state. The search loop appends SearchNodes to an
/// Arena<SearchNode> and registers each node's heap bytes with it; each
/// member's replayed byte schedule (ArenaSim) registers the same bytes, so
/// its max_bytes verdict and peak_bytes figure match what the member's lone
/// run would report. `aux` is the intrusive hash-chain link: the next node
/// with the same 64-bit digest, -1 = chain end.
struct SearchNode {
  State state;
  std::int64_t parent = -1;
  Action action;
  std::int64_t aux = -1;
};

/// Replays the Arena<SearchNode> byte schedule for one member of a fused
/// search as a pure function of that member's own commit sequence: chunk
/// reservations (16, then doubling up to the 128 cap — Arena's defaults)
/// plus the registered per-node extra heap bytes. After k push() calls with
/// the same extras a standalone run registered, bytes() equals that run's
/// nodes.bytes() after k commits — so skeleton bytes + bytes() replays the
/// standalone arena footprint exactly.
struct ArenaSim {
  std::size_t size = 0;
  std::size_t reserved = 0;
  std::size_t extra = 0;
  std::size_t next_cap = 16;

  void push(std::size_t extra_bytes) {
    if (size == reserved) {
      reserved += next_cap;
      next_cap = std::min<std::size_t>(next_cap * 2, 128);
    }
    ++size;
    extra += extra_bytes;
  }
  std::size_t bytes() const { return reserved * sizeof(SearchNode) + extra; }
};

}  // namespace detail

}  // namespace pa::rosa
