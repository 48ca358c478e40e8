// ROSA's bounded search — the C++ analogue of Maude's `search` command:
// breadth-first exploration of every configuration reachable from the
// initial state by consuming syscall messages, with duplicate states pruned
// via a 64-bit hash of the canonical form (collisions resolved by exact
// comparison, so dedup semantics are identical to full canonical keying).
//
// Everything runs on the calling thread: search() decides one query, and
// run_queries() decides a batch, fusing the queries that share a world into
// one exploration and returning input-ordered results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "rosa/message.h"
#include "rosa/rules.h"
#include "rosa/state.h"

namespace pa::rosa {

class QueryCache;  // rosa/cache.h

/// A set of syscalls, one bit per Sys.
using SysSet = std::uint32_t;
constexpr SysSet sys_bit(Sys s) {
  return SysSet{1} << static_cast<unsigned>(s);
}

/// The compromised-state pattern a query searches for: one of four atoms
/// over process `proc` and, for the fd-set atoms, file `file`. A goal is
/// its (kind, proc, file) value; everything the engine asks of it derives
/// from that value by one switch on `kind` each (rosa/query.cpp), so the
/// predicate, the cache identity and the enabling set cannot disagree.
/// The may-reach prover's abstract counterpart, whether the goal may hold
/// in its fixpoint, is the same switch over its facts (rosa/prove.cpp).
/// The builders in rosa/query.h name the paper's patterns.
struct Goal {
  enum class Kind : std::uint8_t {
    None,        // unset: search() rejects a query without a goal
    Rdfset,      // `proc` holds `file` open for reading
    Wrfset,      // `proc` holds `file` open for writing
    PrivPort,    // a socket `proc` owns is bound to a privileged port
    Terminated,  // `proc` has been terminated
  };
  Kind kind = Kind::None;
  int proc = 0;
  int file = 0;  // Rdfset and Wrfset only

  /// Whether `st` is a goal state. A goal about a process the state lacks
  /// never holds (processes are never created).
  bool operator()(const State& st) const;
  explicit operator bool() const { return kind != Kind::None; }

  /// Stable identity for fingerprinting (rosa/fingerprint.h):
  /// "rdfset:<proc>:<file>", "wrfset:<proc>:<file>", "privport:<proc>" or
  /// "terminated:<proc>".
  std::string cache_key() const;

  /// The syscalls whose messages can turn this goal from false to true; a
  /// message of any other syscall applied to a non-goal state never yields
  /// a goal state. The search's per-layer goal probe
  /// (detail::search_fused) applies only these, and the prover proves a
  /// cell whose mask fires none of them.
  SysSet enabling() const;
};
static_assert(std::is_trivially_copyable_v<Goal>);

/// A search problem: initial configuration, one-shot messages, and the
/// pattern (goal predicate) describing the compromised system state.
///
/// A Query and its Goal belong to the thread that searches them; a search
/// only reads them. The `checker` may be shared by concurrent searches of
/// different queries (privanalyzerd runs one job per worker), so checkers
/// are stateless (rosa/checker.h).
struct Query {
  State initial;
  /// At most 64 messages (bitmask-tracked). Under AttackerModel::CfiOrdered
  /// the list order IS the program order the attacker must respect.
  std::vector<Message> messages;
  Goal goal;
  std::string description;
  /// Attacker strength (§X: modelling defenses like CFI / data-flow
  /// integrity weakens the attacker).
  AttackerModel attacker = AttackerModel::Full;
  /// Access-control model the rules evaluate against (§X: comparing the
  /// efficacy of different OS privilege models). Non-owning; defaults to
  /// Linux capabilities.
  const AccessChecker* checker = nullptr;
  /// Which messages the attacker may actually fire (bit i = messages[i];
  /// default: all). Masked-out messages can never fire, but their
  /// msgs_remaining bits stay SET forever, so two queries over the same
  /// message list that differ only in mask share canonical state
  /// representations — the property the fused multi-goal engine's shared
  /// dedup rests on, and what lets the (epoch × attack) matrix pose every
  /// attack against one union world. The mask's bits within the message
  /// list are part of the query fingerprint (rosa/fingerprint.h).
  std::uint64_t msg_mask = ~std::uint64_t{0};
};

struct SearchLimits {
  /// Stop after exploring this many distinct states (0 = unlimited). This is
  /// the bound that produces the paper's "timed out" verdicts.
  std::size_t max_states = 2'000'000;
  /// Memory budget in bytes for the search's node arena (0 = unlimited).
  /// Exceeding it returns ResourceLimit, exactly like max_states. The
  /// accounting counts capacity (arena chunks + per-state heap bytes) plus
  /// the world skeleton's contents, not what the allocator does, so
  /// byte-budget exhaustion is deterministic.
  std::size_t max_bytes = 0;
  /// Disable duplicate-state detection (ablation only; exponential blowup).
  bool no_dedup = false;
  /// Debug mode: cross-check every incrementally maintained state digest
  /// against a from-scratch State::full_hash() and abort on mismatch. Costs
  /// a full rehash per generated successor; tests enable it to pin the
  /// incremental XOR updates to the reference hash.
  bool check_hashes = false;
  /// Test hook: replace State::hash() as the dedup key (e.g. a constant to
  /// force every insert through the collision-fallback path). Verdicts must
  /// not change under any override (tests/rosa_hash_test.cpp).
  std::function<std::uint64_t(const State&)> hash_override;
  /// Absolute batch-wide deadline (default-constructed = none), the one
  /// wall-clock limit. Checked once per frontier pop, so even
  /// huge-frontier/tiny-fanout searches respect it; past-deadline searches
  /// return ResourceLimit. The pipeline derives this from
  /// PipelineOptions::max_total_seconds so a runaway (epoch × attack) matrix
  /// cannot hang a batch. steady_clock is monotone, so once passed a
  /// deadline stays passed.
  std::chrono::steady_clock::time_point deadline{};
  /// Cooperative cancellation (non-owning; e.g. the CLI's SIGINT flag or a
  /// daemon job's cancel flag). When set and *cancel is true, the search
  /// stops at the next frontier pop with ResourceLimit. A flag is only ever
  /// set to true, so once raised it stays raised. With the deadline, this
  /// is what lets the verdict cache (rosa/cache.h) decide from expired()
  /// at store time whether a ResourceLimit came from the budget alone.
  const std::atomic<bool>* cancel = nullptr;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point{};
  }
  bool expired() const {
    return (cancel && cancel->load(std::memory_order_relaxed)) ||
           (has_deadline() && std::chrono::steady_clock::now() >= deadline);
  }
};

/// The steady_clock deadline `seconds` from now, or none (a default
/// time_point) when `seconds` is not positive or lies beyond what the clock
/// can represent: an unrepresentable budget is unlimited, never expired.
std::chrono::steady_clock::time_point deadline_after(double seconds);

enum class Verdict {
  Reachable,      // the compromised state can be reached (vulnerable)
  Unreachable,    // the full reachable space contains no such state
  ResourceLimit,  // limits hit before the space was exhausted (the paper's hourglass)
};

std::string_view verdict_name(Verdict v);
/// Inverse of verdict_name (for the persistent cache loader).
std::optional<Verdict> parse_verdict(std::string_view name);

/// Per-query observability counters, aggregated across the pipeline's
/// (epoch × attack) matrix and printed by `privanalyzer --stats`.
struct SearchStats {
  std::size_t states = 0;           // distinct states explored
  std::size_t transitions = 0;      // rule applications attempted
  std::size_t dedup_hits = 0;       // successors pruned as already seen
  std::size_t hash_collisions = 0;  // distinct states sharing a 64-bit key
  std::size_t peak_frontier = 0;    // high-water mark of the BFS queue
  /// High-water mark of the node arena in bytes (chunk reservations plus
  /// per-state heap allocations); the arena only grows, so this is simply
  /// its final size. Aggregated across queries by max, like peak_frontier.
  std::size_t peak_bytes = 0;
  /// Representation-only footprint: sum over explored states of
  /// sizeof(State) plus the state's own heap bytes. Excludes search
  /// bookkeeping (parent/collision links, stored actions, chunk reservation
  /// slack), so state_bytes / states measures how compact the state
  /// *representation* is, independently of the arena around it.
  std::size_t state_bytes = 0;
  /// Fused multi-goal search observability (zero when the query ran alone;
  /// never part of bit-identity comparisons or persistent cache entries).
  /// Size of the world group this query was decided in; aggregated by max,
  /// so the matrix figure reports the largest group.
  std::size_t fused_group_size = 0;
  /// Whole explorations the group fan-in avoided, charged once per group to
  /// its first member (group size minus explorations actually run).
  std::size_t fused_searches_saved = 0;
  /// States explored by the group's shared exploration, charged once per
  /// group to its first member. Summing this across a fused matrix and
  /// comparing against the sum of per-query `states` (which replay the
  /// standalone counts) measures the fused states-explored reduction.
  std::size_t fused_world_states = 0;
  double seconds = 0.0;             // wall time

  /// Average arena bytes per explored state (0 when nothing was explored) —
  /// the memory-compactness figure bench_rosa_scaling reports.
  double bytes_per_state() const {
    return states ? static_cast<double>(peak_bytes) /
                        static_cast<double>(states)
                  : 0.0;
  }
  /// Verdict-cache counters (rosa/cache.h). For a memoized query exactly one
  /// of cache_hits / cache_misses is 1 (uncacheable queries leave both 0).
  /// Duplicates of one fingerprint always land in the same fused task, so
  /// a batch records one miss per distinct fingerprint it searched.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// 1 when the may-reach prover decided the query Unreachable
  /// (rosa/prove.h): it was never searched, looked up or stored, and every
  /// other counter is 0.
  std::size_t proved = 0;

  /// Accumulate another query's counters (peak_frontier takes the max).
  void merge(const SearchStats& other);

  std::string to_string() const;
};

struct SearchResult {
  Verdict verdict = Verdict::Unreachable;
  /// All work counters live here — single source of truth (the old
  /// states_explored/transitions/seconds members duplicated stats.*).
  SearchStats stats;
  /// When Reachable: the instantiated syscall sequence that compromises the
  /// system (the paper's "solution"). Machine-readable Actions; replayable
  /// against the SimOS kernel (tests/witness_replay_test.cpp).
  std::vector<Action> witness;

  std::size_t states_explored() const { return stats.states; }
  std::size_t transitions() const { return stats.transitions; }
  double seconds() const { return stats.seconds; }

  std::string to_string() const;
};

/// Run the bounded search: a one-member detail::search_fused.
SearchResult search(const Query& query, const SearchLimits& limits = {});

/// Run a batch of independent queries on the calling thread.
/// Fingerprintable queries that share a world digest
/// (rosa/fingerprint.h) are fused into one multi-goal exploration
/// (detail::search_fused); a query with no partner runs as a group of one,
/// and an unfingerprintable query runs search() alone. The groups run one
/// after another. results[i] always corresponds to queries[i], and every
/// result is bit-identical to a standalone search() of queries[i] apart
/// from the fused_* counters. Exceptions from any query propagate to the
/// caller.
///
/// Once limits' deadline passes (or its cancel flag is raised), the running
/// search stops at its next frontier pop and groups not yet started return
/// stub ResourceLimit results (0 states), so the batch always completes and
/// results stay position-complete.
///
/// `cache` (optional) memoizes whole-query results by content fingerprint;
/// run_queries is its only client. Each fused group looks its members up,
/// searches the misses together, and stores their results. A query's
/// fingerprint is derived from its world digest, the grouping key, so
/// duplicate fingerprints land in the same group, which searches the
/// fingerprint once and fans the result out. Cached and
/// uncached batches are bit-identical in verdicts, witnesses, and work
/// counters because an entry answers only the fingerprint and budget that
/// produced it, and that search is deterministic (rosa/cache.h).
std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits = {},
                                      QueryCache* cache = nullptr);

namespace detail {

/// One successor produced by expand_state: the index of the message that
/// fired plus the transition (its next state has that message consumed).
struct ExpandedTransition {
  unsigned msg = 0;
  Transition tr;
};

/// Expand one state: apply every unconsumed message allowed by `fire_mask`
/// in ascending index order, replacing `out` with the successors in exactly
/// the order the search loop commits them. `fire_mask` is the union of the
/// live members' msg_masks (one member: its own mask). Masked-out messages
/// stay in msgs_remaining forever, which keeps state representations shared
/// across masks, and simply never fire. The CfiOrdered program-order gate
/// is applied against the FULL message list: masked-out later messages are
/// never consumed, so the gate degenerates to program order over the mask's
/// subsequence. `scratch` is reusable transition storage. The one state
/// expansion, shared by search_fused and explore_graph (rosa/graph.h).
void expand_state(const State& cur, const Query& query,
                  const AccessChecker& checker, std::uint64_t fire_mask,
                  std::vector<ExpandedTransition>& out,
                  std::vector<Transition>& scratch);

/// The one search loop. Fused multi-goal search: ONE exploration over a
/// group of queries that share a world (initial state, pools, message list,
/// attacker, checker identity) and differ only in goal and msg_mask; a
/// group of one is a plain search. results[i] is bit-identical to running
/// group[i] alone (rosa::search) — verdict, witness, and every work counter
/// except the fused_* ones — because each member's run is replayed exactly
/// inside the shared exploration: a state belongs to member m iff its
/// consumed-message
/// set lies inside m's mask (an intrinsic property of the state, so the
/// m-subsequence of the fused FIFO commit order IS m's standalone order,
/// and dedup/collision decisions restricted to m's states match m's own
/// seen-set), per-member frontier and arena-byte schedules are simulated
/// against a lone run's exact formulas, and each goal's first hit is
/// recorded at its standalone decisive rank. Decided goals retire from the
/// live set; exploration ends when all are decided or the frontier drains.
/// Only groups of two or more charge fused_world_states.
///
/// Per-layer goal probe: the FIFO is layered by depth (the number of
/// consumed messages), and when a layer starts, the loop first applies to
/// each of its nodes, in FIFO order, only the messages that can make a live
/// owner's goal true (Goal::enabling). The first goal child a member meets
/// there is the first its BFS would commit, so the member is decided
/// Reachable on the spot with BFS's own witness, charged exactly what
/// committing that child would charge. A member's layers and their
/// order are the union's restricted to its states, so a fused member is
/// decided at the same boundary as its lone run. The probe's children are
/// kept and spliced into their parent's expansion when it is popped, so
/// every (state, message) pair is still applied once. Unreachable and
/// ResourceLimit members keep every counter; under a tight max_states a
/// ResourceLimit may become Reachable.
///
/// Precondition (the run_queries grouping guarantees it; callers passing
/// hand-built groups must too): the group has at most 64 members.
std::vector<SearchResult> search_fused(std::span<const Query> group,
                                       const SearchLimits& limits);

}  // namespace detail

}  // namespace pa::rosa
