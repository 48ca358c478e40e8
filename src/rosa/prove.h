// ROSA's may-reach prover: decides cells Unreachable without searching them.
//
// The search (rosa/search.h) can only call an attack impossible after it has
// exhausted the attack's state space, which is why "attack impossible" costs
// far more than "attack possible". The prover computes instead a sound
// over-approximation of every state any search of the world could reach — a
// fixpoint over a finite lattice of per-object facts, in the spirit of
// proving the absence of privilege escalation by abstract interpretation
// (Nicole et al., PAPERS.md) — and proves a cell Unreachable when its goal
// cannot hold in it: the goal's kind read over the facts below instead of
// over a state (Abstraction::may_hold). DESIGN.md decision 19 gives the
// abstraction, the soundness argument for each rule, and what the prover
// declines.
//
// The abstraction. Every message may fire any number of times, in any
// order, which over-approximates one-shot messages under every attacker
// model; FixedArgs keeps its rule that a wildcard instantiates nothing.
//  * per process: the values each uid slot and each gid slot (real,
//    effective, saved) may hold; may-be-dead; the files it may hold open for
//    reading and for writing; may-own-an-unbound-socket; and
//    may-have-bound-a-privileged-port. A process that is not running
//    initially never fires; one that may die is still treated as running.
//  * per file: its possible owners, groups and modes. One summary file
//    stands for every file creat makes.
//  * per directory entry: the inodes it may name, dangling included.
// Access decisions go through the query's AccessChecker on representative
// credentials, relying on the contract stated in rosa/checker.h.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "rosa/search.h"

namespace pa::rosa {

namespace detail {
class Abstraction;
}

/// The may-reach prover. An instance keeps the scratch its proofs reuse
/// from world to world, so proving allocates only while that scratch
/// grows; attacks::analyze_epochs keeps one for a batch's worlds and frees
/// it with them. Not thread-safe: each thread needs its own.
class Prover {
 public:
  Prover();
  ~Prover();
  Prover(const Prover&) = delete;
  Prover& operator=(const Prover&) = delete;

  /// Prove members of one world Unreachable. `world` holds at most 64
  /// queries that share one world — initial state, message list, attacker
  /// model and checker — and differ only in goal and msg_mask, as an
  /// epoch's attack cells do. Bit i of the result is set when world[i] is
  /// proved: no search of it reaches its goal, at any budget.
  ///
  /// Work order, all shared by the members:
  ///  1. trivial proofs: a goal that does not hold initially and that none
  ///     of its fireable messages can enable (Goal::enabling) is
  ///     Unreachable;
  ///  2. the credentials closure, once per distinct set of fireable set*id
  ///     messages (set*id rules read only credentials and privileges);
  ///  3. the object facts, once per distinct msg_mask, stopping as soon as
  ///     every remaining member's goal may hold.
  /// Worlds with more than 64 distinct ids or more than 62 files get only
  /// trivial proofs. Once `limits` has expired (deadline or cancel),
  /// nothing more is proved, so the remaining cells fall through to the
  /// search's cancelled stubs. Proofs are never cached: they cost less
  /// than the fingerprints a cache lookup needs.
  std::uint64_t prove_unreachable(std::span<const Query> world,
                                  const SearchLimits& limits);

 private:
  std::unique_ptr<detail::Abstraction> abstraction_;  // made on first use
};

/// What a proved cell reports: Unreachable, no witness, every work counter
/// 0 and stats.proved = 1.
SearchResult proved_result();

}  // namespace pa::rosa
