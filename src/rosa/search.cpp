#include "rosa/search.h"

#include "rosa/arena.h"
#include "rosa/cache.h"
#include "rosa/canon.h"
#include "rosa/rules.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "rosa/fingerprint.h"

#include "support/error.h"
#include "support/faultpoint.h"
#include "support/str.h"
#include "support/thread_pool.h"

namespace pa::rosa {

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::Reachable: return "REACHABLE";
    case Verdict::Unreachable: return "UNREACHABLE";
    case Verdict::ResourceLimit: return "RESOURCE-LIMIT";
  }
  return "?";
}

std::optional<Verdict> parse_verdict(std::string_view name) {
  if (name == "REACHABLE") return Verdict::Reachable;
  if (name == "UNREACHABLE") return Verdict::Unreachable;
  if (name == "RESOURCE-LIMIT") return Verdict::ResourceLimit;
  return std::nullopt;
}

void SearchStats::merge(const SearchStats& other) {
  states += other.states;
  transitions += other.transitions;
  dedup_hits += other.dedup_hits;
  hash_collisions += other.hash_collisions;
  peak_frontier = std::max(peak_frontier, other.peak_frontier);
  peak_bytes = std::max(peak_bytes, other.peak_bytes);
  state_bytes += other.state_bytes;
  symmetry_pruned += other.symmetry_pruned;
  escalations += other.escalations;
  decisive_states += other.decisive_states;
  seconds += other.seconds;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  cache_joins += other.cache_joins;
  fused_group_size = std::max(fused_group_size, other.fused_group_size);
  fused_searches_saved += other.fused_searches_saved;
  fused_world_states += other.fused_world_states;
}

void SearchStats::add_retry(const SearchStats& retry) {
  merge(retry);
  ++escalations;
  decisive_states = retry.decisive_states;
}

std::string SearchStats::to_string() const {
  return str::cat("states=", states, " transitions=", transitions,
                  " dedup-hits=", dedup_hits,
                  " hash-collisions=", hash_collisions,
                  " peak-frontier=", peak_frontier,
                  " peak-bytes=", peak_bytes,
                  " symmetry-pruned=", symmetry_pruned,
                  " escalations=", escalations,
                  " fused-group=", fused_group_size,
                  " fused-saved=", fused_searches_saved,
                  " fused-world-states=", fused_world_states,
                  " cache-hits=", cache_hits,
                  " cache-misses=", cache_misses, " cache-joins=", cache_joins,
                  " time=", str::fixed(seconds, 3), "s");
}

std::string SearchResult::to_string() const {
  std::string out =
      str::cat(verdict_name(verdict), " states=", stats.states,
               " transitions=", stats.transitions, " time=",
               str::fixed(stats.seconds, 3), "s");
  if (!witness.empty()) {
    out += "\n  solution:";
    for (const Action& step : witness) out += "\n    " + step.to_string();
  }
  return out;
}

namespace {

using detail::SearchNode;

/// A mask with the low `n` bits set (n <= 64): all of a query's messages,
/// or all members of a fused group.
std::uint64_t low_bits(std::size_t n) {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// The shared world skeleton's footprint, charged once per search (every
/// node references the same instance). Capacity-based and
/// allocator-independent, like the arena's own accounting, so max_bytes
/// exhaustion is deterministic.
std::size_t skeleton_bytes(const State& init) {
  const auto& world = init.world();
  if (!world) return 0;
  std::size_t bytes =
      sizeof(WorldSkeleton) +
      world->names.capacity() * sizeof(std::pair<int, std::string>) +
      (world->users.capacity() + world->groups.capacity()) * sizeof(int);
  for (const auto& [id, name] : world->names)
    bytes += name.capacity() > 15 ? name.capacity() + 1 : 0;
  return bytes;
}

/// The dedup key of a state: its incremental digest, or the test hook's
/// override. check_hashes pins the digest to a from-scratch rehash.
std::uint64_t state_key(const State& st, const SearchLimits& limits) {
  if (limits.check_hashes)
    PA_CHECK(st.hash() == st.full_hash(),
             "incremental state digest diverged from full rehash");
  return limits.hash_override ? limits.hash_override(st) : st.hash();
}

/// The symmetry plan for one search: disabled when limits.reduction is off
/// or the query is ineligible (compute_symmetry), in which case the search
/// loops degenerate to the unreduced reference search.
SymmetryInfo symmetry_for(const Query& query, const SearchLimits& limits) {
  return limits.reduction ? compute_symmetry(query) : SymmetryInfo{};
}

/// One buffered successor: the message index that produced it plus the
/// transition (next state already has msgs_remaining cleared).
struct ExpandedTransition {
  unsigned msg = 0;
  Transition tr;
};

/// Expand one state: apply every unconsumed message allowed by `fire_mask`
/// in ascending index order, appending the successors to `out` in exactly
/// the order the serial loop commits them. `fire_mask` is the query's
/// msg_mask for standalone searches and the union of the live members'
/// masks for the fused engine; masked-out messages stay in msgs_remaining
/// forever (shared canonical representation across masks) and simply
/// never fire. The CfiOrdered program-order gate is applied against the
/// FULL message list: masked-out later messages are never consumed, so the
/// gate degenerates to program order over the mask's subsequence — the
/// same semantics a tailored per-attack message list had. `scratch` is
/// reusable transition storage.
void expand_state(const State& cur, const Query& query,
                  const AccessChecker& checker, std::uint64_t full_msg_mask,
                  std::uint64_t fire_mask,
                  std::vector<ExpandedTransition>& out,
                  std::vector<Transition>& scratch) {
  out.clear();
  const std::uint64_t cur_msgs = cur.msgs_remaining();
  const std::uint64_t fire = cur_msgs & fire_mask;
  for (std::size_t mi = 0; mi < query.messages.size(); ++mi) {
    const std::uint64_t bit = std::uint64_t{1} << mi;
    if (!(fire & bit)) continue;
    // CFI-ordered attackers must issue syscalls in program order: message
    // i is usable only while every later message is still unconsumed
    // (skipping forward is allowed, going back is not).
    if (query.attacker == AttackerModel::CfiOrdered) {
      const std::uint64_t later_in_range = ~((bit << 1) - 1) & full_msg_mask;
      if ((cur_msgs & later_in_range) != later_in_range) continue;
    }
    apply_message(cur, query.messages[mi], query.attacker, checker, scratch);
    for (Transition& tr : scratch) {
      tr.next.set_msgs_remaining(cur_msgs & ~bit);
      out.push_back(
          ExpandedTransition{static_cast<unsigned>(mi), std::move(tr)});
    }
  }
}

/// The witness ending at `goal_node`, translated back into the original
/// identity frame. Stored actions live in the canonical frame of their
/// parent, i.e. the original frame composed with rho = sigma_{i-1} ∘ … ∘
/// sigma_1; undo rho per step, then fold in this step's own renaming.
std::vector<Action> witness_to(
    const Arena<SearchNode>& nodes,
    const std::unordered_map<std::size_t, Renaming>& renames,
    std::int64_t goal_node) {
  std::vector<std::size_t> path;
  for (std::int64_t n = goal_node; n > 0;
       n = nodes[static_cast<std::size_t>(n)].parent)
    path.push_back(static_cast<std::size_t>(n));
  std::reverse(path.begin(), path.end());
  std::vector<Action> witness;
  Renaming rho;
  for (std::size_t n : path) {
    Action step = nodes[n].action;
    unrename_action(step, rho);
    witness.push_back(std::move(step));
    const auto it = renames.find(n);
    if (it != renames.end()) compose_renaming(rho, it->second);
  }
  return witness;
}

/// Grow every set budget by `factor` — one rung of an escalation ladder.
void grow_budgets(SearchLimits& limits, double factor) {
  if (limits.max_states)
    limits.max_states = static_cast<std::size_t>(
        static_cast<double>(limits.max_states) * factor);
  if (limits.max_seconds > 0) limits.max_seconds *= factor;
  if (limits.max_bytes)
    limits.max_bytes = static_cast<std::size_t>(
        static_cast<double>(limits.max_bytes) * factor);
}

}  // namespace

SearchResult search(const Query& query, const SearchLimits& limits) {
  PA_FAULTPOINT("rosa.search");
  PA_CHECK(query.messages.size() <= 64,
           "ROSA tracks at most 64 one-shot messages");
  PA_CHECK(static_cast<bool>(query.goal), "query has no goal predicate");

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  SearchResult result;

  // Chunked arena: node addresses are stable across appends (no whole-array
  // reallocation), and bytes() gives the footprint SearchLimits::max_bytes
  // bounds and SearchStats::peak_bytes reports. A node's `aux` is the
  // intrusive hash chain: the seen-map stores one head index per hash, and
  // genuine collisions extend the chain instead of allocating per-key
  // buckets.
  Arena<SearchNode> nodes;
  // Hash of canonical form -> head of the node chain with that hash. Keying
  // on 8-byte digests instead of full canonical() strings removes one string
  // build + hash per generated successor; exactness is restored by
  // canonical_equal() along the (almost always length-1) chain.
  std::unordered_map<std::uint64_t, std::size_t> seen;
  std::deque<std::size_t> frontier;

  // Size the seen-set for the typical attack query up front so early growth
  // never rehashes; it still grows for the huge exhaustive searches.
  const std::size_t reserve_hint =
      limits.max_states ? std::min<std::size_t>(limits.max_states, 4096)
                        : 4096;
  seen.reserve(reserve_hint);

  const std::uint64_t full_msg_mask = low_bits(query.messages.size());

  State init = query.initial;
  init.normalize();
  init.set_msgs_remaining(full_msg_mask);

  // Byte accounting: the skeleton once, plus each node's own heap
  // allocations registered with the arena as it is appended.
  const std::size_t skeleton = skeleton_bytes(init);
  auto arena_bytes = [&] { return skeleton + nodes.bytes(); };

  const SymmetryInfo sym = symmetry_for(query, limits);
  // Node index -> the (non-identity) renaming its state underwent during
  // canonicalization, needed to translate witness actions back into the
  // original identity frame. Sparse: most canonicalizations are identities.
  std::unordered_map<std::size_t, Renaming> renames;

  auto finish = [&](Verdict v, std::int64_t goal_node) {
    result.verdict = v;
    result.stats.seconds = elapsed();
    result.stats.decisive_states = result.stats.states;
    if (goal_node >= 0) result.witness = witness_to(nodes, renames, goal_node);
    return result;
  };

  {
    const std::uint64_t init_key = state_key(init, limits);
    SearchNode& root =
        nodes.push_back(SearchNode{std::move(init), -1, Action{}, -1});
    nodes.add_bytes(root.state.heap_bytes());
    result.stats.state_bytes = sizeof(State) + root.state.heap_bytes();
    seen.emplace(init_key, 0);
    frontier.push_back(0);
    result.stats.states = 1;
    result.stats.peak_frontier = 1;
    result.stats.peak_bytes = arena_bytes();
    if (query.goal(root.state)) return finish(Verdict::Reachable, 0);
  }

  // Hoisted out of the pop loop: the checker never changes mid-search, and
  // the successor scratch vectors keep their capacity across every
  // expansion instead of allocating per (state, message) pair.
  const AccessChecker& ck = query.checker ? *query.checker : linux_checker();
  std::vector<Transition> scratch;
  std::vector<ExpandedTransition> expanded;

  while (!frontier.empty()) {
    // The wall-clock budget, the batch-wide deadline, and the cooperative
    // cancel flag are all enforced here, once per frontier pop: a
    // per-message-loop check alone is blind to searches whose per-state
    // fanout is tiny but whose frontier is enormous.
    if (limits.max_seconds > 0 && elapsed() > limits.max_seconds)
      return finish(Verdict::ResourceLimit, -1);
    if (limits.expired()) return finish(Verdict::ResourceLimit, -1);

    const std::size_t cur = frontier.front();
    frontier.pop_front();
    // Arena addresses are stable, so the popped node's state can be
    // referenced across successor appends without re-fetching by index.
    const State& cur_state = nodes[cur].state;

    expand_state(cur_state, query, ck, full_msg_mask, query.msg_mask,
                 expanded, scratch);
    for (ExpandedTransition& et : expanded) {
      Transition& tr = et.tr;
      ++result.stats.transitions;
      Renaming sigma;
      if (sym.enabled()) {
        sigma = canonicalize(tr.next, sym);
        if (!sigma.identity()) ++result.stats.symmetry_pruned;
      }

      const std::size_t ni = nodes.size();
      if (!limits.no_dedup) {
        auto [it, inserted] = seen.try_emplace(state_key(tr.next, limits), ni);
        if (!inserted) {
          // Hash already present: walk the chain; exact match = duplicate,
          // otherwise it is a genuine 64-bit collision and the new state
          // joins the chain.
          std::size_t idx = it->second;
          bool duplicate = false;
          for (;;) {
            if (canonical_equal(nodes[idx].state, tr.next)) {
              duplicate = true;
              break;
            }
            if (nodes[idx].aux < 0) break;
            idx = static_cast<std::size_t>(nodes[idx].aux);
          }
          if (duplicate) {
            ++result.stats.dedup_hits;
            continue;
          }
          ++result.stats.hash_collisions;
          nodes[idx].aux = static_cast<std::int64_t>(ni);
        }
      }
      SearchNode& added =
          nodes.push_back(SearchNode{std::move(tr.next),
                                     static_cast<std::int64_t>(cur),
                                     std::move(tr.action), -1});
      nodes.add_bytes(added.state.heap_bytes() +
                      added.action.args.capacity() * sizeof(int));
      result.stats.state_bytes += sizeof(State) + added.state.heap_bytes();
      if (!sigma.identity()) renames.emplace(ni, std::move(sigma));
      ++result.stats.states;
      result.stats.peak_bytes =
          std::max(result.stats.peak_bytes, arena_bytes());

      if (query.goal(added.state))
        return finish(Verdict::Reachable, static_cast<std::int64_t>(ni));

      if (limits.max_states && result.stats.states >= limits.max_states)
        return finish(Verdict::ResourceLimit, -1);
      if (limits.max_bytes && arena_bytes() > limits.max_bytes)
        return finish(Verdict::ResourceLimit, -1);
      frontier.push_back(ni);
      result.stats.peak_frontier =
          std::max(result.stats.peak_frontier, frontier.size());
    }
  }
  return finish(Verdict::Unreachable, -1);
}

SearchResult search_escalating(const Query& query, const SearchLimits& limits,
                               const EscalationPolicy& policy) {
  SearchResult result = search(query, limits);
  if (!policy.enabled()) return result;

  SearchStats accumulated = result.stats;
  SearchLimits grown = limits;
  for (unsigned round = 0; round < policy.rounds; ++round) {
    if (result.verdict != Verdict::ResourceLimit) break;
    // A batch deadline or cancellation caused (or would immediately re-cause)
    // the ResourceLimit; retrying past it is wasted work.
    if (grown.expired()) break;
    grow_budgets(grown, policy.factor);
    result = search(query, grown);
    accumulated.add_retry(result.stats);
  }
  // The decisive attempt's verdict/witness with whole-query work accounting.
  result.stats = accumulated;
  return result;
}

namespace detail {

namespace {

/// Visit the set bits of `bits` as member indices, ascending.
template <typename Fn>
void for_members(std::uint64_t bits, Fn&& fn) {
  while (bits) {
    const int m = std::countr_zero(bits);
    bits &= bits - 1;
    fn(static_cast<std::size_t>(m));
  }
}

}  // namespace

std::vector<SearchResult> search_fused(std::span<const Query> group,
                                       const SearchLimits& limits) {
  PA_CHECK(!group.empty(), "search_fused needs at least one query");
  PA_CHECK(group.size() <= 64, "fused groups are capped at 64 members");
  if (group.size() == 1) return {search(group[0], limits)};
  for (const Query& q : group) {
    PA_FAULTPOINT("rosa.search");
    PA_CHECK(q.messages.size() <= 64,
             "ROSA tracks at most 64 one-shot messages");
    PA_CHECK(static_cast<bool>(q.goal), "query has no goal predicate");
    PA_CHECK(q.messages.size() == group[0].messages.size() &&
                 q.attacker == group[0].attacker,
             "fused group members must share one world");
  }

  const auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&t0] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  const std::size_t n_members = group.size();
  const Query& world_q = group[0];
  std::vector<SearchResult> results(n_members);

  const std::uint64_t full_msg_mask = low_bits(world_q.messages.size());

  // Per-member replay: the fused exploration walks the union graph once,
  // and each member's standalone run is re-enacted on the side — membership
  // is state-intrinsic (consumed ⊆ mask survives canonicalization and is
  // equal across equal states), so every counter a standalone run would
  // have produced is derivable from the union walk.
  struct Member {
    std::uint64_t mask = 0;  // normalized msg_mask
    SearchStats stats;
    std::size_t frontier = 0;  // virtual frontier population
    ArenaSim sim;
  };
  std::vector<Member> members(n_members);
  for (std::size_t m = 0; m < n_members; ++m)
    members[m].mask = group[m].msg_mask & full_msg_mask;

  std::uint64_t live = low_bits(n_members);
  std::uint64_t live_fire = 0;
  auto refresh_fire = [&] {
    live_fire = 0;
    for_members(live, [&](std::size_t m) { live_fire |= members[m].mask; });
  };
  refresh_fire();

  // Member m contains a state iff every consumed message is in m's mask —
  // masked-out messages never fire, so consuming one puts the state outside
  // m's standalone graph forever.
  auto members_of = [&](std::uint64_t consumed) {
    std::uint64_t ms = 0;
    for (std::size_t m = 0; m < n_members; ++m)
      if (!(consumed & ~members[m].mask)) ms |= std::uint64_t{1} << m;
    return ms;
  };

  Arena<SearchNode> nodes;
  std::unordered_map<std::uint64_t, std::size_t> seen;
  std::deque<std::size_t> frontier;
  const std::size_t reserve_hint =
      limits.max_states ? std::min<std::size_t>(limits.max_states, 4096)
                        : 4096;
  seen.reserve(reserve_hint);

  State init = world_q.initial;
  init.normalize();
  init.set_msgs_remaining(full_msg_mask);
  const std::size_t skeleton = skeleton_bytes(init);

  // Grouping (run_queries) guarantees every member computes this same
  // symmetry plan: symmetry eligibility is part of the group key.
  const SymmetryInfo sym = symmetry_for(world_q, limits);
  std::unordered_map<std::size_t, Renaming> renames;

  auto decide = [&](std::size_t m, Verdict v, std::int64_t goal_node) {
    Member& mem = members[m];
    SearchResult& res = results[m];
    res.verdict = v;
    mem.stats.seconds = elapsed();
    mem.stats.decisive_states = mem.stats.states;
    // Every node on the path is m-intrinsic (ancestors consume subsets),
    // so the walk is identical to the standalone finish().
    if (goal_node >= 0) res.witness = witness_to(nodes, renames, goal_node);
    res.stats = mem.stats;
    live &= ~(std::uint64_t{1} << m);
    refresh_fire();
  };

  {
    const std::uint64_t init_key = state_key(init, limits);
    SearchNode& root =
        nodes.push_back(SearchNode{std::move(init), -1, Action{}, -1});
    const std::size_t heap = root.state.heap_bytes();
    nodes.add_bytes(heap);
    seen.emplace(init_key, 0);
    frontier.push_back(0);
    for (std::size_t m = 0; m < n_members; ++m) {
      Member& mem = members[m];
      mem.stats.state_bytes = sizeof(State) + heap;
      mem.sim.push(heap);
      mem.stats.states = 1;
      mem.frontier = 1;
      mem.stats.peak_frontier = 1;
      mem.stats.peak_bytes = skeleton + mem.sim.bytes();
      if (group[m].goal(root.state)) decide(m, Verdict::Reachable, 0);
    }
  }

  const AccessChecker& ck =
      world_q.checker ? *world_q.checker : linux_checker();
  std::vector<Transition> scratch;
  std::vector<ExpandedTransition> expanded;

  while (live && !frontier.empty()) {
    if ((limits.max_seconds > 0 && elapsed() > limits.max_seconds) ||
        limits.expired()) {
      for_members(live,
                  [&](std::size_t m) { decide(m, Verdict::ResourceLimit, -1); });
      break;
    }

    const std::size_t cur = frontier.front();
    frontier.pop_front();
    const State& cur_state = nodes[cur].state;
    const std::uint64_t cur_msgs = cur_state.msgs_remaining();
    const std::uint64_t consumed_cur = full_msg_mask & ~cur_msgs;
    const std::uint64_t live_owners = members_of(consumed_cur) & live;
    // Replay each live owner's pop; a node every owner of which has since
    // decided expands to nothing any live member could own, so skip it.
    for_members(live_owners, [&](std::size_t m) { --members[m].frontier; });
    if (!live_owners) continue;

    expand_state(cur_state, world_q, ck, full_msg_mask, live_fire, expanded,
                 scratch);
    for (ExpandedTransition& et : expanded) {
      if (!live) break;
      Transition& tr = et.tr;
      const std::uint64_t consumed_next =
          consumed_cur | (std::uint64_t{1} << et.msg);
      const std::uint64_t tr_members = members_of(consumed_next);
      std::uint64_t live_tr = tr_members & live;
      // Orphan candidate: no live member's standalone run generates it, and
      // none ever will (equal states have equal membership, live only
      // shrinks) — drop it before any bookkeeping.
      if (!live_tr) continue;
      for_members(live_tr,
                  [&](std::size_t m) { ++members[m].stats.transitions; });
      Renaming sigma;
      if (sym.enabled()) {
        sigma = canonicalize(tr.next, sym);
        if (!sigma.identity())
          for_members(live_tr, [&](std::size_t m) {
            ++members[m].stats.symmetry_pruned;
          });
      }

      const std::size_t ni = nodes.size();
      if (!limits.no_dedup) {
        auto [it, inserted] = seen.try_emplace(state_key(tr.next, limits), ni);
        if (!inserted) {
          std::size_t idx = it->second;
          bool duplicate = false;
          // Standalone-m's map holds this digest iff the chain holds an
          // m-intrinsic state (every m-state here was committed while m was
          // live — liveness only shrinks). When no duplicate stops the walk
          // early, the walk reaches the chain's end, so the accumulated
          // membership is complete exactly when the collision charge below
          // needs it.
          std::uint64_t chain_members = 0;
          for (;;) {
            const State& chain_state = nodes[idx].state;
            chain_members |=
                members_of(full_msg_mask & ~chain_state.msgs_remaining());
            if (canonical_equal(chain_state, tr.next)) {
              duplicate = true;
              break;
            }
            if (nodes[idx].aux < 0) break;
            idx = static_cast<std::size_t>(nodes[idx].aux);
          }
          if (duplicate) {
            for_members(live_tr, [&](std::size_t m) {
              ++members[m].stats.dedup_hits;
            });
            continue;
          }
          for_members(live_tr & chain_members, [&](std::size_t m) {
            ++members[m].stats.hash_collisions;
          });
          nodes[idx].aux = static_cast<std::int64_t>(ni);
        }
      }
      SearchNode& added =
          nodes.push_back(SearchNode{std::move(tr.next),
                                     static_cast<std::int64_t>(cur),
                                     std::move(tr.action), -1});
      const std::size_t heap = added.state.heap_bytes();
      const std::size_t extra =
          heap + added.action.args.capacity() * sizeof(int);
      nodes.add_bytes(extra);
      if (!sigma.identity()) renames.emplace(ni, std::move(sigma));

      for_members(live_tr, [&](std::size_t m) {
        Member& mem = members[m];
        mem.stats.state_bytes += sizeof(State) + heap;
        mem.sim.push(extra);
        ++mem.stats.states;
        mem.stats.peak_bytes =
            std::max(mem.stats.peak_bytes, skeleton + mem.sim.bytes());
        if (group[m].goal(added.state)) {
          decide(m, Verdict::Reachable, static_cast<std::int64_t>(ni));
          return;
        }
        if (limits.max_states && mem.stats.states >= limits.max_states) {
          decide(m, Verdict::ResourceLimit, -1);
          return;
        }
        if (limits.max_bytes && skeleton + mem.sim.bytes() > limits.max_bytes) {
          decide(m, Verdict::ResourceLimit, -1);
          return;
        }
        ++mem.frontier;
        mem.stats.peak_frontier =
            std::max(mem.stats.peak_frontier, mem.frontier);
      });
      if (tr_members & live) frontier.push_back(ni);
    }

    // A live member whose virtual frontier drained has no m-states left
    // anywhere (children only come from m-parents): its standalone run
    // exits its pop loop right here.
    for_members(live_owners & live, [&](std::size_t m) {
      if (members[m].frontier == 0) decide(m, Verdict::Unreachable, -1);
    });
  }
  // Global drain with members still live only happens when every one of
  // them drained on the final pop (handled above); this is a no-op guard.
  for_members(live,
              [&](std::size_t m) { decide(m, Verdict::Unreachable, -1); });

  results[0].stats.fused_world_states = nodes.size();
  return results;
}

std::vector<SearchResult> search_fused_escalating(
    std::span<const Query> group, const SearchLimits& limits,
    const EscalationPolicy& policy) {
  std::vector<SearchResult> results = search_fused(group, limits);
  if (!policy.enabled()) return results;

  std::vector<SearchStats> accumulated;
  accumulated.reserve(results.size());
  for (const SearchResult& r : results) accumulated.push_back(r.stats);

  SearchLimits grown = limits;
  std::vector<Query> pending_queries;
  std::vector<std::size_t> pending;  // indices into `group`
  for (unsigned round = 0; round < policy.rounds; ++round) {
    pending.clear();
    for (std::size_t i = 0; i < results.size(); ++i)
      if (results[i].verdict == Verdict::ResourceLimit) pending.push_back(i);
    // Decided members are final by monotonicity: a Reachable witness stays
    // a witness at any larger budget and Unreachable exhausted the graph —
    // only the starved members re-run.
    if (pending.empty()) break;
    if (grown.expired()) break;
    grow_budgets(grown, policy.factor);
    pending_queries.clear();
    for (std::size_t i : pending) pending_queries.push_back(group[i]);
    std::vector<SearchResult> round_results =
        search_fused(pending_queries, grown);
    // Each round's fused_world_states rides its rank-0 member, so the
    // per-member sums keep matrix-wide aggregation consistent.
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t i = pending[k];
      results[i] = std::move(round_results[k]);
      accumulated[i].add_retry(results[i].stats);
    }
  }
  for (std::size_t i = 0; i < results.size(); ++i)
    results[i].stats = accumulated[i];
  return results;
}

}  // namespace detail

namespace {

/// Stub for a query the batch deadline cancelled before it started: the
/// paper's hourglass verdict with zero work recorded.
SearchResult cancelled_result() {
  SearchResult r;
  r.verdict = Verdict::ResourceLimit;
  return r;
}

/// Execute one fused task (≥ 2 queries sharing a world signature and
/// symmetry eligibility): dedupe members by full fingerprint, consult the
/// cache per representative, run the remaining representatives through ONE
/// fused exploration, then store/adopt so every per-query result — verdict,
/// witness, stats, cache entry, and cache counters — is what the unfused
/// path would have produced.
void run_fused_task(std::span<const Query> queries,
                    const std::vector<std::size_t>& task,
                    const SearchLimits& limits,
                    const EscalationPolicy& escalation, QueryCache* cache,
                    std::vector<SearchResult>& results) {
  const std::size_t n = task.size();
  std::vector<Fingerprint> fps(n);
  std::vector<std::size_t> adopt(n);
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> rep_of;
  for (std::size_t i = 0; i < n; ++i) {
    // Grouping only fuses fingerprintable queries, so the optionals hold.
    fps[i] = *fingerprint_query(queries[task[i]], limits);
    const auto [it, inserted] = rep_of.try_emplace(fps[i], i);
    adopt[i] = it->second;
  }

  std::vector<std::size_t> to_run;
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] != i) continue;
    if (cache) {
      if (auto hit = cache->lookup(fps[i], limits, escalation)) {
        results[task[i]] = std::move(*hit);
        continue;
      }
    }
    to_run.push_back(i);
  }

  if (!to_run.empty()) {
    std::vector<SearchResult> computed;
    if (to_run.size() == 1) {
      // A lone representative gets the classic engine — no fusion overhead
      // and trivially bit-identical to the unfused path.
      computed.push_back(
          search_escalating(queries[task[to_run[0]]], limits, escalation));
    } else {
      std::vector<Query> sub;
      sub.reserve(to_run.size());
      for (std::size_t i : to_run) sub.push_back(queries[task[i]]);
      computed = detail::search_fused_escalating(sub, limits, escalation);
      for (SearchResult& r : computed)
        r.stats.fused_group_size = to_run.size();
      computed[0].stats.fused_searches_saved = to_run.size() - 1;
    }
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      const std::size_t i = to_run[k];
      if (cache) {
        cache->store(fps[i], computed[k], limits, escalation);
        computed[k].stats.cache_misses = 1;
      }
      results[task[i]] = std::move(computed[k]);
    }
  }

  // Duplicates adopt their representative: through the cache when the entry
  // landed (replicating an unfused warm hit, global counters included),
  // else by copying the representative's deterministic result — exactly
  // what re-running the identical query would have produced, minus the
  // fused-run observability fields, which describe the shared exploration
  // and are not the duplicate's own.
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] == i) continue;
    if (cache) {
      if (auto hit = cache->lookup(fps[i], limits, escalation)) {
        results[task[i]] = std::move(*hit);
        continue;
      }
    }
    SearchResult copy = results[task[adopt[i]]];
    copy.stats.fused_group_size = 0;
    copy.stats.fused_searches_saved = 0;
    copy.stats.fused_world_states = 0;
    results[task[i]] = std::move(copy);
  }
}

}  // namespace

std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits,
                                      unsigned n_threads,
                                      const EscalationPolicy& escalation,
                                      QueryCache* cache) {
  std::vector<SearchResult> results(queries.size());

  // Partition the batch into execution tasks. Queries sharing a world
  // signature AND symmetry eligibility fuse into one multi-goal exploration
  // (capped at 64 members — the membership-bitmask width); unfingerprintable
  // queries stay singletons on the classic path.
  std::vector<std::vector<std::size_t>> tasks;
  {
    // [symmetry enabled] -> world signature -> index of the group's newest
    // task (a full task chains into a fresh one).
    std::unordered_map<Fingerprint, std::size_t, FingerprintHash> open[2];
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      std::optional<Fingerprint> sig;
      if (fingerprint_query(q, limits)) sig = world_signature(q, limits);
      if (!sig) {
        tasks.push_back({i});
        continue;
      }
      const bool sym = symmetry_for(q, limits).enabled();
      const auto [it, fresh] = open[sym].try_emplace(*sig, tasks.size());
      if (fresh || tasks[it->second].size() == 64) {
        it->second = tasks.size();
        tasks.emplace_back();
      }
      tasks[it->second].push_back(i);
    }
  }

  // Memoized or direct execution of one query; rosa/cache.h guarantees the
  // cached path returns what the direct path would have computed.
  auto run_one = [&escalation, cache](const Query& q, const SearchLimits& lim) {
    return cache ? cache->run_cached(q, lim, escalation)
                 : search_escalating(q, lim, escalation);
  };
  auto run_task = [&](const std::vector<std::size_t>& task,
                      const SearchLimits& lim) {
    if (task.size() == 1) {
      results[task[0]] = run_one(queries[task[0]], lim);
      return;
    }
    run_fused_task(queries, task, lim, escalation, cache, results);
  };

  if (n_threads == 0) n_threads = support::ThreadPool::hardware_threads();
  if (n_threads <= 1 || tasks.size() <= 1) {
    for (const std::vector<std::size_t>& task : tasks) {
      if (limits.expired()) {
        for (std::size_t i : task) results[i] = cancelled_result();
        continue;
      }
      run_task(task, limits);
    }
    return results;
  }
  support::ThreadPool pool(
      static_cast<unsigned>(std::min<std::size_t>(n_threads, tasks.size())));
  // Thread the pool's cancel token through each search so the first worker
  // to observe the deadline stops the whole matrix (unless the caller wired
  // in a flag of their own, which then governs).
  SearchLimits task_limits = limits;
  if (!task_limits.cancel) task_limits.cancel = pool.cancel_token();
  for (const std::vector<std::size_t>& task : tasks)
    pool.submit([&task_limits, &results, &pool, &run_task, &task] {
      if (task_limits.expired()) {
        for (std::size_t i : task) results[i] = cancelled_result();
        return;
      }
      run_task(task, task_limits);
      if (task_limits.has_deadline() &&
          std::chrono::steady_clock::now() >= task_limits.deadline)
        pool.request_cancel();
    });
  pool.wait_idle();
  return results;
}

}  // namespace pa::rosa
