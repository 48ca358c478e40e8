#include "rosa/search.h"

#include "rosa/arena.h"
#include "rosa/cache.h"
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
  seconds += other.seconds;
  cache_hits += other.cache_hits;
  cache_misses += other.cache_misses;
  proved += other.proved;
  fused_group_size = std::max(fused_group_size, other.fused_group_size);
  fused_searches_saved += other.fused_searches_saved;
  fused_world_states += other.fused_world_states;
}

std::string SearchStats::to_string() const {
  return str::cat("states=", states, " transitions=", transitions,
                  " dedup-hits=", dedup_hits,
                  " hash-collisions=", hash_collisions,
                  " peak-frontier=", peak_frontier,
                  " peak-bytes=", peak_bytes,
                  " fused-group=", fused_group_size,
                  " fused-saved=", fused_searches_saved,
                  " fused-world-states=", fused_world_states,
                  " proved=", proved,
                  " cache-hits=", cache_hits,
                  " cache-misses=", cache_misses,
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

std::chrono::steady_clock::time_point deadline_after(double seconds) {
  using Clock = std::chrono::steady_clock;
  if (!(seconds > 0)) return {};
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double> headroom =
      Clock::time_point::max() - now;
  if (!(seconds < headroom.count())) return {};
  return now + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(seconds));
}

namespace {

using detail::SearchNode;

/// A mask with the low `n` bits set (n <= 64): all of a query's messages,
/// or all members of a fused group.
std::uint64_t low_bits(std::size_t n) {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

/// The shared world skeleton's footprint, charged once per search (every
/// node references the same instance). Counted from what the skeleton holds,
/// not from how its vectors grew, so a skeleton written in place and one
/// copied per write are charged alike; allocator-independent like the
/// arena's own accounting, so max_bytes exhaustion is deterministic.
std::size_t skeleton_bytes(const State& init) {
  const auto& world = init.world();
  if (!world) return 0;
  std::size_t bytes =
      sizeof(WorldSkeleton) +
      world->names.size() * sizeof(std::pair<int, std::string>) +
      (world->users.size() + world->groups.size()) * sizeof(int);
  for (const auto& [id, name] : world->names)
    bytes += name.size() > 15 ? name.size() + 1 : 0;
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

/// The witness ending at `goal_node`: the actions along its parent chain,
/// root first.
std::vector<Action> witness_to(const Arena<SearchNode>& nodes,
                               std::int64_t goal_node) {
  std::vector<Action> witness;
  for (std::int64_t n = goal_node; n > 0;
       n = nodes[static_cast<std::size_t>(n)].parent)
    witness.push_back(nodes[static_cast<std::size_t>(n)].action);
  std::reverse(witness.begin(), witness.end());
  return witness;
}

/// The messages of `fire_mask` that a state whose unconsumed messages are
/// `cur_msgs` may fire: the unconsumed ones, and under CfiOrdered only those
/// after every consumed message. CFI-ordered attackers must issue syscalls
/// in program order: message i is usable only while every later message is
/// still unconsumed (skipping forward is allowed, going back is not).
std::uint64_t fireable(std::uint64_t cur_msgs, const Query& query,
                       std::uint64_t fire_mask) {
  std::uint64_t fire = cur_msgs & fire_mask;
  const std::uint64_t consumed =
      low_bits(query.messages.size()) & ~cur_msgs;
  if (query.attacker == AttackerModel::CfiOrdered && consumed)
    fire &= ~low_bits(static_cast<std::size_t>(std::bit_width(consumed)));
  return fire;
}

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

SearchResult search(const Query& query, const SearchLimits& limits) {
  return std::move(detail::search_fused({&query, 1}, limits)[0]);
}

namespace detail {

void expand_state(const State& cur, const Query& query,
                  const AccessChecker& checker, std::uint64_t fire_mask,
                  std::vector<ExpandedTransition>& out,
                  std::vector<Transition>& scratch) {
  out.clear();
  const std::uint64_t cur_msgs = cur.msgs_remaining();
  for (std::uint64_t fire = fireable(cur_msgs, query, fire_mask); fire;
       fire &= fire - 1) {
    const int mi = std::countr_zero(fire);
    apply_message(cur, query.messages[static_cast<std::size_t>(mi)],
                  query.attacker, checker, scratch);
    for (Transition& tr : scratch) {
      tr.next.set_msgs_remaining(cur_msgs & ~(std::uint64_t{1} << mi));
      out.push_back(
          ExpandedTransition{static_cast<unsigned>(mi), std::move(tr)});
    }
  }
}

std::vector<SearchResult> search_fused(std::span<const Query> group,
                                       const SearchLimits& limits) {
  PA_CHECK(!group.empty(), "search_fused needs at least one query");
  PA_CHECK(group.size() <= 64, "fused groups are capped at 64 members");
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
  // is state-intrinsic (consumed ⊆ mask is equal across equal states), so
  // every counter a standalone run would have produced is derivable from
  // the union walk.
  struct Member {
    std::uint64_t mask = 0;  // normalized msg_mask
    // The mask's messages whose syscall the goal declares enabling: all
    // the goal probe applies for this member (0 = never probed).
    std::uint64_t enabling = 0;
    SearchStats stats;
    std::size_t frontier = 0;  // virtual frontier population
    ArenaSim sim;
  };
  std::vector<Member> members(n_members);
  std::uint64_t probed = 0;  // members with enabling messages
  for (std::size_t m = 0; m < n_members; ++m) {
    Member& mem = members[m];
    mem.mask = group[m].msg_mask & full_msg_mask;
    const SysSet declared = group[m].goal.enabling();
    for (std::size_t mi = 0; mi < world_q.messages.size(); ++mi)
      if (declared & sys_bit(world_q.messages[mi].sys))
        mem.enabling |= std::uint64_t{1} << mi;
    mem.enabling &= mem.mask;
    if (mem.enabling) probed |= std::uint64_t{1} << m;
  }

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

  // Chunked arena: node addresses are stable across appends, and bytes()
  // is the footprint max_bytes bounds. A node's `aux` is the intrusive hash
  // chain: `seen` maps each 64-bit digest to the head of its chain, and
  // genuine collisions extend the chain (exactness comes from
  // canonical_equal along it). The seen-set is sized for the typical attack
  // query up front so early growth never rehashes.
  Arena<SearchNode> nodes;
  std::unordered_map<std::uint64_t, std::size_t> seen;
  // A frontier entry carries its node's unconsumed messages, so the goal
  // probe can pick the nodes it expands without touching their states.
  struct Queued {
    std::size_t node;
    std::uint64_t msgs;
  };
  std::deque<Queued> frontier;
  const std::size_t reserve_hint =
      limits.max_states ? std::min<std::size_t>(limits.max_states, 4096)
                        : 4096;
  seen.reserve(reserve_hint);

  State init = world_q.initial;
  init.normalize();
  init.set_msgs_remaining(full_msg_mask);
  const std::size_t skeleton = skeleton_bytes(init);

  auto decide = [&](std::size_t m, Verdict v, std::int64_t goal_node) {
    Member& mem = members[m];
    SearchResult& res = results[m];
    res.verdict = v;
    mem.stats.seconds = elapsed();
    // Every node on the path is m-intrinsic (ancestors consume subsets),
    // so the walk is the one m's lone run would take.
    if (goal_node >= 0) res.witness = witness_to(nodes, goal_node);
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
    frontier.push_back(Queued{0, full_msg_mask});
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

  // The goal probe's kept successors for the current layer: per probed
  // node, in FIFO order, the messages it applied and its children's range
  // in `kept`, held until the node is popped and spliced into its
  // expansion.
  struct ProbedNode {
    std::size_t node;
    std::uint64_t applied;
    std::size_t begin;
    std::size_t end;
  };
  std::vector<ProbedNode> probed_nodes;
  std::vector<ExpandedTransition> kept;
  std::size_t next_probed = 0;

  // Charge member m's probe hit exactly what committing `tr` would: a
  // transition, a state, its bytes, and a hash collision when the digest's
  // chain holds an m-state. A goal child is never a duplicate (every
  // committed m-state was goal-tested while m was live), so the chain walk
  // runs to its end, as the commit path's does.
  auto charge_hit = [&](std::size_t m, const Transition& tr) {
    Member& mem = members[m];
    ++mem.stats.transitions;
    if (!limits.no_dedup) {
      const auto it = seen.find(state_key(tr.next, limits));
      if (it != seen.end()) {
        std::uint64_t chain_members = 0;
        for (std::int64_t idx = static_cast<std::int64_t>(it->second);
             idx >= 0; idx = nodes[static_cast<std::size_t>(idx)].aux)
          chain_members |= members_of(
              full_msg_mask &
              ~nodes[static_cast<std::size_t>(idx)].state.msgs_remaining());
        if (chain_members & (std::uint64_t{1} << m))
          ++mem.stats.hash_collisions;
      }
    }
    const std::size_t heap = tr.next.heap_bytes();
    mem.stats.state_bytes += sizeof(State) + heap;
    mem.sim.push(heap + tr.action.args.capacity() * sizeof(int));
    ++mem.stats.states;
    mem.stats.peak_bytes =
        std::max(mem.stats.peak_bytes, skeleton + mem.sim.bytes());
  };

  // Probe the layer that starts at `first` (just popped; the rest of the
  // layer is the whole deque). Each node applies its live owners' enabling
  // messages; an owner's first goal child decides it with BFS's witness.
  auto probe_layer = [&](const Queued& first) {
    probed_nodes.clear();
    kept.clear();
    next_probed = 0;
    auto visit = [&](const Queued& q) {
      if (!(live & probed) || limits.expired()) return false;
      const std::size_t node = q.node;
      std::uint64_t pending =
          members_of(full_msg_mask & ~q.msgs) & live & probed;
      std::uint64_t fire = 0;
      for_members(pending,
                  [&](std::size_t m) { fire |= members[m].enabling; });
      fire = fireable(q.msgs, world_q, fire);
      if (!fire) return true;
      expand_state(nodes[node].state, world_q, ck, fire, expanded, scratch);
      const std::size_t begin = kept.size();
      for (ExpandedTransition& et : expanded) {
        const std::uint64_t bit = std::uint64_t{1} << et.msg;
        for_members(pending, [&](std::size_t m) {
          if (!(members[m].enabling & bit) || !group[m].goal(et.tr.next))
            return;
          pending &= ~(std::uint64_t{1} << m);
          charge_hit(m, et.tr);
          decide(m, Verdict::Reachable, static_cast<std::int64_t>(node));
          results[m].witness.push_back(et.tr.action);
        });
        kept.push_back(std::move(et));
      }
      probed_nodes.push_back(ProbedNode{node, fire, begin, kept.size()});
      return true;
    };
    if (!visit(first)) return;
    for (const Queued& q : frontier)
      if (!visit(q)) return;
  };

  int layer = -1;
  while (live && !frontier.empty()) {
    // The deadline and the cancel flag are checked once per frontier pop,
    // so searches with a tiny fanout but an enormous frontier still respect
    // them.
    if (limits.expired()) {
      for_members(live,
                  [&](std::size_t m) { decide(m, Verdict::ResourceLimit, -1); });
      break;
    }

    const Queued popped = frontier.front();
    frontier.pop_front();
    const std::size_t cur = popped.node;
    const std::uint64_t consumed_cur = full_msg_mask & ~popped.msgs;
    // Every transition consumes one message, so a node's depth is its
    // consumed count and the FIFO is layered by it: popping the first node
    // of a deeper layer leaves exactly that layer in the frontier.
    if (const int depth = std::popcount(consumed_cur); depth != layer) {
      layer = depth;
      probe_layer(popped);
      if (!live) break;
    }
    const std::uint64_t live_owners = members_of(consumed_cur) & live;
    // Replay each live owner's pop; a node every owner of which has since
    // decided expands to nothing any live member could own, so skip it.
    for_members(live_owners, [&](std::size_t m) { --members[m].frontier; });
    const ProbedNode* probe = nullptr;
    if (next_probed < probed_nodes.size() &&
        probed_nodes[next_probed].node == cur)
      probe = &probed_nodes[next_probed++];
    if (!live_owners) continue;

    // Commit one successor of `cur`.
    auto commit = [&](ExpandedTransition& et) {
      Transition& tr = et.tr;
      const std::uint64_t consumed_next =
          consumed_cur | (std::uint64_t{1} << et.msg);
      const std::uint64_t tr_members = members_of(consumed_next);
      std::uint64_t live_tr = tr_members & live;
      // Orphan candidate: no live member's standalone run generates it, and
      // none ever will (equal states have equal membership, live only
      // shrinks) — drop it before any bookkeeping.
      if (!live_tr) return;
      for_members(live_tr,
                  [&](std::size_t m) { ++members[m].stats.transitions; });

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
            return;
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
      if (tr_members & live)
        frontier.push_back(Queued{ni, full_msg_mask & ~consumed_next});
    };

    // Splice: apply only what the probe has not, and commit its kept
    // children and the fresh ones in message order, exactly the sequence one
    // full expansion yields. A kept child whose message no live member can
    // fire any more is an orphan, which commit() drops.
    expand_state(nodes[cur].state, world_q, ck,
                 probe ? live_fire & ~probe->applied : live_fire, expanded,
                 scratch);
    std::size_t k = probe ? probe->begin : 0;
    const std::size_t k_end = probe ? probe->end : 0;
    auto fresh = expanded.begin();
    while (live) {
      if (k < k_end &&
          (fresh == expanded.end() || kept[k].msg < fresh->msg))
        commit(kept[k++]);
      else if (fresh != expanded.end())
        commit(*fresh++);
      else
        break;
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

  if (n_members > 1) results[0].stats.fused_world_states = nodes.size();
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

/// One unit of run_queries work. A fused task holds fingerprintable
/// queries that share a world digest (at most 64), with fps[k] the
/// fingerprint of queries[members[k]]. A task without fingerprints holds
/// one unfingerprintable query, which runs uncached.
struct Task {
  std::vector<std::size_t> members;
  std::vector<Fingerprint> fps;
};

/// Execute one fused task: dedupe members by fingerprint, consult the cache
/// per representative, run the remaining representatives through ONE
/// exploration (a plain search when one remains), then store/adopt so every
/// per-query result — verdict, witness, stats, cache entry, and cache
/// counters — is what searching that query alone would have produced.
void run_fused_task(std::span<const Query> queries, const Task& task,
                    const SearchLimits& limits, QueryCache* cache,
                    std::vector<SearchResult>& results) {
  const std::size_t n = task.members.size();
  std::vector<std::size_t> adopt(n);
  std::unordered_map<Fingerprint, std::size_t, FingerprintHash> rep_of;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = rep_of.try_emplace(task.fps[i], i);
    adopt[i] = it->second;
  }

  std::vector<std::size_t> to_run;
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] != i) continue;
    if (cache) {
      if (auto hit = cache->lookup(task.fps[i], limits)) {
        results[task.members[i]] = std::move(*hit);
        continue;
      }
    }
    to_run.push_back(i);
  }

  if (!to_run.empty()) {
    std::vector<Query> sub;
    sub.reserve(to_run.size());
    for (std::size_t i : to_run) sub.push_back(queries[task.members[i]]);
    std::vector<SearchResult> computed = detail::search_fused(sub, limits);
    if (to_run.size() > 1) {
      for (SearchResult& r : computed)
        r.stats.fused_group_size = to_run.size();
      computed[0].stats.fused_searches_saved = to_run.size() - 1;
    }
    for (std::size_t k = 0; k < to_run.size(); ++k) {
      const std::size_t i = to_run[k];
      if (cache) {
        cache->store(task.fps[i], computed[k], limits);
        computed[k].stats.cache_misses = 1;
      }
      results[task.members[i]] = std::move(computed[k]);
    }
  }

  // Duplicates adopt their representative: through the cache when the entry
  // landed (replicating a warm hit, global counters included), else by
  // copying the representative's deterministic result — exactly what
  // re-running the identical query would have produced, minus the fused-run
  // observability fields, which describe the shared exploration and are not
  // the duplicate's own.
  for (std::size_t i = 0; i < n; ++i) {
    if (adopt[i] == i) continue;
    if (cache) {
      if (auto hit = cache->lookup(task.fps[i], limits)) {
        results[task.members[i]] = std::move(*hit);
        continue;
      }
    }
    SearchResult copy = results[task.members[adopt[i]]];
    copy.stats.fused_group_size = 0;
    copy.stats.fused_searches_saved = 0;
    copy.stats.fused_world_states = 0;
    results[task.members[i]] = std::move(copy);
  }
}

}  // namespace

std::vector<SearchResult> run_queries(std::span<const Query> queries,
                                      const SearchLimits& limits,
                                      QueryCache* cache) {
  std::vector<SearchResult> results(queries.size());

  // Partition the batch into execution tasks, digesting each query's world
  // once and deriving its fingerprint from that digest. Queries sharing a
  // world digest fuse into one multi-goal exploration (capped at 64
  // members — the membership-bitmask width); unfingerprintable queries
  // stay alone.
  std::vector<Task> tasks;
  {
    // world digest -> index of the group's newest task (a full task chains
    // into a fresh one).
    std::unordered_map<Fingerprint, std::size_t, FingerprintHash> open;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Query& q = queries[i];
      const std::optional<Fingerprint> world = world_digest(q, limits);
      std::optional<Fingerprint> fp;
      if (world) fp = cell_fingerprint(*world, q);
      if (!fp) {
        tasks.push_back(Task{{i}, {}});
        continue;
      }
      const auto [it, fresh] = open.try_emplace(*world, tasks.size());
      if (fresh || tasks[it->second].members.size() == 64) {
        it->second = tasks.size();
        tasks.emplace_back();
      }
      tasks[it->second].members.push_back(i);
      tasks[it->second].fps.push_back(*fp);
    }
  }

  // A task that starts past the deadline (or after cancellation) is not
  // searched at all; the running search stops at its next frontier pop.
  for (const Task& task : tasks) {
    if (limits.expired())
      for (std::size_t i : task.members) results[i] = cancelled_result();
    else if (task.fps.empty())
      results[task.members[0]] = search(queries[task.members[0]], limits);
    else
      run_fused_task(queries, task, limits, cache, results);
  }
  return results;
}

}  // namespace pa::rosa
