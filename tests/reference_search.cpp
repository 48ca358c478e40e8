#include "reference_search.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <unordered_map>

#include "rosa/arena.h"
#include "rosa/rules.h"
#include "support/error.h"

namespace pa::rosa::reference {

namespace {

using detail::SearchNode;

/// A mask with the low `n` bits set (n <= 64): all of a query's messages.
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

/// One buffered successor: the message index that produced it plus the
/// transition (next state already has msgs_remaining cleared).
struct ExpandedTransition {
  unsigned msg = 0;
  Transition tr;
};

/// Expand one state: apply every unconsumed message allowed by `fire_mask`
/// (the query's msg_mask) in ascending index order, appending the
/// successors to `out` in exactly the order the loop commits them.
/// Masked-out messages stay in msgs_remaining forever and simply never
/// fire. The CfiOrdered program-order gate is applied against the FULL
/// message list: masked-out later messages are never consumed, so the gate
/// degenerates to program order over the mask's subsequence. `scratch` is
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

/// The witness ending at `goal_node`: the actions along its parent chain,
/// root first.
std::vector<Action> witness_to(const Arena<SearchNode>& nodes,
                               std::int64_t goal_node) {
  std::vector<std::size_t> path;
  for (std::int64_t n = goal_node; n > 0;
       n = nodes[static_cast<std::size_t>(n)].parent)
    path.push_back(static_cast<std::size_t>(n));
  std::reverse(path.begin(), path.end());
  std::vector<Action> witness;
  for (std::size_t n : path) witness.push_back(nodes[n].action);
  return witness;
}

/// The search loop, for the first state `is_goal` accepts.
template <typename IsGoal>
SearchResult search_for(const Query& query, const SearchLimits& limits,
                        const IsGoal& is_goal) {
  PA_CHECK(query.messages.size() <= 64,
           "ROSA tracks at most 64 one-shot messages");

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

  auto finish = [&](Verdict v, std::int64_t goal_node) {
    result.verdict = v;
    result.stats.seconds = elapsed();
    if (goal_node >= 0) result.witness = witness_to(nodes, goal_node);
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
    if (is_goal(root.state)) return finish(Verdict::Reachable, 0);
  }

  // Hoisted out of the pop loop: the checker never changes mid-search, and
  // the successor scratch vectors keep their capacity across every
  // expansion instead of allocating per (state, message) pair.
  const AccessChecker& ck = query.checker ? *query.checker : linux_checker();
  std::vector<Transition> scratch;
  std::vector<ExpandedTransition> expanded;

  while (!frontier.empty()) {
    // The batch-wide deadline and the cooperative cancel flag are enforced
    // here, once per frontier pop: a per-message-loop check alone is blind
    // to searches whose per-state fanout is tiny but whose frontier is
    // enormous.
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
      ++result.stats.states;
      result.stats.peak_bytes =
          std::max(result.stats.peak_bytes, arena_bytes());

      if (is_goal(added.state))
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

}  // namespace

SearchResult search(const Query& query, const SearchLimits& limits) {
  PA_CHECK(static_cast<bool>(query.goal), "query has no goal predicate");
  return search_for(query, limits, query.goal);
}

SearchResult search(const Query& query, const SearchLimits& limits,
                    const std::function<bool(const State&)>& predicate) {
  return search_for(query, limits, predicate);
}

}  // namespace pa::rosa::reference
