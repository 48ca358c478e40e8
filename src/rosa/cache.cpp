#include "rosa/cache.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <list>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "support/faultpoint.h"
#include "support/str.h"

namespace pa::rosa {

namespace {

using str::parse_seconds;
using str::parse_u64;

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Exponential backoff before retry `attempt` (1-based) of a transient
/// persistent-cache I/O failure: 1ms, 2ms, 4ms, ... Small absolute values —
/// the retries target fs hiccups (and injected faults), not outages.
void backoff_sleep(int attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(1LL << (attempt - 1)));
}

}  // namespace

struct QueryCache::Entry {
  Verdict verdict = Verdict::Unreachable;
  SearchStats stats;  // cache_* fields always zero in storage
  std::vector<Action> witness;
  /// Budget signature of the run that produced the entry (rule 1).
  std::size_t sig_max_states = 0;
  double sig_max_seconds = 0.0;
  std::size_t sig_max_bytes = 0;
  unsigned sig_rounds = 0;
  double sig_factor = 2.0;
  /// ResourceLimit entries: the decisive attempt's max_states (rule 3).
  std::size_t decisive_budget = 0;
};

namespace {

bool sig_matches(const QueryCache::Entry& e, const SearchLimits& limits,
                 const EscalationPolicy& esc) {
  return e.sig_max_states == limits.max_states &&
         e.sig_max_seconds == limits.max_seconds &&
         e.sig_max_bytes == limits.max_bytes &&
         e.sig_rounds == (esc.enabled() ? esc.rounds : 0) &&
         (!esc.enabled() || e.sig_factor == esc.factor);
}

/// The reuse rules from cache.h: may `e` answer a request with these limits?
bool reusable(const QueryCache::Entry& e, const SearchLimits& limits,
              const EscalationPolicy& esc) {
  if (sig_matches(e, limits, esc)) return true;  // rule 1
  // Rules 2–3 reason purely in explored-state counts, so they require the
  // request to be states-bounded only: a byte budget could trip before the
  // state budget at a point these rules cannot predict.
  if (limits.max_seconds != 0 || limits.max_bytes != 0) return false;
  // The largest state budget this request's escalation ladder can try.
  const std::size_t bmax = esc.attempt_limits(limits, esc.rounds).max_states;
  if (e.verdict == Verdict::ResourceLimit) {
    // Rule 3: equal-or-smaller pure states-bounded budgets only.
    return e.decisive_budget != 0 && bmax != 0 && bmax <= e.decisive_budget;
  }
  // Rule 2: definite verdicts at pure states-bounded requests. A definite
  // verdict is a budget-independent fact of the fingerprint; the budget
  // check only decides whether THIS request would have reached it — which
  // is a question about the decisive attempt's work, not the cumulative
  // total across escalation retries.
  if (bmax == 0) return true;
  return e.verdict == Verdict::Reachable ? e.stats.decisive_states <= bmax
                                         : e.stats.decisive_states < bmax;
}

/// Build the entry for a freshly computed result, or nullopt when the
/// result must not be stored (a ResourceLimit that did not provably exhaust
/// its states budget — e.g. a deadline or cancellation artifact).
std::optional<QueryCache::Entry> make_entry(const SearchResult& r,
                                            const SearchLimits& limits,
                                            const EscalationPolicy& esc) {
  QueryCache::Entry e;
  e.verdict = r.verdict;
  if (r.verdict == Verdict::ResourceLimit) {
    e.decisive_budget =
        esc.attempt_limits(limits, static_cast<unsigned>(r.stats.escalations))
            .max_states;
    // The decisive attempt's state count can only reach max_states at the
    // in-search budget check itself, so >= proves genuine exhaustion. A
    // ResourceLimit caused by a deadline, cancellation, or the byte budget
    // stops short of max_states and is rejected here.
    if (e.decisive_budget == 0 ||
        r.stats.decisive_states < e.decisive_budget)
      return std::nullopt;
  }
  e.stats = r.stats;
  e.stats.cache_hits = e.stats.cache_misses = 0;
  // Mode-of-computation observability, not query cost: a warm hit must be
  // byte-identical whether the entry was computed by a fused group or a
  // lone search.
  e.stats.fused_group_size = 0;
  e.stats.fused_searches_saved = 0;
  e.stats.fused_world_states = 0;
  e.witness = r.witness;
  e.sig_max_states = limits.max_states;
  e.sig_max_seconds = limits.max_seconds;
  e.sig_max_bytes = limits.max_bytes;
  e.sig_rounds = esc.enabled() ? esc.rounds : 0;
  e.sig_factor = esc.factor;
  return e;
}

/// Replacement policy: definite verdicts always win (same-verdict guarantee
/// makes replacing one definite with another safe, and the newer signature
/// enables rule-1 hits for the rest of the batch); between ResourceLimits
/// the larger decisive budget carries strictly more information.
bool should_replace(const QueryCache::Entry& old_e,
                    const QueryCache::Entry& new_e) {
  if (new_e.verdict != Verdict::ResourceLimit) return true;
  if (old_e.verdict != Verdict::ResourceLimit) return false;
  return new_e.decisive_budget > old_e.decisive_budget;
}

SearchResult result_from_entry(const QueryCache::Entry& e) {
  SearchResult r;
  r.verdict = e.verdict;
  r.stats = e.stats;
  r.witness = e.witness;
  return r;
}

/// Estimated resident footprint of one stored entry, for the byte-budget
/// eviction policy. Deliberately coarse (the entry and its witness payload
/// plus a flat allowance for the map node, the recency-list node and their
/// bookkeeping): the budget bounds growth, it does not meter an allocator.
std::size_t entry_bytes(const QueryCache::Entry& e) {
  std::size_t b = sizeof(QueryCache::Entry) + sizeof(Fingerprint) + 192;
  b += e.witness.capacity() * sizeof(Action);
  for (const Action& a : e.witness) b += a.args.capacity() * sizeof(int);
  return b;
}

/// One stored fingerprint: its entry, estimated footprint, and place in the
/// recency list.
struct Resident {
  QueryCache::Entry entry;
  std::size_t bytes = 0;
  std::list<Fingerprint>::iterator recency;
};

}  // namespace

struct QueryCache::Store {
  std::mutex mu;
  std::unordered_map<Fingerprint, Resident, FingerprintHash> map;
  std::list<Fingerprint> recency;  // front = most recently used
  std::size_t bytes = 0;           // estimated resident footprint
  std::size_t budget = 0;          // 0 = unlimited
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t loaded = 0;
  std::size_t evictions = 0;

  void touch(Resident& r) {
    recency.splice(recency.begin(), recency, r.recency);
  }

  /// Insert or replace fp's entry as the most recently used one.
  void put(const Fingerprint& fp, Entry e) {
    const auto [it, fresh] = map.try_emplace(fp);
    Resident& r = it->second;
    if (fresh) {
      recency.push_front(fp);
      r.recency = recency.begin();
    } else {
      touch(r);
      bytes -= r.bytes;
    }
    r.entry = std::move(e);
    r.bytes = entry_bytes(r.entry);
    bytes += r.bytes;
  }

  /// Evict from the cold tail until the footprint fits the budget, keeping
  /// at least `keep` entries: a store keeps the entry it just made even
  /// when that alone exceeds the budget (dropping it would only thrash).
  void evict(std::size_t keep) {
    while (budget != 0 && bytes > budget && map.size() > keep) {
      const auto it = map.find(recency.back());
      bytes -= it->second.bytes;
      map.erase(it);
      recency.pop_back();
      ++evictions;
    }
  }
};

QueryCache::QueryCache() : store_(std::make_unique<Store>()) {}

QueryCache::~QueryCache() = default;

void QueryCache::set_byte_budget(std::size_t bytes) {
  std::lock_guard<std::mutex> lk(store_->mu);
  store_->budget = bytes;
  store_->evict(0);
}

std::optional<SearchResult> QueryCache::lookup(
    const Fingerprint& fp, const SearchLimits& limits,
    const EscalationPolicy& escalation) {
  std::lock_guard<std::mutex> lk(store_->mu);
  const auto it = store_->map.find(fp);
  if (it == store_->map.end() ||
      !reusable(it->second.entry, limits, escalation)) {
    ++store_->misses;
    return std::nullopt;
  }
  // Refresh recency so hot entries survive the budget.
  store_->touch(it->second);
  ++store_->hits;
  SearchResult r = result_from_entry(it->second.entry);
  r.stats.cache_hits = 1;
  return r;
}

void QueryCache::store(const Fingerprint& fp, const SearchResult& result,
                       const SearchLimits& limits,
                       const EscalationPolicy& escalation) {
  std::optional<Entry> e = make_entry(result, limits, escalation);
  if (!e) return;
  std::lock_guard<std::mutex> lk(store_->mu);
  const auto it = store_->map.find(fp);
  if (it != store_->map.end() && !should_replace(it->second.entry, *e))
    return;
  store_->put(fp, std::move(*e));
  store_->evict(1);
}

QueryCache::Totals QueryCache::totals() const {
  std::lock_guard<std::mutex> lk(store_->mu);
  Totals t;
  t.hits = store_->hits;
  t.misses = store_->misses;
  t.entries = store_->map.size();
  t.loaded = store_->loaded;
  t.evictions = store_->evictions;
  t.resident_bytes = store_->bytes;
  return t;
}

std::size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lk(store_->mu);
  return store_->map.size();
}

// ---------------------------------------------------------------------------
// Persistence. Versioned text format, all-or-nothing load:
//
//   privanalyzer-rosa-cache v6 model=<kRosaModelVersion>
//   e <fp> <verdict> <states> <transitions> <seconds> <dedup> <collisions>
//     <peak-frontier> <peak-bytes> <state-bytes> <escalations>
//     <decisive-states> <sig-max-states> <sig-max-seconds> <sig-max-bytes>
//     <sig-rounds> <sig-factor> <decisive-budget> <n-witness>  (one line)
//   w <sys> <proc> <privs> <n-args> <args...>           (n-witness lines)
//   end
//
// <states> is the cumulative across-retries total; <decisive-states> is the
// final attempt's count, which the reuse rules reason over. Numbers go
// through the strict str::parse_u64 / str::parse_seconds. v6 dropped v5's
// symmetry-pruned counter with symmetry reduction; v5 had dropped v4's
// frontier-spill signature bit and its spill and partial-order-reduction
// counters. Older files are rejected by the version header like any other
// stale cache. Any deviation — wrong version, wrong model salt, malformed
// line, missing `end` sentinel (truncation) — rejects the whole file: a
// cache may always be discarded, never trusted partially.
// ---------------------------------------------------------------------------

namespace {

std::string header_line() {
  return str::cat("privanalyzer-rosa-cache v6 model=", kRosaModelVersion);
}

std::vector<std::string_view> fields(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ') ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
  return out;
}

}  // namespace

bool QueryCache::load_file(const std::string& path, std::string* warning) {
  auto fail = [&](std::string why) {
    if (warning)
      *warning = str::cat("ignoring rosa cache ", path, ": ", why);
    return false;
  };

  // The read itself is retried: a transient I/O failure (or an injected
  // rosa.cache_store fault) should not silently discard a warm cache that a
  // second attempt would have read fine. Malformed *content* below is never
  // retried — parsing is deterministic.
  std::string text;
  std::string transient;
  bool have_text = false;
  for (int attempt = 1; attempt <= kIoAttempts && !have_text; ++attempt) {
    if (attempt > 1) backoff_sleep(attempt - 1);
    try {
      PA_FAULTPOINT("rosa.cache_store");
      std::ifstream in(path);
      if (!in) return true;  // missing file: cold cache, not an error
      text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
      if (in.bad()) {
        transient = "read error";
        continue;
      }
      have_text = true;
    } catch (const support::StageError& e) {
      transient = e.what();
    }
  }
  if (!have_text)
    return fail(str::cat(transient, " (after ", kIoAttempts, " attempts)"));

  std::istringstream lines(text);
  std::string line;
  if (!std::getline(lines, line)) return fail("empty file");
  if (line != header_line()) {
    if (line.rfind("privanalyzer-rosa-cache", 0) == 0)
      return fail(str::cat("stale version/model header (want \"",
                           header_line(), "\")"));
    return fail("not a rosa cache file");
  }

  std::vector<std::pair<Fingerprint, Entry>> parsed;
  bool saw_end = false;
  while (std::getline(lines, line)) {
    if (saw_end) {
      if (!line.empty()) return fail("content after end sentinel");
      continue;
    }
    if (line == "end") {
      saw_end = true;
      continue;
    }
    const std::vector<std::string_view> f = fields(line);
    if (f.size() != 20 || f[0] != "e") return fail("malformed entry line");
    const std::optional<Fingerprint> fp = Fingerprint::from_hex(f[1]);
    const std::optional<Verdict> verdict = parse_verdict(f[2]);
    const auto states = parse_u64(f[3]);
    const auto transitions = parse_u64(f[4]);
    const auto seconds = parse_seconds(f[5]);
    const auto dedup = parse_u64(f[6]);
    const auto collisions = parse_u64(f[7]);
    const auto peak = parse_u64(f[8]);
    const auto peak_bytes = parse_u64(f[9]);
    const auto state_bytes = parse_u64(f[10]);
    const auto escalations = parse_u64(f[11]);
    const auto decisive_states = parse_u64(f[12]);
    const auto sig_states = parse_u64(f[13]);
    const auto sig_seconds = parse_seconds(f[14]);
    const auto sig_bytes = parse_u64(f[15]);
    const auto sig_rounds = parse_u64(f[16], UINT_MAX);
    // A growth factor is a finite non-negative decimal, like a duration.
    const auto sig_factor = parse_seconds(f[17]);
    const auto decisive = parse_u64(f[18]);
    const auto n_witness = parse_u64(f[19]);
    if (!fp || !verdict || !states || !transitions || !seconds || !dedup ||
        !collisions || !peak || !peak_bytes || !state_bytes ||
        !escalations || !decisive_states || !sig_states || !sig_seconds ||
        !sig_bytes || !sig_rounds || !sig_factor || !decisive ||
        !n_witness || *n_witness > 4096)
      return fail("malformed entry line");

    Entry e;
    e.verdict = *verdict;
    e.stats.states = *states;
    e.stats.transitions = *transitions;
    e.stats.seconds = *seconds;
    e.stats.dedup_hits = *dedup;
    e.stats.hash_collisions = *collisions;
    e.stats.peak_frontier = *peak;
    e.stats.peak_bytes = *peak_bytes;
    e.stats.state_bytes = *state_bytes;
    e.stats.escalations = *escalations;
    e.stats.decisive_states = *decisive_states;
    e.sig_max_states = *sig_states;
    e.sig_max_seconds = *sig_seconds;
    e.sig_max_bytes = *sig_bytes;
    e.sig_rounds = static_cast<unsigned>(*sig_rounds);
    e.sig_factor = *sig_factor;
    e.decisive_budget = *decisive;
    if (e.stats.decisive_states > e.stats.states)
      return fail("inconsistent entry (decisive > cumulative states)");
    if (e.verdict == Verdict::ResourceLimit &&
        (e.decisive_budget == 0 ||
         e.stats.decisive_states < e.decisive_budget))
      return fail("inconsistent resource-limit entry");

    for (std::uint64_t w = 0; w < *n_witness; ++w) {
      if (!std::getline(lines, line)) return fail("truncated witness");
      const std::vector<std::string_view> wf = fields(line);
      if (wf.size() < 5 || wf[0] != "w") return fail("malformed witness line");
      const std::optional<Sys> sys = parse_sys(wf[1]);
      const auto proc = parse_u64(wf[2], INT_MAX);
      const auto privs = parse_u64(wf[3]);
      const auto n_args = parse_u64(wf[4]);
      if (!sys || !proc || !privs || !n_args ||
          wf.size() != 5 + *n_args)
        return fail("malformed witness line");
      Action a;
      a.sys = *sys;
      a.proc = static_cast<int>(*proc);
      a.privs = caps::CapSet::from_raw(*privs);
      for (std::uint64_t i = 0; i < *n_args; ++i) {
        // Args may be wildcard-free instantiated values incl. -1 sentinels.
        std::string_view av = wf[5 + i];
        bool neg = false;
        if (!av.empty() && av[0] == '-') {
          neg = true;
          av.remove_prefix(1);
        }
        const auto mag = parse_u64(av, INT_MAX);
        if (!mag) return fail("malformed witness arg");
        a.args.push_back(neg ? -static_cast<int>(*mag)
                             : static_cast<int>(*mag));
      }
      e.witness.push_back(std::move(a));
    }
    parsed.emplace_back(*fp, std::move(e));
  }
  if (!saw_end) return fail("missing end sentinel (truncated file)");

  // Entries already resident stay; loading more than the budget evicts the
  // oldest-loaded entries as the newer ones arrive.
  std::lock_guard<std::mutex> lk(store_->mu);
  for (auto& [fp, e] : parsed) {
    if (store_->map.contains(fp)) continue;
    store_->put(fp, std::move(e));
    ++store_->loaded;
    store_->evict(1);
  }
  return true;
}

bool QueryCache::save_file(const std::string& path,
                           std::string* warning) const {
  std::vector<std::pair<std::string, std::string>> rendered;  // hex -> block
  {
    std::lock_guard<std::mutex> lk(store_->mu);
    for (const auto& [fp, resident] : store_->map) {
      const Entry& e = resident.entry;
      std::string block = str::cat(
          "e ", fp.to_hex(), " ", verdict_name(e.verdict), " ",
          e.stats.states, " ", e.stats.transitions, " ",
          fmt_double(e.stats.seconds), " ", e.stats.dedup_hits, " ",
          e.stats.hash_collisions, " ", e.stats.peak_frontier, " ",
          e.stats.peak_bytes, " ", e.stats.state_bytes, " ",
          e.stats.escalations, " ", e.stats.decisive_states, " ",
          e.sig_max_states, " ", fmt_double(e.sig_max_seconds), " ",
          e.sig_max_bytes, " ", e.sig_rounds, " ", fmt_double(e.sig_factor),
          " ", e.decisive_budget, " ", e.witness.size(), "\n");
      for (const Action& a : e.witness) {
        block += str::cat("w ", sys_name(a.sys), " ", a.proc, " ",
                          a.privs.raw(), " ", a.args.size());
        for (int arg : a.args) block += str::cat(" ", arg);
        block += "\n";
      }
      rendered.emplace_back(fp.to_hex(), std::move(block));
    }
  }
  std::sort(rendered.begin(), rendered.end());

  // Each temp-write + rename attempt is all-or-nothing; transient failures
  // (fs hiccups, the rosa.cache_store fault point) are retried with bounded
  // exponential backoff before the caller's warn-and-carry-on path engages.
  const std::string tmp = path + ".tmp";
  std::string why;
  for (int attempt = 1; attempt <= kIoAttempts; ++attempt) {
    if (attempt > 1) backoff_sleep(attempt - 1);
    try {
      PA_FAULTPOINT("rosa.cache_store");
      {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
          why = str::cat("cannot write rosa cache ", tmp);
          continue;
        }
        out << header_line() << "\n";
        for (const auto& [hex, block] : rendered) out << block;
        out << "end\n";
        out.flush();
        if (!out) {
          why = str::cat("write error on rosa cache ", tmp);
          std::remove(tmp.c_str());
          continue;
        }
      }
      if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        why = str::cat("cannot rename ", tmp, " to ", path, ": ",
                       std::strerror(errno));
        std::remove(tmp.c_str());
        continue;
      }
      return true;
    } catch (const support::StageError& e) {
      why = e.what();
    }
  }
  if (warning)
    *warning = str::cat(why, " (after ", kIoAttempts, " attempts)");
  return false;
}

}  // namespace pa::rosa
