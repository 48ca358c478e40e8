#include "rosa/cache.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdint>
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

/// What an entry answers for: the query's fingerprint plus its
/// deterministic budget. The deadline and cancel flag are not part of it.
struct Key {
  Fingerprint fp;
  std::size_t max_states = 0;
  std::size_t max_bytes = 0;

  /// Equality is the lookup rule; the order is the file's entry order.
  auto operator<=>(const Key&) const = default;
};

Key key_of(const Fingerprint& fp, const SearchLimits& limits) {
  return Key{fp, limits.max_states, limits.max_bytes};
}

/// Budgets rarely differ between requests for one fingerprint, so only the
/// fingerprint is hashed and == tells the budgets apart.
struct KeyHash {
  std::size_t operator()(const Key& k) const noexcept {
    return FingerprintHash{}(k.fp);
  }
};

/// Estimated resident footprint of one stored result, for the byte-budget
/// eviction policy. Deliberately coarse (the result and its witness payload
/// plus a flat allowance for the key, the map node, the recency-list node
/// and their bookkeeping): the budget bounds growth, it does not meter an
/// allocator.
std::size_t entry_bytes(const SearchResult& r) {
  std::size_t b = sizeof(SearchResult) + 2 * sizeof(Key) + 192;
  b += r.witness.capacity() * sizeof(Action);
  for (const Action& a : r.witness) b += a.args.capacity() * sizeof(int);
  return b;
}

/// One stored key: its result (cache_* and fused_* counters zeroed), the
/// estimated footprint, and its place in the recency list.
struct Resident {
  SearchResult result;
  std::size_t bytes = 0;
  std::list<Key>::iterator recency;
};

}  // namespace

struct QueryCache::Store {
  std::mutex mu;
  std::unordered_map<Key, Resident, KeyHash> map;
  std::list<Key> recency;  // front = most recently used
  std::size_t bytes = 0;   // estimated resident footprint
  std::size_t budget = 0;  // 0 = unlimited
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t loaded = 0;
  std::size_t evictions = 0;

  void touch(Resident& r) {
    recency.splice(recency.begin(), recency, r.recency);
  }

  /// Insert or overwrite key's result as the most recently used one.
  void put(const Key& key, SearchResult result) {
    const auto [it, fresh] = map.try_emplace(key);
    Resident& r = it->second;
    if (fresh) {
      recency.push_front(key);
      r.recency = recency.begin();
    } else {
      touch(r);
      bytes -= r.bytes;
    }
    r.result = std::move(result);
    r.bytes = entry_bytes(r.result);
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

std::optional<SearchResult> QueryCache::lookup(const Fingerprint& fp,
                                               const SearchLimits& limits) {
  std::lock_guard<std::mutex> lk(store_->mu);
  const auto it = store_->map.find(key_of(fp, limits));
  if (it == store_->map.end()) {
    ++store_->misses;
    return std::nullopt;
  }
  // Refresh recency so hot entries survive the budget.
  store_->touch(it->second);
  ++store_->hits;
  SearchResult r = it->second.result;
  r.stats.cache_hits = 1;
  return r;
}

void QueryCache::store(const Fingerprint& fp, const SearchResult& result,
                       const SearchLimits& limits) {
  // The storability rule (cache.h): the deadline and cancel flag stay
  // raised once raised, so if neither is raised now, neither stopped the
  // search.
  if (result.verdict == Verdict::ResourceLimit && limits.expired()) return;
  SearchResult stored = result;
  stored.stats.cache_hits = stored.stats.cache_misses = 0;
  // Mode-of-computation observability, not query cost: a warm hit must be
  // byte-identical whether the entry was computed by a fused group or a
  // lone search.
  stored.stats.fused_group_size = 0;
  stored.stats.fused_searches_saved = 0;
  stored.stats.fused_world_states = 0;
  std::lock_guard<std::mutex> lk(store_->mu);
  store_->put(key_of(fp, limits), std::move(stored));
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
//   privanalyzer-rosa-cache v10 model=<kRosaModelVersion>
//   e <fp> <max-states> <max-bytes> <verdict> <states> <transitions>
//     <seconds> <dedup> <collisions> <peak-frontier> <peak-bytes>
//     <state-bytes> <n-witness>                          (one line)
//   w <sys> <proc> <privs> <n-args> <args...>           (n-witness lines)
//   end
//
// The first three fields are the key. <privs> is a capability bit set, so
// no bit at or above caps::kNumCapabilities may be set. Numbers go through
// the strict str::parse_u64 / str::parse_seconds. Files in older formats
// (v4–v9) are rejected by the version header like any other stale cache.
// v8 marks answers searched with the per-layer goal probe, whose Reachable
// counters differ from v7's and whose ResourceLimits may now be Reachable
// at the same budget, so a v7 entry is not what a cold search returns. v9
// fingerprints hash the world digest, goal key and mask word by word
// (rosa/fingerprint.h), so no v8 key names any question a later build asks.
// v10 keys an entry on the fingerprint and the two budgets alone, in
// 14-field entry lines, so no v9 line parses as a v10 one. Any deviation
// — wrong version, wrong model salt, malformed line, missing `end`
// sentinel (truncation) — rejects the whole file: a cache may always be
// discarded, never trusted partially.
// ---------------------------------------------------------------------------

namespace {

std::string header_line() {
  return str::cat("privanalyzer-rosa-cache v10 model=", kRosaModelVersion);
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

  std::vector<std::pair<Key, SearchResult>> parsed;
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
    if (f.size() != 14 || f[0] != "e") return fail("malformed entry line");
    const std::optional<Fingerprint> fp = Fingerprint::from_hex(f[1]);
    const auto max_states = parse_u64(f[2], SIZE_MAX);
    const auto max_bytes = parse_u64(f[3], SIZE_MAX);
    const std::optional<Verdict> verdict = parse_verdict(f[4]);
    const auto states = parse_u64(f[5]);
    const auto transitions = parse_u64(f[6]);
    const auto seconds = parse_seconds(f[7]);
    const auto dedup = parse_u64(f[8]);
    const auto collisions = parse_u64(f[9]);
    const auto peak = parse_u64(f[10]);
    const auto peak_bytes = parse_u64(f[11]);
    const auto state_bytes = parse_u64(f[12]);
    const auto n_witness = parse_u64(f[13]);
    if (!fp || !max_states || !max_bytes || !verdict || !states ||
        !transitions || !seconds || !dedup || !collisions || !peak ||
        !peak_bytes || !state_bytes || !n_witness || *n_witness > 4096)
      return fail("malformed entry line");

    const Key key{*fp, static_cast<std::size_t>(*max_states),
                  static_cast<std::size_t>(*max_bytes)};
    SearchResult e;
    e.verdict = *verdict;
    e.stats.states = *states;
    e.stats.transitions = *transitions;
    e.stats.seconds = *seconds;
    e.stats.dedup_hits = *dedup;
    e.stats.hash_collisions = *collisions;
    e.stats.peak_frontier = *peak;
    e.stats.peak_bytes = *peak_bytes;
    e.stats.state_bytes = *state_bytes;

    for (std::uint64_t w = 0; w < *n_witness; ++w) {
      if (!std::getline(lines, line)) return fail("truncated witness");
      const std::vector<std::string_view> wf = fields(line);
      if (wf.size() < 5 || wf[0] != "w") return fail("malformed witness line");
      const std::optional<Sys> sys = parse_sys(wf[1]);
      const auto proc = parse_u64(wf[2], INT_MAX);
      const auto privs =
          parse_u64(wf[3], (std::uint64_t{1} << caps::kNumCapabilities) - 1);
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
    parsed.emplace_back(key, std::move(e));
  }
  if (!saw_end) return fail("missing end sentinel (truncated file)");

  // Entries already resident stay; loading more than the budget evicts the
  // oldest-loaded entries as the newer ones arrive.
  std::lock_guard<std::mutex> lk(store_->mu);
  for (auto& [key, e] : parsed) {
    if (store_->map.contains(key)) continue;
    store_->put(key, std::move(e));
    ++store_->loaded;
    store_->evict(1);
  }
  return true;
}

bool QueryCache::save_file(const std::string& path,
                           std::string* warning) const {
  std::vector<std::pair<Key, std::string>> rendered;  // key -> block
  {
    std::lock_guard<std::mutex> lk(store_->mu);
    for (const auto& [key, resident] : store_->map) {
      const SearchResult& e = resident.result;
      std::string block = str::cat(
          "e ", key.fp.to_hex(), " ", key.max_states, " ", key.max_bytes,
          " ", verdict_name(e.verdict), " ", e.stats.states, " ",
          e.stats.transitions, " ", fmt_double(e.stats.seconds), " ",
          e.stats.dedup_hits, " ", e.stats.hash_collisions, " ",
          e.stats.peak_frontier, " ", e.stats.peak_bytes, " ",
          e.stats.state_bytes, " ", e.witness.size(), "\n");
      for (const Action& a : e.witness) {
        block += str::cat("w ", sys_name(a.sys), " ", a.proc, " ",
                          a.privs.raw(), " ", a.args.size());
        for (int arg : a.args) block += str::cat(" ", arg);
        block += "\n";
      }
      rendered.emplace_back(key, std::move(block));
    }
  }
  // Fingerprint order is hex order: to_hex() is fixed-width, hi then lo.
  std::sort(rendered.begin(), rendered.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

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
        for (const auto& [key, block] : rendered) out << block;
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
