#include "rosa/cache.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
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

/// Replicates search_escalating's budget growth exactly: max_states after
/// `times` escalation rounds (0 = unlimited stays unlimited).
std::size_t grow_budget(std::size_t base, double factor, unsigned times) {
  std::size_t b = base;
  for (unsigned i = 0; i < times && b; ++i)
    b = static_cast<std::size_t>(static_cast<double>(b) * factor);
  return b;
}

/// The largest state budget a (limits, escalation) pair can ever try.
std::size_t max_escalated_budget(const SearchLimits& limits,
                                 const EscalationPolicy& esc) {
  return grow_budget(limits.max_states, esc.factor,
                     esc.enabled() ? esc.rounds : 0);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return std::nullopt;
    v = v * 10 + d;
  }
  return v;
}

std::optional<double> parse_double(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return std::nullopt;
  return v;
}

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

/// One fingerprint's slot: the stored entry plus the in-flight handshake.
struct Slot {
  std::mutex m;
  std::condition_variable cv;
  bool computing = false;
  bool has_entry = false;
  QueryCache::Entry entry;
};

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
  const std::size_t bmax = max_escalated_budget(limits, esc);
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
        grow_budget(limits.max_states, esc.factor, r.stats.escalations);
    // The decisive attempt's state count can only reach max_states at the
    // in-search budget check itself, so >= proves genuine exhaustion. A
    // ResourceLimit caused by a deadline, cancellation, or the byte budget
    // stops short of max_states and is rejected here.
    if (e.decisive_budget == 0 ||
        r.stats.decisive_states < e.decisive_budget)
      return std::nullopt;
  }
  e.stats = r.stats;
  e.stats.cache_hits = e.stats.cache_misses = e.stats.cache_joins = 0;
  // Mode-of-computation observability, not query cost: a warm hit must be
  // byte-identical whether the entry was computed by a fused group or a
  // standalone search.
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
/// eviction policy. Deliberately coarse (container headers + payload plus a
/// flat allowance for the map node and control block): the budget bounds
/// growth, it does not meter an allocator.
std::size_t entry_bytes(const QueryCache::Entry& e) {
  std::size_t b = sizeof(Slot) + sizeof(Fingerprint) + 96;
  b += e.witness.capacity() * sizeof(Action);
  for (const Action& a : e.witness) b += a.args.capacity() * sizeof(int);
  return b;
}

}  // namespace

struct QueryCache::Shard {
  mutable std::mutex map_mu;
  std::unordered_map<Fingerprint, std::shared_ptr<Slot>, FingerprintHash>
      slots;
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> misses{0};
  std::atomic<std::size_t> joins{0};
  std::atomic<std::size_t> entries{0};
  std::atomic<std::size_t> loaded{0};
};

/// Recency bookkeeping for the byte-budget eviction policy. Leaf lock: mu is
/// never held while a shard map_mu or slot mutex is acquired (victims are
/// collected under mu, then evicted after releasing it), so it cannot
/// participate in a lock cycle. The LRU order is approximate under races —
/// an entry touched between victim collection and eviction is still dropped
/// — which costs at most a recompute, never correctness.
struct QueryCache::Lru {
  std::mutex mu;
  std::list<Fingerprint> order;  // front = most recently used
  std::unordered_map<Fingerprint,
                     std::pair<std::list<Fingerprint>::iterator, std::size_t>,
                     FingerprintHash>
      pos;
  std::size_t bytes = 0;   // estimated resident footprint
  std::size_t budget = 0;  // 0 = unlimited
  std::atomic<std::size_t> evictions{0};
};

QueryCache::QueryCache(unsigned shards) : lru_(std::make_unique<Lru>()) {
  if (shards == 0) shards = 1;
  shards_.reserve(shards);
  for (unsigned i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
}

QueryCache::~QueryCache() = default;

void QueryCache::set_byte_budget(std::size_t bytes) {
  std::vector<Fingerprint> victims;
  {
    std::lock_guard<std::mutex> lk(lru_->mu);
    lru_->budget = bytes;
    while (lru_->budget != 0 && lru_->bytes > lru_->budget &&
           !lru_->order.empty()) {
      const Fingerprint victim = lru_->order.back();
      lru_->bytes -= lru_->pos.at(victim).second;
      lru_->pos.erase(victim);
      lru_->order.pop_back();
      victims.push_back(victim);
    }
  }
  for (const Fingerprint& fp : victims) evict_entry(fp);
}

void QueryCache::lru_note(const Fingerprint& fp, std::size_t bytes) {
  std::vector<Fingerprint> victims;
  {
    std::lock_guard<std::mutex> lk(lru_->mu);
    auto it = lru_->pos.find(fp);
    if (it != lru_->pos.end()) {
      lru_->order.splice(lru_->order.begin(), lru_->order, it->second.first);
      if (bytes != 0) {
        lru_->bytes -= it->second.second;
        lru_->bytes += bytes;
        it->second.second = bytes;
      }
    } else if (bytes != 0) {
      lru_->order.push_front(fp);
      lru_->pos.emplace(fp, std::make_pair(lru_->order.begin(), bytes));
      lru_->bytes += bytes;
    } else {
      return;  // touch of an entry the budget already dropped
    }
    // Evict from the cold tail; the >1 guard keeps the entry just used even
    // when it alone exceeds the budget (dropping it would only thrash).
    while (lru_->budget != 0 && lru_->bytes > lru_->budget &&
           lru_->order.size() > 1) {
      const Fingerprint victim = lru_->order.back();
      lru_->bytes -= lru_->pos.at(victim).second;
      lru_->pos.erase(victim);
      lru_->order.pop_back();
      victims.push_back(victim);
    }
  }
  for (const Fingerprint& victim : victims) evict_entry(victim);
}

void QueryCache::evict_entry(const Fingerprint& fp) {
  Shard& sh = shard_for(fp);
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(sh.map_mu);
    auto it = sh.slots.find(fp);
    if (it == sh.slots.end()) return;
    slot = it->second;
  }
  std::lock_guard<std::mutex> lk(slot->m);
  if (!slot->has_entry) return;
  slot->has_entry = false;
  slot->entry = Entry{};
  sh.entries.fetch_sub(1, std::memory_order_relaxed);
  lru_->evictions.fetch_add(1, std::memory_order_relaxed);
}

QueryCache::Shard& QueryCache::shard_for(const Fingerprint& fp) const {
  return *shards_[static_cast<std::size_t>(FingerprintHash{}(fp)) %
                  shards_.size()];
}

SearchResult QueryCache::run_cached(const Query& query,
                                    const SearchLimits& limits,
                                    const EscalationPolicy& escalation) {
  const std::optional<Fingerprint> fp = fingerprint_query(query, limits);
  if (!fp) return search_escalating(query, limits, escalation);

  Shard& sh = shard_for(*fp);
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(sh.map_mu);
    std::shared_ptr<Slot>& s = sh.slots[*fp];
    if (!s) s = std::make_shared<Slot>();
    slot = s;
  }

  bool joined = false;
  std::unique_lock<std::mutex> lk(slot->m);
  for (;;) {
    if (slot->has_entry && reusable(slot->entry, limits, escalation)) {
      SearchResult r = result_from_entry(slot->entry);
      r.stats.cache_hits = 1;
      r.stats.cache_joins = joined ? 1 : 0;
      sh.hits.fetch_add(1, std::memory_order_relaxed);
      if (joined) sh.joins.fetch_add(1, std::memory_order_relaxed);
      lk.unlock();
      lru_note(*fp, 0);  // refresh recency so hot entries survive the budget
      return r;
    }
    if (!slot->computing) break;
    joined = true;
    slot->cv.wait(lk);
  }
  slot->computing = true;
  lk.unlock();

  SearchResult r;
  try {
    r = search_escalating(query, limits, escalation);
  } catch (...) {
    std::lock_guard<std::mutex> relk(slot->m);
    slot->computing = false;
    slot->cv.notify_all();
    throw;
  }

  lk.lock();
  slot->computing = false;
  std::size_t stored_bytes = 0;
  if (std::optional<Entry> e = make_entry(r, limits, escalation)) {
    if (!slot->has_entry) {
      slot->has_entry = true;
      slot->entry = std::move(*e);
      sh.entries.fetch_add(1, std::memory_order_relaxed);
      stored_bytes = entry_bytes(slot->entry);
    } else if (should_replace(slot->entry, *e)) {
      slot->entry = std::move(*e);
      stored_bytes = entry_bytes(slot->entry);
    }
  }
  slot->cv.notify_all();
  lk.unlock();
  if (stored_bytes != 0) lru_note(*fp, stored_bytes);

  r.stats.cache_misses = 1;
  r.stats.cache_joins = joined ? 1 : 0;
  sh.misses.fetch_add(1, std::memory_order_relaxed);
  if (joined) sh.joins.fetch_add(1, std::memory_order_relaxed);
  return r;
}

std::optional<SearchResult> QueryCache::lookup(
    const Fingerprint& fp, const SearchLimits& limits,
    const EscalationPolicy& escalation) {
  Shard& sh = shard_for(fp);
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(sh.map_mu);
    std::shared_ptr<Slot>& s = sh.slots[fp];
    if (!s) s = std::make_shared<Slot>();
    slot = s;
  }
  std::optional<SearchResult> r;
  {
    std::lock_guard<std::mutex> lk(slot->m);
    if (slot->has_entry && reusable(slot->entry, limits, escalation)) {
      r = result_from_entry(slot->entry);
      r->stats.cache_hits = 1;
      sh.hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (r) {
    lru_note(fp, 0);  // refresh recency so hot entries survive the budget
    return r;
  }
  sh.misses.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void QueryCache::store(const Fingerprint& fp, const SearchResult& result,
                       const SearchLimits& limits,
                       const EscalationPolicy& escalation) {
  std::optional<Entry> e = make_entry(result, limits, escalation);
  if (!e) return;
  Shard& sh = shard_for(fp);
  std::shared_ptr<Slot> slot;
  {
    std::lock_guard<std::mutex> lk(sh.map_mu);
    std::shared_ptr<Slot>& s = sh.slots[fp];
    if (!s) s = std::make_shared<Slot>();
    slot = s;
  }
  std::size_t stored_bytes = 0;
  {
    std::lock_guard<std::mutex> lk(slot->m);
    if (!slot->has_entry) {
      slot->has_entry = true;
      slot->entry = std::move(*e);
      sh.entries.fetch_add(1, std::memory_order_relaxed);
      stored_bytes = entry_bytes(slot->entry);
    } else if (should_replace(slot->entry, *e)) {
      slot->entry = std::move(*e);
      stored_bytes = entry_bytes(slot->entry);
    }
  }
  if (stored_bytes != 0) lru_note(fp, stored_bytes);
}

QueryCache::Totals QueryCache::totals() const {
  Totals t;
  for (const auto& sh : shards_) {
    t.hits += sh->hits.load(std::memory_order_relaxed);
    t.misses += sh->misses.load(std::memory_order_relaxed);
    t.joins += sh->joins.load(std::memory_order_relaxed);
    t.entries += sh->entries.load(std::memory_order_relaxed);
    t.loaded += sh->loaded.load(std::memory_order_relaxed);
  }
  t.evictions = lru_->evictions.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(lru_->mu);
    t.resident_bytes = lru_->bytes;
  }
  return t;
}

std::size_t QueryCache::size() const {
  std::size_t n = 0;
  for (const auto& sh : shards_)
    n += sh->entries.load(std::memory_order_relaxed);
  return n;
}

// ---------------------------------------------------------------------------
// Persistence. Versioned text format, all-or-nothing load:
//
//   privanalyzer-rosa-cache v5 model=<kRosaModelVersion>
//   e <fp> <verdict> <states> <transitions> <seconds> <dedup> <collisions>
//     <peak-frontier> <peak-bytes> <state-bytes> <escalations>
//     <decisive-states> <sig-max-states> <sig-max-seconds> <sig-max-bytes>
//     <sig-rounds> <sig-factor> <symmetry-pruned> <decisive-budget>
//     <n-witness>                                         (one line)
//   w <sys> <proc> <privs> <n-args> <args...>           (n-witness lines)
//   end
//
// <states> is the cumulative across-retries total; <decisive-states> is the
// final attempt's count, which the reuse rules reason over. Reduced and
// unreduced runs never share an entry: SearchLimits::reduction is salted
// into the fingerprint. v5 dropped v4's frontier-spill signature bit and
// its spill and partial-order-reduction counters together with those
// mechanisms. Older files are rejected by the version header like any
// other stale cache. Any deviation — wrong version,
// wrong model salt, malformed line, missing `end` sentinel (truncation) —
// rejects the whole file: a cache may always be discarded, never trusted
// partially.
// ---------------------------------------------------------------------------

namespace {

std::string header_line() {
  return str::cat("privanalyzer-rosa-cache v5 model=", kRosaModelVersion);
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
    if (f.size() != 21 || f[0] != "e") return fail("malformed entry line");
    const std::optional<Fingerprint> fp = Fingerprint::from_hex(f[1]);
    const std::optional<Verdict> verdict = parse_verdict(f[2]);
    const auto states = parse_u64(f[3]);
    const auto transitions = parse_u64(f[4]);
    const auto seconds = parse_double(f[5]);
    const auto dedup = parse_u64(f[6]);
    const auto collisions = parse_u64(f[7]);
    const auto peak = parse_u64(f[8]);
    const auto peak_bytes = parse_u64(f[9]);
    const auto state_bytes = parse_u64(f[10]);
    const auto escalations = parse_u64(f[11]);
    const auto decisive_states = parse_u64(f[12]);
    const auto sig_states = parse_u64(f[13]);
    const auto sig_seconds = parse_double(f[14]);
    const auto sig_bytes = parse_u64(f[15]);
    const auto sig_rounds = parse_u64(f[16]);
    const auto sig_factor = parse_double(f[17]);
    const auto symmetry_pruned = parse_u64(f[18]);
    const auto decisive = parse_u64(f[19]);
    const auto n_witness = parse_u64(f[20]);
    if (!fp || !verdict || !states || !transitions || !seconds || !dedup ||
        !collisions || !peak || !peak_bytes || !state_bytes ||
        !escalations || !decisive_states || !sig_states || !sig_seconds ||
        !sig_bytes || !sig_rounds || !sig_factor || !symmetry_pruned ||
        !decisive || !n_witness || *n_witness > 4096)
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
    e.stats.symmetry_pruned = *symmetry_pruned;
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
      const auto proc = parse_u64(wf[2]);
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
        const auto mag = parse_u64(av);
        if (!mag) return fail("malformed witness arg");
        a.args.push_back(neg ? -static_cast<int>(*mag)
                             : static_cast<int>(*mag));
      }
      e.witness.push_back(std::move(a));
    }
    parsed.emplace_back(*fp, std::move(e));
  }
  if (!saw_end) return fail("missing end sentinel (truncated file)");

  std::vector<std::pair<Fingerprint, std::size_t>> accepted;
  for (auto& [fp, e] : parsed) {
    Shard& sh = shard_for(fp);
    std::shared_ptr<Slot> slot;
    {
      std::lock_guard<std::mutex> lk(sh.map_mu);
      std::shared_ptr<Slot>& s = sh.slots[fp];
      if (!s) s = std::make_shared<Slot>();
      slot = s;
    }
    std::lock_guard<std::mutex> lk(slot->m);
    if (!slot->has_entry) {
      slot->has_entry = true;
      slot->entry = std::move(e);
      sh.entries.fetch_add(1, std::memory_order_relaxed);
      sh.loaded.fetch_add(1, std::memory_order_relaxed);
      accepted.emplace_back(fp, entry_bytes(slot->entry));
    }
  }
  // Budget accounting outside every shard/slot lock; loading more than the
  // budget immediately evicts the oldest-loaded entries.
  for (const auto& [fp, bytes] : accepted) lru_note(fp, bytes);
  return true;
}

bool QueryCache::save_file(const std::string& path,
                           std::string* warning) const {
  std::vector<std::pair<std::string, std::string>> rendered;  // hex -> block
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> maplk(sh->map_mu);
    for (const auto& [fp, slot] : sh->slots) {
      std::lock_guard<std::mutex> lk(slot->m);
      if (!slot->has_entry) continue;
      const Entry& e = slot->entry;
      std::string block = str::cat(
          "e ", fp.to_hex(), " ", verdict_name(e.verdict), " ",
          e.stats.states, " ", e.stats.transitions, " ",
          fmt_double(e.stats.seconds), " ", e.stats.dedup_hits, " ",
          e.stats.hash_collisions, " ", e.stats.peak_frontier, " ",
          e.stats.peak_bytes, " ", e.stats.state_bytes, " ",
          e.stats.escalations, " ", e.stats.decisive_states, " ",
          e.sig_max_states, " ", fmt_double(e.sig_max_seconds), " ",
          e.sig_max_bytes, " ", e.sig_rounds, " ", fmt_double(e.sig_factor),
          " ", e.stats.symmetry_pruned, " ", e.decisive_budget, " ",
          e.witness.size(), "\n");
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
