// Content-addressed verdict cache for ROSA searches.
//
// The (epoch × attack) matrix is full of canonically identical queries —
// consecutive epochs that differ only in instruction counts pose the exact
// same reachability question — and repeat batch runs re-explore every state
// space from scratch. QueryCache memoizes whole-query SearchResults by
// content fingerprint (rosa/fingerprint.h) so each distinct fingerprint is
// searched once per batch and its result fanned out to every duplicate
// cell, with optional persistence across runs (--rosa-cache FILE). Its only
// client is rosa::run_queries: each fused task looks its members up,
// searches the misses, and stores their results.
//
// ## Correctness model
//
// One rule: an entry is keyed by the query's fingerprint plus its
// deterministic budget — max_states and max_bytes — and a lookup hits only
// an entry with an equal key. A search is a deterministic function of that
// key (the byte budget is capacity-accounted, hence deterministic) unless
// the batch deadline or the cancel flag stops it. So a hit replays verbatim
// exactly what the uncached path would compute: verdict, witness, and every
// work counter. Every stored verdict was searched under the budget it
// answers for, Unreachable included — "no witness within this budget" is
// never stretched to another budget.
//
// Storability: Reachable and Unreachable results are always stored; a
// ResourceLimit only when !limits.expired() at store time. The deadline
// (steady_clock is monotone) and every cancel flag (only ever set to true)
// stay raised once raised, so an unexpired limits object proves neither
// stopped the search, and the ResourceLimit is a fact of its budget. The
// deadline and cancel flag are not part of the key.
//
// ## Concurrency
//
// A batch runs on one thread, but privanalyzerd's workers run their jobs'
// batches concurrently against one resident cache. One mutex guards the
// key → result map, the recency list and the counters, so every call is
// safe from any thread, and LRU eviction happens under the same lock as the
// store that caused it. No lock is held during a search, and there is no
// in-flight handshake: run_queries computes each query's world digest once,
// groups the batch by it, and derives the query's fingerprint from it
// (rosa/fingerprint.h), so equal fingerprints come from equal digests
// (short of a 128-bit collision, which every fingerprint key assumes
// away), and within one batch duplicates land in the same fused task,
// which searches the fingerprint once. Two concurrent batches sharing
// a cache may both miss and search the same key; both compute the same
// deterministic result, so whichever store lands serves later lookups.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "rosa/fingerprint.h"
#include "rosa/search.h"

namespace pa::rosa {

class QueryCache {
 public:
  QueryCache();
  ~QueryCache();

  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  /// Persistent-file I/O attempts per load_file/save_file call: transient
  /// failures (the `rosa.cache_store` fault point, read errors, a failed
  /// temp write/rename) are retried with bounded exponential backoff this
  /// many times before the call degrades to its warn-and-return-false path.
  /// Malformed *content* is never retried — parsing is deterministic, so a
  /// corrupt cache is rejected on the first attempt like before.
  static constexpr int kIoAttempts = 3;

  /// Byte budget for resident entries (0 = unlimited, the default). When a
  /// store pushes the estimated resident footprint past the budget,
  /// least-recently-used entries are evicted (never the entry just stored
  /// or reused) until it fits again. Eviction only ever costs a future
  /// recompute — a re-submitted query misses and searches afresh. This is
  /// what lets privanalyzerd keep one resident multi-tenant cache without
  /// unbounded growth.
  void set_byte_budget(std::size_t bytes);

  /// The result stored under this fingerprint and budget
  /// (stats.cache_hits = 1, recency refreshed), or nullopt after counting a
  /// miss.
  std::optional<SearchResult> lookup(const Fingerprint& fp,
                                     const SearchLimits& limits);
  /// Store a freshly computed result under this fingerprint and budget when
  /// the storability rule above admits it, overwriting any entry with the
  /// same key (equal keys compute equal results), then evict to the byte
  /// budget.
  void store(const Fingerprint& fp, const SearchResult& result,
             const SearchLimits& limits);

  /// Lifetime aggregate of every lookup (monotone except the resident
  /// gauges; thread-safe).
  struct Totals {
    std::size_t hits = 0;    // served from a stored entry
    std::size_t misses = 0;  // searched (and possibly stored)
    std::size_t entries = 0; // entries currently stored
    std::size_t loaded = 0;  // entries accepted by load_file
    std::size_t evictions = 0;      // entries dropped by the byte budget
    std::size_t resident_bytes = 0; // estimated footprint of stored entries
  };
  Totals totals() const;

  /// Number of entries currently stored.
  std::size_t size() const;

  /// Load a persistent cache written by save_file. Missing file: fresh
  /// cache, returns true with nothing loaded. Version/model mismatch or any
  /// malformation (bad header, bad entry, missing `end` sentinel): the file
  /// is ignored wholesale — the cache stays empty, `*warning` explains why,
  /// and false is returned. Transient read failures are retried up to
  /// kIoAttempts times with exponential backoff before degrading the same
  /// way. Never throws on bad input.
  bool load_file(const std::string& path, std::string* warning = nullptr);

  /// Atomically rewrite `path` (write temp + rename) with every stored
  /// entry in deterministic order (by fingerprint, then budget). Each temp
  /// write/rename attempt passes the `rosa.cache_store` fault point;
  /// transient failures are retried up to kIoAttempts times with
  /// exponential backoff. Returns false with `*warning` set once every
  /// attempt failed.
  bool save_file(const std::string& path, std::string* warning = nullptr) const;

 private:
  /// Everything the one mutex guards: the map, the recency list, the byte
  /// accounting and the counters.
  struct Store;
  std::unique_ptr<Store> store_;
};

}  // namespace pa::rosa
