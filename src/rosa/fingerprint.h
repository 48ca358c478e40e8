// Content-addressed query fingerprints for the ROSA verdict cache.
//
// A fingerprint is a 128-bit hash over exactly the semantic inputs of a
// bounded search: the canonical initial State (plus the user/group pools,
// which canonical() omits but wildcard instantiation consumes), the ordered
// message list, the attacker model, the goal and access-checker identities,
// and the semantics-bearing part of SearchLimits (no_dedup). Budgets
// (max_states / max_bytes / escalation) are not fingerprinted; the cache
// keys on fingerprint plus budget (rosa/cache.h).
//
// Every fingerprint is salted with kRosaModelVersion; bump it whenever the
// transition rules, state model, or search semantics change so persistent
// caches written by older builds are invalidated wholesale.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "rosa/search.h"

namespace pa::rosa {

/// Model-version salt. Bump on ANY change to rules/state/search semantics.
inline constexpr std::string_view kRosaModelVersion = "rosa-model-v1";

struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  /// (hi, lo) order, which is to_hex() order.
  auto operator<=>(const Fingerprint&) const = default;

  /// 32 lowercase hex digits (hi then lo) — the persistent-cache key format.
  std::string to_hex() const;
  /// Inverse of to_hex(); nullopt unless exactly 32 hex digits.
  static std::optional<Fingerprint> from_hex(std::string_view hex);
};

/// For unordered_map keying. The fingerprint is already uniformly
/// distributed, so folding the lanes is enough.
struct FingerprintHash {
  std::size_t operator()(const Fingerprint& f) const noexcept {
    return static_cast<std::size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ull));
  }
};

/// Fingerprint a query, or nullopt when it is uncacheable: the goal carries
/// no cache key, the (effective) checker carries no cache key, or the limits
/// install a hash_override (a test hook that may perturb exploration order
/// and counters). Uncacheable queries are always searched directly.
std::optional<Fingerprint> fingerprint_query(const Query& query,
                                             const SearchLimits& limits);

/// Fingerprint of the *world* a query explores: every fingerprint_query
/// ingredient except the goal identity and the message mask. Queries with
/// equal world signatures walk the same state graph (same initial state,
/// pools, messages, attacker, checker, no_dedup), differing
/// only in which messages may fire and what is being looked for — exactly
/// the precondition for fusing them into one exploration. Unlike
/// fingerprint_query this does not require a goal cache key (the goal is
/// not hashed), but still returns nullopt when the checker has no cache key
/// or a hash_override is installed.
std::optional<Fingerprint> world_signature(const Query& query,
                                           const SearchLimits& limits);

}  // namespace pa::rosa
