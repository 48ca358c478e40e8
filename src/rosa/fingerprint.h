// Content-addressed query fingerprints for the ROSA verdict cache.
//
// A query is fingerprinted in two steps. world_digest() hashes, in one
// word-at-a-time pass, everything that shapes the state graph a search
// walks: the canonical initial State plus the user/group pools (which
// canonical() omits but wildcard instantiation consumes), the ordered
// message list, the attacker model, the access checker's identity, and the
// semantics-bearing part of SearchLimits (no_dedup). Queries with equal
// digests differ only in goal and message mask, which is what lets
// rosa::run_queries fuse them into one exploration, so the digest is also
// its grouping key. cell_fingerprint() then hashes the digest with the
// goal's identity and the effective message mask: the question the verdict
// cache answers. Budgets (max_states / max_bytes) are not fingerprinted;
// the cache keys on fingerprint plus budget (rosa/cache.h).
//
// Every digest is salted with kRosaModelVersion; bump it whenever the
// question a fingerprint names changes — the transition rules or the state
// model — so persistent caches written by older builds are invalidated
// wholesale. A change in how answers are searched, or in how an unchanged
// question is hashed, bumps the cache file header instead (rosa/cache.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "rosa/search.h"

namespace pa::rosa {

/// Model-version salt. Bump when the rules or the state model change, i.e.
/// when a fingerprint's question changes; a change in how answers are
/// searched or how questions are hashed bumps the cache file header instead.
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

/// 128-bit digest of the *world* a query explores: kRosaModelVersion, the
/// attacker model, the checker's cache key, no_dedup, initial.canonical(),
/// the user and group pools, and each message's syscall, process, arguments
/// and privileges. Queries with equal digests walk the same state graph and
/// differ only in which messages may fire and what is being looked for,
/// exactly the precondition for fusing them into one exploration. nullopt
/// when the (effective) checker carries no cache key or the limits install
/// a hash_override (a test hook that may perturb exploration order and
/// counters).
std::optional<Fingerprint> world_digest(const Query& query,
                                        const SearchLimits& limits);

/// The fingerprint of `query` posed in the world whose world_digest is
/// `world`: a hash of the digest, the goal's cache key, and the effective
/// message mask (msg_mask restricted to the message list, so bits past it
/// change nothing).
Fingerprint cell_fingerprint(const Fingerprint& world, const Query& query);

/// world_digest, then cell_fingerprint: nullopt when the query is
/// uncacheable (a keyless checker, or a hash_override). Uncacheable
/// queries are always searched directly.
std::optional<Fingerprint> fingerprint_query(const Query& query,
                                             const SearchLimits& limits);

}  // namespace pa::rosa
