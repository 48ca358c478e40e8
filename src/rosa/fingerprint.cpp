#include "rosa/fingerprint.h"

#include "rosa/checker.h"

namespace pa::rosa {
namespace {

/// Two 64-bit lanes fed one 8-byte word at a time. Each lane folds the word
/// in (one by xor, the other by addition, from different seeds) and runs
/// the splitmix64 finalizer, so every word is fully avalanched into both
/// lanes, and inputs that collide in one lane still differ in the other
/// except by accident. Not cryptographic: the threat model is accidental
/// collision across a corpus of queries, where 2^-128 birthday odds are
/// beyond negligible.
class WordHasher {
 public:
  void word(std::uint64_t w) {
    lo_ = mix64(lo_ ^ w);
    hi_ = mix64(hi_ + w);
  }
  void i64(long long v) { word(static_cast<std::uint64_t>(v)); }
  /// Length-prefixed so adjacent strings cannot alias ("ab","c" vs
  /// "a","bc"). Bytes are packed into words little-endian whatever the
  /// host's byte order, so persistent cache keys are portable.
  void str(std::string_view s) {
    word(s.size());
    std::size_t i = 0;
    for (; i + 8 <= s.size(); i += 8) word(le_word(s.data() + i, 8));
    if (i < s.size()) word(le_word(s.data() + i, s.size() - i));
  }

  Fingerprint digest() const { return Fingerprint{hi_, lo_}; }

 private:
  static std::uint64_t le_word(const char* p, std::size_t n) {
    std::uint64_t w = 0;
    for (std::size_t k = 0; k < n; ++k)
      w |= std::uint64_t{static_cast<unsigned char>(p[k])} << (8 * k);
    return w;
  }

  std::uint64_t lo_ = 0x6a09e667f3bcc908ull;
  std::uint64_t hi_ = 0xbb67ae8584caa73bull;
};

}  // namespace

std::string Fingerprint::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[15 - i] = kDigits[(hi >> (i * 4)) & 0xf];
    out[31 - i] = kDigits[(lo >> (i * 4)) & 0xf];
  }
  return out;
}

std::optional<Fingerprint> Fingerprint::from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Fingerprint f;
  for (int i = 0; i < 16; ++i) {
    const int h = nibble(hex[i]);
    const int l = nibble(hex[16 + i]);
    if (h < 0 || l < 0) return std::nullopt;
    f.hi = (f.hi << 4) | static_cast<std::uint64_t>(h);
    f.lo = (f.lo << 4) | static_cast<std::uint64_t>(l);
  }
  return f;
}

std::optional<Fingerprint> world_digest(const Query& query,
                                        const SearchLimits& limits) {
  const AccessChecker& checker =
      query.checker ? *query.checker : linux_checker();
  if (checker.cache_key().empty()) return std::nullopt;
  if (limits.hash_override) return std::nullopt;

  WordHasher h;
  h.str(kRosaModelVersion);
  h.word(static_cast<std::uint64_t>(query.attacker));
  h.str(checker.cache_key());
  h.word(limits.no_dedup ? 1 : 0);

  // canonical() covers every search-mutable field; the user/group pools are
  // deliberately excluded from it (immutable during one search) but DO
  // shape the search — wildcard set*id arguments range over them — so they
  // are mixed in explicitly here.
  h.str(query.initial.canonical());
  h.word(query.initial.users().size());
  for (int u : query.initial.users()) h.i64(u);
  h.word(query.initial.groups().size());
  for (int g : query.initial.groups()) h.i64(g);

  h.word(query.messages.size());
  for (const Message& m : query.messages) {
    h.word(static_cast<std::uint64_t>(m.sys));
    h.i64(m.proc);
    h.word(m.args.size());
    for (int a : m.args) h.i64(a);
    h.word(m.privs.raw());
  }
  return h.digest();
}

Fingerprint cell_fingerprint(const Fingerprint& world, const Query& query) {
  // The message mask selects which messages may fire, so it is as
  // semantics-bearing as the message list itself; bits past the list
  // select nothing.
  const std::uint64_t full_mask =
      query.messages.size() >= 64
          ? ~std::uint64_t{0}
          : (std::uint64_t{1} << query.messages.size()) - 1;
  WordHasher h;
  h.word(world.hi);
  h.word(world.lo);
  h.str(query.goal.cache_key());
  h.word(query.msg_mask & full_mask);
  return h.digest();
}

std::optional<Fingerprint> fingerprint_query(const Query& query,
                                             const SearchLimits& limits) {
  const std::optional<Fingerprint> world = world_digest(query, limits);
  if (!world) return std::nullopt;
  return cell_fingerprint(*world, query);
}

}  // namespace pa::rosa
