// Linux capability model: the `Capability` enumeration (the full Linux set as
// of capabilities(7)) and `CapSet`, a value-type bitset over capabilities.
//
// Names follow the paper's rendering (CamelCase, e.g. "CapDacOverride") for
// reports, but the canonical kernel spellings ("CAP_DAC_OVERRIDE") parse too.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pa::caps {

/// One Linux capability. Numeric values match include/uapi/linux/capability.h.
enum class Capability : std::uint8_t {
  Chown = 0,
  DacOverride = 1,
  DacReadSearch = 2,
  Fowner = 3,
  Fsetid = 4,
  Kill = 5,
  Setgid = 6,
  Setuid = 7,
  Setpcap = 8,
  LinuxImmutable = 9,
  NetBindService = 10,
  NetBroadcast = 11,
  NetAdmin = 12,
  NetRaw = 13,
  IpcLock = 14,
  IpcOwner = 15,
  SysModule = 16,
  SysRawio = 17,
  SysChroot = 18,
  SysPtrace = 19,
  SysPacct = 20,
  SysAdmin = 21,
  SysBoot = 22,
  SysNice = 23,
  SysResource = 24,
  SysTime = 25,
  SysTtyConfig = 26,
  Mknod = 27,
  Lease = 28,
  AuditWrite = 29,
  AuditControl = 30,
  Setfcap = 31,
  MacOverride = 32,
  MacAdmin = 33,
  Syslog = 34,
  WakeAlarm = 35,
  BlockSuspend = 36,
  AuditRead = 37,
};

inline constexpr int kNumCapabilities = 38;

/// Paper-style CamelCase name, e.g. "CapSetuid".
std::string_view name(Capability c);

/// Kernel-style name, e.g. "CAP_SETUID".
std::string_view kernel_name(Capability c);

/// Parse either spelling; nullopt on unknown name.
std::optional<Capability> parse_capability(std::string_view s);

/// An immutable-semantics value type holding a set of capabilities.
class CapSet {
 public:
  constexpr CapSet() = default;
  constexpr CapSet(std::initializer_list<Capability> caps) {
    for (Capability c : caps) bits_ |= bit(c);
  }

  /// The set of every capability Linux defines (root's traditional power).
  static CapSet full();
  /// Parse "CapSetuid,CapChown" / "CAP_SETUID,CAP_CHOWN" / "(empty)" / "empty".
  static std::optional<CapSet> parse(std::string_view s);

  constexpr bool contains(Capability c) const { return bits_ & bit(c); }
  constexpr bool empty() const { return bits_ == 0; }
  int size() const;

  constexpr CapSet with(Capability c) const { return CapSet(bits_ | bit(c)); }
  constexpr CapSet without(Capability c) const {
    return CapSet(bits_ & ~bit(c));
  }

  constexpr CapSet operator|(CapSet o) const { return CapSet(bits_ | o.bits_); }
  constexpr CapSet operator&(CapSet o) const { return CapSet(bits_ & o.bits_); }
  /// Set difference.
  constexpr CapSet operator-(CapSet o) const {
    return CapSet(bits_ & ~o.bits_);
  }
  CapSet& operator|=(CapSet o) { bits_ |= o.bits_; return *this; }
  CapSet& operator&=(CapSet o) { bits_ &= o.bits_; return *this; }
  CapSet& operator-=(CapSet o) { bits_ &= ~o.bits_; return *this; }

  constexpr bool subset_of(CapSet o) const { return (bits_ & ~o.bits_) == 0; }
  constexpr bool operator==(const CapSet&) const = default;

  /// Members in numeric order.
  std::vector<Capability> members() const;

  /// "CapSetuid,CapChown" (numeric order) or "(empty)".
  std::string to_string() const;
  /// Append to_string()'s text to `out`.
  void append_to(std::string& out) const;

  constexpr std::uint64_t raw() const { return bits_; }
  static constexpr CapSet from_raw(std::uint64_t bits) { return CapSet(bits); }

 private:
  explicit constexpr CapSet(std::uint64_t bits) : bits_(bits) {}
  static constexpr std::uint64_t bit(Capability c) {
    return std::uint64_t{1} << static_cast<int>(c);
  }
  std::uint64_t bits_ = 0;
};

}  // namespace pa::caps
