#include "caps/capability.h"

#include <array>
#include <bit>

#include "support/error.h"
#include "support/str.h"

namespace pa::caps {
namespace {

struct Names {
  std::string_view camel;
  std::string_view kernel;
};

constexpr std::array<Names, kNumCapabilities> kNames = {{
    {"CapChown", "CAP_CHOWN"},
    {"CapDacOverride", "CAP_DAC_OVERRIDE"},
    {"CapDacReadSearch", "CAP_DAC_READ_SEARCH"},
    {"CapFowner", "CAP_FOWNER"},
    {"CapFsetid", "CAP_FSETID"},
    {"CapKill", "CAP_KILL"},
    {"CapSetgid", "CAP_SETGID"},
    {"CapSetuid", "CAP_SETUID"},
    {"CapSetpcap", "CAP_SETPCAP"},
    {"CapLinuxImmutable", "CAP_LINUX_IMMUTABLE"},
    {"CapNetBindService", "CAP_NET_BIND_SERVICE"},
    {"CapNetBroadcast", "CAP_NET_BROADCAST"},
    {"CapNetAdmin", "CAP_NET_ADMIN"},
    {"CapNetRaw", "CAP_NET_RAW"},
    {"CapIpcLock", "CAP_IPC_LOCK"},
    {"CapIpcOwner", "CAP_IPC_OWNER"},
    {"CapSysModule", "CAP_SYS_MODULE"},
    {"CapSysRawio", "CAP_SYS_RAWIO"},
    {"CapSysChroot", "CAP_SYS_CHROOT"},
    {"CapSysPtrace", "CAP_SYS_PTRACE"},
    {"CapSysPacct", "CAP_SYS_PACCT"},
    {"CapSysAdmin", "CAP_SYS_ADMIN"},
    {"CapSysBoot", "CAP_SYS_BOOT"},
    {"CapSysNice", "CAP_SYS_NICE"},
    {"CapSysResource", "CAP_SYS_RESOURCE"},
    {"CapSysTime", "CAP_SYS_TIME"},
    {"CapSysTtyConfig", "CAP_SYS_TTY_CONFIG"},
    {"CapMknod", "CAP_MKNOD"},
    {"CapLease", "CAP_LEASE"},
    {"CapAuditWrite", "CAP_AUDIT_WRITE"},
    {"CapAuditControl", "CAP_AUDIT_CONTROL"},
    {"CapSetfcap", "CAP_SETFCAP"},
    {"CapMacOverride", "CAP_MAC_OVERRIDE"},
    {"CapMacAdmin", "CAP_MAC_ADMIN"},
    {"CapSyslog", "CAP_SYSLOG"},
    {"CapWakeAlarm", "CAP_WAKE_ALARM"},
    {"CapBlockSuspend", "CAP_BLOCK_SUSPEND"},
    {"CapAuditRead", "CAP_AUDIT_READ"},
}};

}  // namespace

std::string_view name(Capability c) {
  int i = static_cast<int>(c);
  PA_CHECK(i >= 0 && i < kNumCapabilities, "capability out of range");
  return kNames[static_cast<std::size_t>(i)].camel;
}

std::string_view kernel_name(Capability c) {
  int i = static_cast<int>(c);
  PA_CHECK(i >= 0 && i < kNumCapabilities, "capability out of range");
  return kNames[static_cast<std::size_t>(i)].kernel;
}

std::optional<Capability> parse_capability(std::string_view s) {
  for (int i = 0; i < kNumCapabilities; ++i) {
    const auto& n = kNames[static_cast<std::size_t>(i)];
    if (s == n.camel || s == n.kernel) return static_cast<Capability>(i);
  }
  return std::nullopt;
}

CapSet CapSet::full() {
  std::uint64_t bits = (std::uint64_t{1} << kNumCapabilities) - 1;
  return CapSet(bits);
}

std::optional<CapSet> CapSet::parse(std::string_view s) {
  s = str::trim(s);
  if (s.empty() || s == "empty" || s == "(empty)") return CapSet{};
  CapSet out;
  for (const std::string& field : str::split(s, ',')) {
    auto cap = parse_capability(str::trim(field));
    if (!cap) return std::nullopt;
    out = out.with(*cap);
  }
  return out;
}

int CapSet::size() const {
  int n = 0;
  for (std::uint64_t b = bits_; b; b &= b - 1) ++n;
  return n;
}

std::vector<Capability> CapSet::members() const {
  std::vector<Capability> out;
  for (int i = 0; i < kNumCapabilities; ++i) {
    auto c = static_cast<Capability>(i);
    if (contains(c)) out.push_back(c);
  }
  return out;
}

std::string CapSet::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void CapSet::append_to(std::string& out) const {
  if (empty()) {
    out += "(empty)";
    return;
  }
  // Bits past the last capability name nothing, as in members().
  const std::size_t start = out.size();
  for (std::uint64_t b = bits_ & ((std::uint64_t{1} << kNumCapabilities) - 1);
       b; b &= b - 1) {
    if (out.size() != start) out.push_back(',');
    out += name(static_cast<Capability>(std::countr_zero(b)));
  }
}

}  // namespace pa::caps
