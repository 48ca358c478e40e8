// Process credentials: real/effective/saved user and group IDs plus the
// supplementary group list, with the credential-changing rules Linux applies
// in setuid(2), setresuid(2), etc. (and their gid counterparts).
#pragma once

#include <string>
#include <vector>

#include "caps/capability.h"

namespace pa::caps {

using Uid = int;
using Gid = int;

inline constexpr Uid kRootUid = 0;
inline constexpr Gid kRootGid = 0;
/// Wildcard marker used by ROSA for unconstrained uid/gid syscall arguments.
inline constexpr int kWildcardId = -1;

/// A (real, effective, saved) id triple.
struct IdTriple {
  int real = 0;
  int effective = 0;
  int saved = 0;

  bool operator==(const IdTriple&) const = default;
  auto operator<=>(const IdTriple&) const = default;

  /// True if `id` equals any of the three ids.
  bool matches(int id) const {
    return id == real || id == effective || id == saved;
  }

  /// "1000,1000,1000" in the paper's (real, effective, saved) column order.
  std::string to_string() const;
  /// Append to_string()'s text to `out`.
  void append_to(std::string& out) const;
};

/// Full credential state of a process.
struct Credentials {
  IdTriple uid;
  IdTriple gid;
  std::vector<Gid> supplementary;  // kept sorted & deduplicated

  static Credentials of_user(Uid u, Gid g) {
    return Credentials{{u, u, u}, {g, g, g}, {}};
  }

  bool operator==(const Credentials&) const = default;
  auto operator<=>(const Credentials&) const = default;

  /// True if gid `g` is the effective gid or in the supplementary list.
  bool in_group(Gid g) const;

  void set_supplementary(std::vector<Gid> groups);

  /// "uid=1000,1000,1000 gid=1000,1000,1000", then " groups=4,27" when
  /// there are supplementary groups.
  std::string to_string() const;
  /// Append to_string()'s text to `out`.
  void append_to(std::string& out) const;
};

/// Result of applying a credential-changing syscall.
enum class CredChange { Ok, Eperm, Einval };

// The setter rules below implement the Linux man-page semantics. Each takes
// `privileged` = "caller has CAP_SETUID (resp. CAP_SETGID) in its effective
// set" and mutates `t` only on success.

/// setuid(2): privileged callers set all three ids; unprivileged callers may
/// set the effective id to the real or saved id.
CredChange apply_setuid(IdTriple& t, int id, bool privileged);

/// seteuid(2)/setegid(2): set effective id; unprivileged only to real/saved.
CredChange apply_seteuid(IdTriple& t, int id, bool privileged);

/// setresuid(2)/setresgid(2): -1 keeps a field; unprivileged callers may set
/// each field only to one of the three current ids.
CredChange apply_setresuid(IdTriple& t, int r, int e, int s, bool privileged);

/// setgroups(2): requires privilege (CAP_SETGID).
CredChange apply_setgroups(Credentials& c, std::vector<Gid> groups,
                           bool privileged);

}  // namespace pa::caps
