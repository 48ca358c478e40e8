// Capsicum capability mode (§X future work #1) — FreeBSD's "practical
// capabilities for UNIX" [Watson et al., USENIX Security '10].
//
// Once a process calls cap_enter(), it loses access to all global
// namespaces: no path lookups, no signalling arbitrary pids, no identity
// changes. Authority flows only through capabilities — file descriptors
// carrying fine-grained rights — so ROSA messages' privilege bits are
// interpreted as the rights the attacker-controlled process holds on its
// already-open descriptors.
//
// Under this model every Table I attack needs a pre-existing descriptor
// with the right rights; an attacker cannot conjure /dev/mem out of a
// pathname, which is the comparison §X asks for.
#pragma once

#include <optional>
#include <string_view>

#include "rosa/checker.h"

namespace pa::privmodels {

/// Rights on capabilities (file descriptors). A small subset of the ~80
/// CAP_* rights FreeBSD defines — enough for the modeled attacks.
enum class CapsicumRight : std::uint8_t {
  Read = 0,    // CAP_READ
  Write = 1,   // CAP_WRITE
  Fchmod = 2,  // CAP_FCHMOD
  Fchown = 3,  // CAP_FCHOWN
  Bind = 4,    // CAP_BIND
  Connect = 5, // CAP_CONNECT
  PdKill = 6,  // CAP_PDKILL (kill via a process descriptor)
};

inline constexpr int kNumCapsicumRights = 7;

std::string_view capsicum_right_name(CapsicumRight r);

using RightSet = caps::CapSet;  // bit i = CapsicumRight(i)

RightSet rights(std::initializer_list<CapsicumRight> rs);
bool has_right(RightSet set, CapsicumRight r);
std::string rights_to_string(RightSet set);

/// AccessChecker for a process running inside capability mode. Privilege
/// bits in messages are CapsicumRight indices. Operations that dereference
/// a global namespace (paths, pids, identities) are denied outright;
/// fd-based operations succeed iff the corresponding right is held
/// (descriptor possession is modelled by ROSA's rdfset/wrfset as usual).
class CapsicumChecker final : public rosa::AccessChecker {
 public:
  bool file_access(const caps::Credentials& creds, caps::CapSet privs,
                   const os::FileMeta& meta,
                   os::AccessKind kind) const override;
  bool dir_search(const caps::Credentials& creds, caps::CapSet privs,
                  const os::FileMeta& dir) const override;
  bool can_chmod(const caps::Credentials& creds, caps::CapSet privs,
                 const os::FileMeta& meta) const override;
  bool can_chown(const caps::Credentials& creds, caps::CapSet privs,
                 const os::FileMeta& meta, int owner, int group) const override;
  bool can_unlink(const caps::Credentials& creds, caps::CapSet privs,
                  const os::FileMeta& dir,
                  const os::FileMeta& victim) const override;
  bool can_kill(const caps::Credentials& creds, caps::CapSet privs,
                const caps::IdTriple& victim_uid) const override;
  bool can_bind(const caps::Credentials& creds, caps::CapSet privs,
                int port) const override;
  bool can_raw_socket(const caps::Credentials& creds,
                      caps::CapSet privs) const override;
  bool setid_privileged(const caps::Credentials& creds, caps::CapSet privs,
                        bool is_uid) const override;
  bool path_lookup_allowed(const caps::Credentials& creds,
                           caps::CapSet privs) const override;
  std::string_view name() const override { return "capsicum"; }
  std::string_view cache_key() const override { return "capsicum"; }
};

const CapsicumChecker& capsicum_checker();

}  // namespace pa::privmodels
