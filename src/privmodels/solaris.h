// Solaris fine-grained privileges (§X future work #1: "PrivAnalyzer could
// model Solaris privileges ... and investigate whether they can provide
// greater protection than Linux privileges").
//
// The interesting structural difference from Linux capabilities: Solaris
// splits several of Linux's coarse powers. CAP_DAC_OVERRIDE (read+write+
// search on anything) becomes the three separate privileges FILE_DAC_READ,
// FILE_DAC_WRITE, and FILE_DAC_SEARCH, so a program that needs to *read*
// protected files never gains the ability to *write* them — which directly
// changes Table III-style verdicts (write-/dev/mem becomes infeasible for a
// getspnam-style reader).
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "rosa/checker.h"

namespace pa::privmodels {

/// Subset of privileges(5) relevant to the modeled attacks.
enum class SolarisPriv : std::uint8_t {
  FileDacRead = 0,    // read any file regardless of permission bits
  FileDacWrite = 1,   // write any file
  FileDacSearch = 2,  // search any directory
  FileChown = 3,      // change file ownership arbitrarily
  FileChownSelf = 4,  // give away files the process owns
  FileOwner = 5,      // act as the owner of any file (chmod etc.)
  FileSetid = 6,      // set setuid/setgid bits
  ProcSetid = 7,      // change process uids/gids arbitrarily
  ProcOwner = 8,      // act as owner of other processes (signals etc.)
  ProcSession = 9,    // signal processes in other sessions
  NetPrivaddr = 10,   // bind privileged ports
  NetRawaccess = 11,  // raw sockets
  ProcChroot = 12,    // chroot
  SysMount = 13,      // mount/umount (unused by the attacks; completeness)
};

inline constexpr int kNumSolarisPrivs = 14;

std::string_view solaris_priv_name(SolarisPriv p);
std::optional<SolarisPriv> parse_solaris_priv(std::string_view name);

/// Solaris privilege sets travel in the same 64-bit container the rules
/// use, with bit i = SolarisPriv(i).
using SolarisSet = caps::CapSet;

SolarisSet solaris_set(std::initializer_list<SolarisPriv> privs);
bool solaris_has(SolarisSet set, SolarisPriv p);
std::string solaris_to_string(SolarisSet set);

/// Translate a Linux capability set into the Solaris privileges granting
/// the same power (the coarse translation a naive port would use).
SolarisSet from_linux(caps::CapSet linux_caps);

/// Translate, then drop the parts of each coarse Linux capability that the
/// program demonstrably does not need — the "least Solaris privilege"
/// configuration used to quantify what the finer granularity buys:
///   CAP_DAC_OVERRIDE held only for writing  -> FILE_DAC_WRITE+SEARCH
///   CAP_DAC_READ_SEARCH                     -> FILE_DAC_READ+SEARCH (same)
struct SolarisNeeds {
  bool dac_override_needs_read = true;  // does the program read via override?
};
SolarisSet from_linux_minimized(caps::CapSet linux_caps, SolarisNeeds needs);

/// AccessChecker implementing Solaris DAC + privileges. Privilege bits in
/// messages are SolarisPriv indices.
class SolarisChecker final : public rosa::AccessChecker {
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
  std::string_view name() const override { return "solaris-privileges"; }
  std::string_view cache_key() const override { return "solaris-privileges"; }
};

const SolarisChecker& solaris_checker();

}  // namespace pa::privmodels
