// The access-control interface ROSA's transition rules evaluate against.
//
// The paper notes that writing ROSA in Maude "allows ROSA to be easily
// enhanced to model new (existing or hypothetical) access controls"; this
// interface is the C++ analogue. The default implementation is Linux DAC +
// capabilities (delegating to os/access.h, the library the SimOS kernel
// also uses); src/privmodels/ provides Solaris-privileges and Capsicum
// implementations for the §X efficacy comparison.
//
// Privilege bits travel in a caps::CapSet, which is just a 64-bit set
// container here: each checker interprets the bits in its own model's
// vocabulary (Linux capabilities, Solaris privileges, Capsicum rights).
#pragma once

#include "caps/credentials.h"
#include "os/access.h"

namespace pa::rosa {

/// Implementations must be stateless (or internally synchronized): one
/// checker instance is shared by every query that names it, and
/// privanalyzerd's workers run their jobs' searches concurrently.
///
/// The credentials contract. A decision may read only uid.real,
/// uid.effective, gid.effective and the supplementary list of the
/// Credentials it is given (and can_kill the victim triple it is passed),
/// never uid.saved, gid.real or gid.saved. The may-reach prover
/// (rosa/prove.h) relies on it: it evaluates each decision on the
/// representatives R_uid x E_uid x E_gid of a process's possible slot
/// values, with its fixed supplementary list, instead of every six-slot
/// credential. The Linux, Solaris and Capsicum checkers keep it, and
/// tests/rosa_prove_test.cpp checks that re-drawing the three unread slots
/// changes none of their decisions.
class AccessChecker {
 public:
  virtual ~AccessChecker() = default;

  /// open(2)-style access to a file.
  virtual bool file_access(const caps::Credentials& creds, caps::CapSet privs,
                           const os::FileMeta& meta,
                           os::AccessKind kind) const = 0;
  /// Search permission on a directory during path lookup.
  virtual bool dir_search(const caps::Credentials& creds, caps::CapSet privs,
                          const os::FileMeta& dir) const = 0;
  virtual bool can_chmod(const caps::Credentials& creds, caps::CapSet privs,
                         const os::FileMeta& meta) const = 0;
  virtual bool can_chown(const caps::Credentials& creds, caps::CapSet privs,
                         const os::FileMeta& meta, int owner,
                         int group) const = 0;
  virtual bool can_unlink(const caps::Credentials& creds, caps::CapSet privs,
                          const os::FileMeta& dir,
                          const os::FileMeta& victim) const = 0;
  virtual bool can_kill(const caps::Credentials& creds, caps::CapSet privs,
                        const caps::IdTriple& victim_uid) const = 0;
  virtual bool can_bind(const caps::Credentials& creds, caps::CapSet privs,
                        int port) const = 0;
  virtual bool can_raw_socket(const caps::Credentials& creds,
                              caps::CapSet privs) const = 0;
  /// Does `privs` authorize unconstrained set*uid (is_uid) / set*gid?
  virtual bool setid_privileged(const caps::Credentials& creds,
                                caps::CapSet privs, bool is_uid) const = 0;
  /// Can the process open files by PATH at all? (Capsicum's capability
  /// mode forbids it; everything else allows it.)
  virtual bool path_lookup_allowed(const caps::Credentials& creds,
                                   caps::CapSet privs) const {
    (void)creds;
    (void)privs;
    return true;
  }

  virtual std::string_view name() const = 0;

  /// Stable identity for the verdict cache (rosa/fingerprint.h). Two
  /// checkers returning the same non-empty key MUST make identical access
  /// decisions for all inputs. The empty default marks an implementation as
  /// uncacheable — queries evaluated against it bypass the cache entirely,
  /// which is always safe.
  virtual std::string_view cache_key() const { return {}; }
};

/// Linux DAC + capabilities — the paper's model and the default.
class LinuxChecker final : public AccessChecker {
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
  std::string_view name() const override { return "linux-capabilities"; }
  std::string_view cache_key() const override { return "linux-capabilities"; }
};

/// The process-wide default checker instance.
const AccessChecker& linux_checker();

}  // namespace pa::rosa
