// Unit + parameterized tests for the shared access-decision library
// (os/access.h): Linux DAC plus every capability override PrivAnalyzer
// models. These functions are the single source of truth for both the SimOS
// kernel and ROSA's rules, so their fidelity matters doubly.
#include <gtest/gtest.h>

#include <iomanip>
#include <ostream>

#include "os/access.h"

namespace pa::os {
namespace {

using caps::Capability;
using caps::Credentials;

Actor user(int uid, int gid, caps::CapSet eff = {}) {
  return Actor{Credentials::of_user(uid, gid), eff};
}

const FileMeta kDevMem{0, 15, Mode(0640)};      // root:kmem
const FileMeta kShadow{0, 42, Mode(0640)};      // root:shadow
const FileMeta kPublic{0, 0, Mode(0644)};
const FileMeta kDir755{0, 0, Mode(0755)};

TEST(ModeTest, SymbolicRoundTrip) {
  for (const char* s : {"rwxrwxrwx", "rw-r-----", "---------", "rwxr-x--x"}) {
    auto m = Mode::parse(s);
    ASSERT_TRUE(m.has_value()) << s;
    EXPECT_EQ(m->to_string(), s);
  }
}

TEST(ModeTest, OctalParse) {
  EXPECT_EQ(Mode::parse("0640")->to_string(), "rw-r-----");
  EXPECT_EQ(Mode::parse("0755")->to_string(), "rwxr-xr-x");
  EXPECT_EQ(Mode::parse("04755")->to_string(), "rwsr-xr-x");
  EXPECT_FALSE(Mode::parse("0999").has_value());
  EXPECT_FALSE(Mode::parse("banana").has_value());
}

TEST(ModeTest, SpecialBits) {
  auto m = Mode::parse("rwsr-S--T");
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->has(Mode::kSetuid));
  EXPECT_TRUE(m->has(Mode::kSetgid));
  EXPECT_TRUE(m->has(Mode::kSticky));
  EXPECT_TRUE(m->has(Mode::kUserX));
  EXPECT_FALSE(m->has(Mode::kGroupX));
  EXPECT_FALSE(m->has(Mode::kOtherX));
  EXPECT_EQ(m->to_string(), "rwsr-S--T");
}

TEST(DacTest, OwnerClassWins) {
  // Owner's bits apply even when MORE restrictive than group/other.
  FileMeta meta{1000, 1000, Mode(0077)};
  EXPECT_FALSE(dac_allows(Credentials::of_user(1000, 1000), meta,
                          AccessKind::Read));
  EXPECT_TRUE(dac_allows(Credentials::of_user(2000, 1000), meta,
                         AccessKind::Read));
}

TEST(DacTest, GroupClassViaSupplementary) {
  FileMeta meta{0, 15, Mode(0640)};
  Credentials c = Credentials::of_user(1000, 1000);
  EXPECT_FALSE(dac_allows(c, meta, AccessKind::Read));
  c.set_supplementary({15});
  EXPECT_TRUE(dac_allows(c, meta, AccessKind::Read));
  EXPECT_FALSE(dac_allows(c, meta, AccessKind::Write));
}

TEST(AccessTest, DevMemBaseline) {
  EXPECT_TRUE(may_access(user(0, 0), kDevMem, AccessKind::Read));
  EXPECT_TRUE(may_access(user(0, 0), kDevMem, AccessKind::Write));
  EXPECT_FALSE(may_access(user(1000, 1000), kDevMem, AccessKind::Read));
  EXPECT_FALSE(may_access(user(1000, 1000), kDevMem, AccessKind::Write));
}

TEST(AccessTest, KmemGroupReadsButCannotWrite) {
  EXPECT_TRUE(may_access(user(1000, 15), kDevMem, AccessKind::Read));
  EXPECT_FALSE(may_access(user(1000, 15), kDevMem, AccessKind::Write));
}

TEST(AccessTest, DacOverrideGrantsReadAndWrite) {
  auto a = user(1000, 1000, {Capability::DacOverride});
  EXPECT_TRUE(may_access(a, kDevMem, AccessKind::Read));
  EXPECT_TRUE(may_access(a, kDevMem, AccessKind::Write));
}

TEST(AccessTest, DacReadSearchGrantsReadOnly) {
  auto a = user(1000, 1000, {Capability::DacReadSearch});
  EXPECT_TRUE(may_access(a, kDevMem, AccessKind::Read));
  EXPECT_FALSE(may_access(a, kDevMem, AccessKind::Write));
}

TEST(AccessTest, DacOverrideExecuteNeedsSomeXBit) {
  auto a = user(1000, 1000, {Capability::DacOverride});
  EXPECT_FALSE(may_access(a, FileMeta{0, 0, Mode(0644)}, AccessKind::Execute));
  EXPECT_TRUE(may_access(a, FileMeta{0, 0, Mode(0700)}, AccessKind::Execute));
}

TEST(AccessTest, SearchPermission) {
  FileMeta closed_dir{0, 0, Mode(0700)};
  EXPECT_FALSE(may_search(user(1000, 1000), closed_dir));
  EXPECT_TRUE(may_search(user(0, 0), closed_dir));
  EXPECT_TRUE(may_search(user(1000, 1000, {Capability::DacReadSearch}),
                         closed_dir));
  EXPECT_TRUE(may_search(user(1000, 1000, {Capability::DacOverride}),
                         closed_dir));
}

TEST(ChmodTest, OwnerOrFowner) {
  FileMeta mine{1000, 1000, Mode(0600)};
  EXPECT_TRUE(may_chmod(user(1000, 1000), mine));
  EXPECT_FALSE(may_chmod(user(2000, 1000), mine));
  EXPECT_TRUE(may_chmod(user(2000, 1000, {Capability::Fowner}), mine));
}

TEST(ChownTest, CapChownAllowsAnything) {
  auto a = user(1000, 1000, {Capability::Chown});
  EXPECT_TRUE(may_chown(a, kShadow, 1000, 1000));
  EXPECT_TRUE(may_chown(a, kShadow, caps::kWildcardId, 999));
}

TEST(ChownTest, OwnerMayChangeGroupToOwnGroups) {
  FileMeta mine{1000, 1000, Mode(0644)};
  Actor a = user(1000, 1000);
  EXPECT_TRUE(may_chown(a, mine, caps::kWildcardId, 1000));
  EXPECT_FALSE(may_chown(a, mine, caps::kWildcardId, 15));
  a.creds.set_supplementary({15});
  EXPECT_TRUE(may_chown(a, mine, caps::kWildcardId, 15));
  // Changing the owner is never allowed without CAP_CHOWN.
  EXPECT_FALSE(may_chown(a, mine, 2000, caps::kWildcardId));
}

TEST(ChownTest, NonOwnerWithoutCapDenied) {
  EXPECT_FALSE(may_chown(user(1000, 1000), kShadow, 1000, 1000));
}

TEST(UnlinkTest, NeedsWriteAndSearchOnDirectory) {
  FileMeta victim{0, 0, Mode(0644)};
  EXPECT_FALSE(may_unlink(user(1000, 1000), kDir755, victim));
  EXPECT_TRUE(may_unlink(user(0, 0), kDir755, victim));
  EXPECT_TRUE(may_unlink(user(1000, 1000, {Capability::DacOverride}),
                         kDir755, victim));
}

TEST(UnlinkTest, StickyDirectoryProtectsOtherUsersFiles) {
  FileMeta tmp{0, 0, Mode(01777)};  // /tmp
  FileMeta theirs{2000, 2000, Mode(0644)};
  FileMeta mine{1000, 1000, Mode(0644)};
  EXPECT_TRUE(may_unlink(user(1000, 1000), tmp, mine));
  EXPECT_FALSE(may_unlink(user(1000, 1000), tmp, theirs));
  EXPECT_TRUE(may_unlink(user(1000, 1000, {Capability::Fowner}), tmp, theirs));
  EXPECT_TRUE(may_unlink(user(0, 0), tmp, theirs));  // dir owner (root)
}

TEST(BindTest, PrivilegedPortsNeedCapability) {
  EXPECT_FALSE(may_bind_port(user(1000, 1000), 22));
  EXPECT_FALSE(may_bind_port(user(1000, 1000), 1023));
  EXPECT_TRUE(may_bind_port(user(1000, 1000), 1024));
  EXPECT_TRUE(may_bind_port(user(1000, 1000), 8080));
  auto a = user(1000, 1000, {Capability::NetBindService});
  EXPECT_TRUE(may_bind_port(a, 22));
  EXPECT_FALSE(may_bind_port(a, -1));
  EXPECT_FALSE(may_bind_port(a, 65536));
}

TEST(KillTest, CapKillOrUidMatch) {
  caps::IdTriple victim{109, 109, 109};
  EXPECT_FALSE(may_kill(user(1000, 1000), victim));
  EXPECT_TRUE(may_kill(user(1000, 1000, {Capability::Kill}), victim));
  EXPECT_TRUE(may_kill(user(109, 109), victim));
  // Sender's REAL uid matching also suffices.
  Actor a{Credentials{{109, 5000, 5000}, {1000, 1000, 1000}, {}}, {}};
  EXPECT_TRUE(may_kill(a, victim));
  // Matching only the victim's EFFECTIVE uid does not (Linux checks the
  // target's real and saved ids).
  caps::IdTriple odd{200, 109, 200};
  Actor b{Credentials::of_user(109, 109), {}};
  EXPECT_FALSE(may_kill(b, odd));
}

TEST(NetTest, RawSocketAndSockopt) {
  EXPECT_FALSE(may_create_raw_socket(user(1000, 1000)));
  EXPECT_TRUE(may_create_raw_socket(user(1000, 1000, {Capability::NetRaw})));
  EXPECT_FALSE(may_setsockopt_admin(user(1000, 1000)));
  EXPECT_TRUE(
      may_setsockopt_admin(user(1000, 1000, {Capability::NetAdmin})));
}

TEST(ChrootTest, NeedsSysChroot) {
  EXPECT_FALSE(may_chroot(user(0, 0)));  // even root (caps-only model)
  EXPECT_TRUE(may_chroot(user(1000, 1000, {Capability::SysChroot})));
}

// Parameterized sweep: for every capability OTHER than the DAC overrides,
// holding it must NOT grant access to /dev/mem — capabilities are separable
// powers, the premise of the whole paper.
class NonDacCapSweep : public ::testing::TestWithParam<int> {};

TEST_P(NonDacCapSweep, DoesNotOpenDevMem) {
  auto c = static_cast<Capability>(GetParam());
  if (c == Capability::DacOverride || c == Capability::DacReadSearch)
    GTEST_SKIP();
  auto a = user(1000, 1000, caps::CapSet{c});
  EXPECT_FALSE(may_access(a, kDevMem, AccessKind::Read))
      << caps::name(c) << " unexpectedly grants read";
  EXPECT_FALSE(may_access(a, kDevMem, AccessKind::Write))
      << caps::name(c) << " unexpectedly grants write";
}

INSTANTIATE_TEST_SUITE_P(AllCapabilities, NonDacCapSweep,
                         ::testing::Range(0, caps::kNumCapabilities));

// Parameterized sweep over every (mode, class) combination: dac_allows must
// consult exactly one permission class.
struct DacCase {
  int uid, gid;
  std::uint16_t mode;
  AccessKind kind;
  bool expect;
};

// Names each case by its fields (e.g. uid2000_gid100_mode0040_read_allow).
// gtest's default prints the struct's raw bytes, padding included, so the
// test names would differ from build to build.
void PrintTo(const DacCase& c, std::ostream* os) {
  static constexpr const char* kKinds[] = {"read", "write", "execute"};
  *os << "uid" << c.uid << "_gid" << c.gid << "_mode" << std::oct
      << std::setfill('0') << std::setw(4) << c.mode << std::dec << '_'
      << kKinds[static_cast<int>(c.kind)] << (c.expect ? "_allow" : "_deny");
}

class DacMatrix : public ::testing::TestWithParam<DacCase> {};

TEST_P(DacMatrix, Decision) {
  const DacCase& c = GetParam();
  FileMeta meta{1000, 100, Mode(c.mode)};
  EXPECT_EQ(dac_allows(Credentials::of_user(c.uid, c.gid), meta, c.kind),
            c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DacMatrix,
    ::testing::Values(
        DacCase{1000, 100, 0400, AccessKind::Read, true},
        DacCase{1000, 100, 0040, AccessKind::Read, false},  // owner class
        DacCase{2000, 100, 0040, AccessKind::Read, true},
        DacCase{2000, 100, 0004, AccessKind::Read, false},  // group class
        DacCase{2000, 200, 0004, AccessKind::Read, true},
        DacCase{2000, 200, 0440, AccessKind::Read, false},  // other class
        DacCase{1000, 100, 0200, AccessKind::Write, true},
        DacCase{2000, 100, 0020, AccessKind::Write, true},
        DacCase{2000, 200, 0002, AccessKind::Write, true},
        DacCase{1000, 100, 0100, AccessKind::Execute, true},
        DacCase{2000, 100, 0010, AccessKind::Execute, true},
        DacCase{2000, 200, 0001, AccessKind::Execute, true}));

}  // namespace
}  // namespace pa::os
