// Tests for ROSA state objects, canonicalization, and helpers.
#include <gtest/gtest.h>

#include "rosa/message.h"
#include "rosa/state.h"

namespace pa::rosa {
namespace {

State tiny_state() {
  State st;
  ProcObj p;
  p.id = 1;
  p.uid = {1000, 1000, 1000};
  p.gid = {1000, 1000, 1000};
  st.procs.push_back(p);
  st.files.push_back(FileObj{3, {0, 15, os::Mode(0640)}});
  st.dirs.push_back(DirObj{4, {0, 0, os::Mode(0755)}, 3});
  st.set_name(3, "/dev/mem");
  st.set_name(4, "/dev");
  st.set_users({0, 1000});
  st.set_groups({0, 15});
  st.normalize();
  return st;
}

TEST(StateTest, Finders) {
  State st = tiny_state();
  EXPECT_NE(st.find_proc(1), nullptr);
  EXPECT_EQ(st.find_proc(2), nullptr);
  EXPECT_NE(st.find_file(3), nullptr);
  EXPECT_NE(st.find_dir(4), nullptr);
  EXPECT_EQ(st.find_sock(9), nullptr);
}

TEST(StateTest, ParentDirLookup) {
  State st = tiny_state();
  const DirObj* d = st.parent_dir_of(3);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->id, 4);
  EXPECT_EQ(st.parent_dir_of(99), nullptr);
}

TEST(StateTest, NextObjectId) {
  State st = tiny_state();
  EXPECT_EQ(st.next_object_id(), 5);
}

TEST(StateTest, PortInUse) {
  State st = tiny_state();
  EXPECT_FALSE(st.port_in_use(22));
  st.socks.push_back(SockObj{5, 1, 22});
  EXPECT_TRUE(st.port_in_use(22));
}

TEST(CanonicalTest, EqualStatesSerializeEqually) {
  State a = tiny_state();
  State b = tiny_state();
  // Insert objects in a different order; normalize must fix it.
  std::swap(b.files, b.files);
  State c;
  c.files.push_back(b.files[0]);
  c.dirs = b.dirs;
  c.procs = b.procs;
  c.set_users({1000, 0});
  c.set_groups({15, 0});
  c.normalize();
  EXPECT_EQ(a.canonical(), c.canonical());
}

TEST(CanonicalTest, DifferencesShowUp) {
  State a = tiny_state();
  State b = tiny_state();
  b.find_proc(1)->rdfset.insert(3);
  EXPECT_NE(a.canonical(), b.canonical());

  State c = tiny_state();
  c.find_file(3)->meta.mode = os::Mode(0666);
  EXPECT_NE(a.canonical(), c.canonical());

  State d = tiny_state();
  d.set_msgs_remaining(5);
  EXPECT_NE(a.canonical(), d.canonical());

  State e = tiny_state();
  e.find_proc(1)->running = false;
  EXPECT_NE(a.canonical(), e.canonical());
}

TEST(CanonicalTest, FileNameIsCosmetic) {
  // Names are human-readable only; rules and canonical form ignore them.
  State a = tiny_state();
  State b = tiny_state();
  b.set_name(3, "renamed");
  EXPECT_EQ(a.canonical(), b.canonical());
}

TEST(StateTest, WritingACopysSkeletonNeverChangesTheOriginal) {
  const State original = tiny_state();
  const WorldSkeleton before = *original.world();
  State copy = original;
  ASSERT_EQ(copy.world(), original.world());  // shared until written
  copy.set_name(3, "renamed");
  copy.set_name(9, "/new");
  copy.set_users({5, 1});
  copy.add_user(42);
  copy.set_groups({7});
  copy.add_group(8);
  copy.normalize();
  EXPECT_NE(copy.world(), original.world());
  EXPECT_EQ(*original.world(), before);
  EXPECT_EQ(original.name_of(3), "/dev/mem");
  EXPECT_EQ(copy.name_of(3), "renamed");
  EXPECT_EQ(copy.users(), (std::vector<int>{1, 5, 42}));

  // The other way round: the original's writes never reach a copy either.
  State source = tiny_state();
  const State snapshot = source;
  source.set_name(4, "/etc");
  source.add_group(99);
  EXPECT_EQ(*snapshot.world(), before);
  EXPECT_EQ(snapshot.name_of(4), "/dev");
}

TEST(StateTest, ASoleOwnerWritesItsSkeletonInPlace) {
  State st = tiny_state();
  const WorldSkeleton* skeleton = st.world().get();
  st.set_name(3, "renamed");
  st.set_users({0, 1000, 1001});
  st.add_group(99);
  st.normalize();
  EXPECT_EQ(st.world().get(), skeleton);
  EXPECT_EQ(st.name_of(3), "renamed");

  // A copy detaches on its first write and then owns its skeleton alone.
  State copy = st;
  copy.add_user(7);
  const WorldSkeleton* copied = copy.world().get();
  EXPECT_NE(copied, skeleton);
  EXPECT_EQ(st.world().get(), skeleton);
  copy.add_user(8);
  EXPECT_EQ(copy.world().get(), copied);
  EXPECT_EQ(st.users(), (std::vector<int>{0, 1000, 1001}));
}

TEST(StateTest, ToStringMaudeLike) {
  std::string s = tiny_state().to_string();
  EXPECT_NE(s.find("Process"), std::string::npos);
  EXPECT_NE(s.find("rdfset : empty"), std::string::npos);
  EXPECT_NE(s.find("/dev/mem"), std::string::npos);
  EXPECT_NE(s.find("User | uid : 1000"), std::string::npos);
}

TEST(MessageTest, ToStringAndParseNames) {
  Message m = msg_chown(1, kWild, kWild, 41, {caps::Capability::Chown});
  EXPECT_EQ(m.to_string(), "chown(1,-1,-1,41,{CapChown})");
  EXPECT_EQ(parse_sys("chown"), Sys::Chown);
  EXPECT_EQ(parse_sys("nonsense"), std::nullopt);
  for (auto s : {Sys::Open, Sys::Kill, Sys::Bind, Sys::Setresgid})
    EXPECT_EQ(parse_sys(std::string(sys_name(s))), s);
}

}  // namespace
}  // namespace pa::rosa
