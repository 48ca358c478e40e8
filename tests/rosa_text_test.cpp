// Tests for the textual ROSA query format (rosa/text.h).
#include <gtest/gtest.h>

#include "rosa/search.h"
#include "rosa/text.h"
#include "support/str.h"

namespace pa::rosa {
namespace {

const char* kExample = R"(
# The paper's Fig. 2 configuration.
process 1 uid 11 10 12 gid 11 10 12
dir     2 "/etc"        perms rwxrwxrwx owner 40 group 41 inode 3
file    3 "/etc/passwd" perms --------- owner 40 group 41
user  10
group 41
msg open(1, 3, r, {})
msg setuid(1, *, {CapSetuid})
msg chown(1, *, *, 41, {CapChown})
msg chmod(1, *, 0777, {})
goal rdfset 1 contains 3
)";

TEST(TextTest, ParsesPaperExample) {
  Query q = parse_query(kExample);
  ASSERT_EQ(q.initial.procs.size(), 1u);
  EXPECT_EQ(q.initial.procs[0].uid, (caps::IdTriple{11, 10, 12}));
  ASSERT_EQ(q.initial.files.size(), 1u);
  EXPECT_EQ(q.initial.files[0].meta.owner, 40);
  EXPECT_EQ(q.initial.files[0].meta.mode, os::Mode(0));
  ASSERT_EQ(q.initial.dirs.size(), 1u);
  EXPECT_EQ(q.initial.dirs[0].inode, 3);
  EXPECT_EQ(q.initial.users(), std::vector<int>{10});
  ASSERT_EQ(q.messages.size(), 4u);
  EXPECT_EQ(q.messages[0].sys, Sys::Open);
  EXPECT_EQ(q.messages[0].args, (std::vector<int>{3, kAccRead}));
  EXPECT_EQ(q.messages[1].args, std::vector<int>{kWild});
  EXPECT_TRUE(q.messages[2].privs.contains(caps::Capability::Chown));
  EXPECT_EQ(q.messages[3].args[1], 0777);
}

TEST(TextTest, ParsedQueryIsSearchable) {
  Query q = parse_query(kExample);
  SearchResult r = search(q);
  EXPECT_EQ(r.verdict, Verdict::Reachable);
}

TEST(TextTest, AllGoalKinds) {
  auto wr = parse_query("process 1 uid 1 1 1 gid 1 1 1\n"
                        "goal wrfset 1 contains 9\n");
  EXPECT_FALSE(wr.goal(wr.initial));

  auto pp = parse_query("process 1 uid 1 1 1 gid 1 1 1\n"
                        "socket 5 owner 1 port 22\n"
                        "goal privport 1\n");
  EXPECT_TRUE(pp.goal(pp.initial));

  auto tm = parse_query("process 1 uid 1 1 1 gid 1 1 1\n"
                        "goal terminated 1\n");
  EXPECT_FALSE(tm.goal(tm.initial));
}

TEST(TextTest, SupplementaryGroups) {
  Query q = parse_query("process 1 uid 1 1 1 gid 1 1 1 groups 4 24 27\n"
                        "goal terminated 1\n");
  EXPECT_EQ(q.initial.procs[0].supplementary, (std::vector<int>{4, 24, 27}));
}

TEST(TextTest, AccessModeSpellings) {
  Query q = parse_query(
      "process 1 uid 1 1 1 gid 1 1 1\n"
      "file 2 \"f\" perms rw------- owner 1 group 1\n"
      "msg open(1, 2, rw, {})\n"
      "msg open(1, 2, w, {})\n"
      "goal wrfset 1 contains 2\n");
  EXPECT_EQ(q.messages[0].args[1], kAccRead | kAccWrite);
  EXPECT_EQ(q.messages[1].args[1], kAccWrite);
  EXPECT_EQ(search(q).verdict, Verdict::Reachable);
}

TEST(TextTest, Errors) {
  std::string err;
  EXPECT_FALSE(try_parse_query("bogus 1\ngoal terminated 1\n", &err));
  EXPECT_NE(err.find("bogus"), std::string::npos);

  EXPECT_FALSE(try_parse_query("process 1 uid 1 1 1\n", &err));  // no goal
  EXPECT_NE(err.find("goal"), std::string::npos);

  EXPECT_FALSE(
      try_parse_query("msg frobnicate(1, {})\ngoal terminated 1\n", &err));
  EXPECT_FALSE(try_parse_query(
      "process 1 uid 1 1 1 gid 1 1 1\ngoal rdfset 1 holds 3\n", &err));

  // Malformed integers are positioned parse errors: never an escaping
  // exception, a truncated int, or an octal prefix read as 0.
  for (const char* user :
       {"99999999999999999999", "-", "4294967306", "09"}) {
    SCOPED_TRACE(user);
    err.clear();
    EXPECT_FALSE(try_parse_query(
        str::cat("user ", user, "\ngoal terminated 1\n"), &err));
    EXPECT_NE(err.find("query parse error at line 1"), std::string::npos)
        << err;
  }
  // A leading 0 still means octal.
  EXPECT_EQ(parse_query("user 010\ngoal terminated 1\n").initial.users(),
            (std::vector<int>{8}));
}

TEST(TextTest, PrintQueryMentionsEverything) {
  Query q = parse_query(kExample);
  std::string s = print_query(q);
  EXPECT_NE(s.find("search in UNIX"), std::string::npos);
  EXPECT_NE(s.find("/etc/passwd"), std::string::npos);
  EXPECT_NE(s.find("chown(1,-1,-1,41,{CapChown})"), std::string::npos);
  EXPECT_NE(s.find("=>*"), std::string::npos);
}

}  // namespace
}  // namespace pa::rosa
