// The four privilege-escalation attacks of the paper's Table I, expressed as
// ROSA queries. All four queries of an epoch share ONE union world — the
// victim, the critical server, /dev/mem and the /etc decoys, and a single
// union message list; §VII-A's per-attack tailoring ("the subset of the
// program's syscalls relevant to it") is expressed through Query::msg_mask,
// which selects the attack's fireable messages out of the shared list. The
// shared world is what lets rosa::run_queries fuse an epoch's queries into
// one exploration, and what lets build_attack_queries assemble it once per
// epoch. Every message may use the epoch's entire permitted privilege set —
// the paper's strong attack model.
#pragma once

#include <array>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "caps/priv_state.h"
#include "rosa/search.h"

namespace pa::attacks {

enum class AttackId {
  ReadDevMem = 1,         // open /dev/mem for reading: steal any data
  WriteDevMem = 2,        // open /dev/mem for writing: corrupt any data
  BindPrivilegedPort = 3, // masquerade as a trusted server
  KillServer = 4,         // SIGKILL a critical server owned by another user
};

struct AttackInfo {
  AttackId id;
  std::string name;
  std::string description;
};

/// Table I.
const std::vector<AttackInfo>& modeled_attacks();

// Fixed object ids used in attack scenarios.
inline constexpr int kVictimProc = 1;   // the analyzed (exploited) program
inline constexpr int kServerProc = 2;   // the critical server (attack 4)
inline constexpr int kDevMemFile = 3;   // /dev/mem
inline constexpr int kDevDir = 4;       // /dev
// Decoy objects: the wildcard file arguments of open/chown/chmod/unlink/
// rename range over every file object in the configuration, so the standard
// /etc files are included as in the paper's inputs.
inline constexpr int kShadowFile = 5;   // /etc/shadow
inline constexpr int kPasswdFile = 6;   // /etc/passwd
inline constexpr int kEtcDir = 7;       // /etc
inline constexpr int kEtcDir2 = 8;      // second /etc entry (for /etc/passwd)

// The world the attacks run in (Ubuntu-like): /dev/mem is root:kmem 0640 and
// the critical server runs as a dedicated daemon user.
inline constexpr int kServerUid = 109;
inline constexpr int kKmemGid = 15;

/// Everything PrivAnalyzer knows about one privilege epoch of a program.
struct ScenarioInput {
  caps::CapSet permitted;               // live privilege set
  caps::Credentials creds;              // uids/gids in force
  std::vector<std::string> syscalls;    // syscall names the program uses
  /// Additional uid/gid values the search may try for wildcard arguments
  /// (beyond those implied by the credentials and the scenario objects).
  std::vector<int> extra_users;
  std::vector<int> extra_groups;
  /// Attacker strength (§X): Full is the paper's model; CfiOrdered and
  /// FixedArgs model programs hardened with control-flow / data-flow
  /// integrity defenses.
  rosa::AttackerModel attacker = rosa::AttackerModel::Full;
};

/// Build the ROSA query asking "starting from this epoch, can the attacker
/// reach the attack's compromised state?"
rosa::Query build_attack_query(AttackId attack, const ScenarioInput& input);

/// All four of an epoch's queries, in modeled_attacks() order: the union
/// world is assembled once and copied, and each copy gets its attack's
/// goal, description and msg_mask. Cell a equals
/// build_attack_query(modeled_attacks()[a].id, input)
/// (tests/rosa_fused_diff_test.cpp).
std::array<rosa::Query, 4> build_attack_queries(const ScenarioInput& input);

/// Narrow an epoch's cells to its syscall allowlist (an EpochFilter's
/// conservative set): a message keeps its msg_mask bit only if `allowed`
/// names its syscall. The cells must share one message list, as the
/// results of build_attack_query and build_attack_queries for one input
/// do; the allowlist becomes a rosa::SysSet and the kept bits are computed
/// once for all of them. The world is untouched, so a narrowed cell shares
/// its baseline's world digest and fuses with it, yet it decides exactly
/// what the same query built over the allowlisted sublist of
/// input.syscalls would (tests/rosa_fused_diff_test.cpp). An empty
/// allowlist leaves no message fireable.
void narrow_to_allowlist(std::span<rosa::Query> cells,
                         const std::set<std::string>& allowed);

}  // namespace pa::attacks
