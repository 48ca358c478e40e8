// ROSA (Rewrite of Objects for Syscall Analysis) — system state.
//
// Exactly the paper's object model: a Linux system is a set of objects —
// processes, files, directory entries, TCP sockets, plus user and group
// objects that bound the values wildcard uid/gid arguments may take. The
// original is written in Object Maude; here the same configuration is a C++
// value type explored by an explicit-state search (rosa/search.h), with
// syscall messages carried as a consumed-once bitmask.
//
// The representation is split for search throughput. Everything the rewrite
// rules can mutate (object attributes, fd-sets, the message mask) lives
// directly in State; everything they cannot — display names and the
// user/group pools — lives in an immutable WorldSkeleton shared by every
// state of one search via shared_ptr, so copying a state copies one pointer
// instead of a pile of strings. The 64-bit dedup digest is maintained
// incrementally: mutate_*()/add_*()/set_msgs_remaining() XOR the touched
// object's sub-hash out and back in, so hashing a successor costs O(touched
// objects), not O(state).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "caps/credentials.h"
#include "os/access.h"
#include "rosa/flat_set.h"

namespace pa::rosa {

/// The splitmix64 finalizer: a bijective 64-bit mix in which every input
/// bit reaches every output bit. State sub-hashes chain fields through it,
/// and query fingerprints (rosa/fingerprint.cpp) chain words through it.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Process object: credentials, run state, and the sets of object ids the
/// process has opened for reading (rdfset) and writing (wrfset).
struct ProcObj {
  int id = 0;
  caps::IdTriple uid;
  caps::IdTriple gid;
  std::vector<caps::Gid> supplementary;
  bool running = true;
  FlatIntSet rdfset;
  FlatIntSet wrfset;

  bool operator==(const ProcObj&) const = default;

  caps::Credentials creds() const {
    // set_supplementary() sorts and dedups, so the groups must not also be
    // passed to the constructor (which would copy + normalize them twice).
    caps::Credentials c{uid, gid, {}};
    c.set_supplementary(supplementary);
    return c;
  }
};

/// File object: ownership and permissions. The human-readable name lives in
/// the WorldSkeleton (rewrite rules never consult it), exactly as in the
/// paper where names are cosmetic attributes.
struct FileObj {
  int id = 0;
  os::FileMeta meta;

  bool operator==(const FileObj&) const = default;
};

/// Directory-entry object: like a file plus an `inode` attribute naming the
/// file object the entry refers to (-1 = dangling/removed). ROSA models
/// pathname lookup on a single parent directory.
struct DirObj {
  int id = 0;
  os::FileMeta meta;
  int inode = -1;

  bool operator==(const DirObj&) const = default;
};

/// TCP socket object.
struct SockObj {
  int id = 0;
  int owner_proc = -1;
  int port = -1;  // -1 = unbound

  bool operator==(const SockObj&) const = default;
};

/// The per-query immutable half of a configuration: display names for
/// file/dir objects plus the user and group pools wildcard arguments draw
/// from (constraining these bounds the search space, §V-B). Rewrite rules
/// read but never write it, so every state of one search shares a single
/// instance.
struct WorldSkeleton {
  /// id -> display name, sorted by id (files and dirs share the space).
  std::vector<std::pair<int, std::string>> names;
  std::vector<int> users;
  std::vector<int> groups;

  bool operator==(const WorldSkeleton&) const = default;
};

/// A ROSA configuration. Object vectors are kept sorted by id so that equal
/// configurations serialize identically (canonical form for search dedup).
struct State {
  std::vector<ProcObj> procs;
  std::vector<FileObj> files;
  std::vector<DirObj> dirs;
  std::vector<SockObj> socks;

  bool operator==(const State& other) const;

  ProcObj* find_proc(int id);
  const ProcObj* find_proc(int id) const;
  FileObj* find_file(int id);
  const FileObj* find_file(int id) const;
  DirObj* find_dir(int id);
  const DirObj* find_dir(int id) const;
  SockObj* find_sock(int id);
  const SockObj* find_sock(int id) const;

  /// The directory entry whose inode refers to `file_id`, or nullptr.
  const DirObj* parent_dir_of(int file_id) const;

  /// True if some socket is bound to `port`.
  bool port_in_use(int port) const;

  /// Smallest object id not in use (for socket creation).
  int next_object_id() const;

  // --- message mask --------------------------------------------------------

  std::uint64_t msgs_remaining() const { return msgs_remaining_; }
  /// Digest-maintaining mask update (successor construction in the search).
  void set_msgs_remaining(std::uint64_t m);

  // --- world skeleton ------------------------------------------------------

  const std::vector<int>& users() const;
  const std::vector<int>& groups() const;
  void set_users(std::vector<int> us);
  void set_groups(std::vector<int> gs);
  void add_user(int u);
  void add_group(int g);
  /// Register/replace the display name of a file or dir object.
  void set_name(int id, std::string name);
  /// Display name of a file/dir object; objects created mid-search have no
  /// skeleton entry and render as "(created)".
  const std::string& name_of(int id) const;
  /// The shared skeleton (may be null when nothing was ever registered);
  /// exposed so tests can assert successor states intern it.
  const std::shared_ptr<const WorldSkeleton>& world() const { return world_; }

  // --- digest-maintaining mutation -----------------------------------------
  //
  // The rewrite rules go through these so each successor's 64-bit digest is
  // derived from its parent's in O(1): the touched object's sub-hash is
  // XORed out, the field mutation applied, and the new sub-hash XORed in.
  // Code that mutates the public vectors directly (state construction,
  // tests) must call invalidate_hash() afterwards — or simply normalize(),
  // which invalidates too. The search can cross-check the incremental digest
  // against full_hash() via SearchLimits::check_hashes.

  /// Mutate the object with this id through `fn`, keeping the cached digest
  /// consistent. Returns fn's result. The object must exist.
  template <typename F>
  decltype(auto) mutate_proc(int id, F&& fn) {
    return mutate_impl(*find_proc(id), std::forward<F>(fn));
  }
  template <typename F>
  decltype(auto) mutate_file(int id, F&& fn) {
    return mutate_impl(*find_file(id), std::forward<F>(fn));
  }
  template <typename F>
  decltype(auto) mutate_dir(int id, F&& fn) {
    return mutate_impl(*find_dir(id), std::forward<F>(fn));
  }
  template <typename F>
  decltype(auto) mutate_sock(int id, F&& fn) {
    return mutate_impl(*find_sock(id), std::forward<F>(fn));
  }

  /// Append a new object (id must exceed every existing object id, as
  /// next_object_id() guarantees, so sortedness is preserved).
  void add_file(FileObj f);
  void add_sock(SockObj s);

  /// Drop the cached digest (after direct mutation of public fields).
  void invalidate_hash() const { digest_valid_ = false; }

  /// Keep object vectors sorted by id; call after construction. Invalidates
  /// the cached digest.
  void normalize();

  /// True when normalize() would be a no-op (successors built by the rules
  /// are normalized by construction; emit() verifies instead of re-sorting).
  bool is_normalized() const;

  /// Deterministic serialization — the reference dedup key. The search keys
  /// its seen-set on hash() and falls back to canonical_equal() on
  /// collisions; canonical() remains the ground truth those two must match
  /// (tests/rosa_hash_test.cpp). Covers exactly the mutable core: display
  /// names and the user/group pools are excluded (immutable during search),
  /// which also keeps query fingerprints (rosa/fingerprint.h) independent
  /// of this representation split.
  std::string canonical() const;

  /// 64-bit digest over exactly the fields canonical() serializes: an XOR
  /// of per-object splitmix64 sub-hashes plus the message-mask hash.
  /// Cached; mutation through the helpers above updates it incrementally.
  /// Guarantees: canonical()-equal states hash equal; distinct canonical
  /// forms collide only by hash accident, which the search resolves via
  /// canonical_equal().
  std::uint64_t hash() const;

  /// hash() recomputed from scratch, ignoring the cache — the reference the
  /// incremental digest is cross-checked against in debug mode.
  std::uint64_t full_hash() const;

  /// Per-object sub-hashes (exposed for the incremental-hash tests).
  static std::uint64_t proc_subhash(const ProcObj& p);
  static std::uint64_t file_subhash(const FileObj& f);
  static std::uint64_t dir_subhash(const DirObj& d);
  static std::uint64_t sock_subhash(const SockObj& s);

  /// Heap bytes owned by this state beyond sizeof(State) — vector and
  /// fd-set allocations. The shared skeleton is excluded (counted once per
  /// search, not per node).
  std::size_t heap_bytes() const;

  /// Multi-line rendering in a Maude-like object syntax (for reports and
  /// the worked example).
  std::string to_string() const;

 private:
  template <typename Obj, typename F>
  decltype(auto) mutate_impl(Obj& obj, F&& fn) {
    if (digest_valid_) digest_ ^= subhash_of(obj);
    struct Reapply {
      State* st;
      Obj* obj;
      ~Reapply() {
        if (st->digest_valid_) st->digest_ ^= subhash_of(*obj);
      }
    } reapply{this, &obj};
    return std::forward<F>(fn)(obj);
  }

  static std::uint64_t subhash_of(const ProcObj& p) { return proc_subhash(p); }
  static std::uint64_t subhash_of(const FileObj& f) { return file_subhash(f); }
  static std::uint64_t subhash_of(const DirObj& d) { return dir_subhash(d); }
  static std::uint64_t subhash_of(const SockObj& s) { return sock_subhash(s); }

  WorldSkeleton& mutable_world();

  std::shared_ptr<const WorldSkeleton> world_;
  /// Bitmask over the query's message list: 1 = still consumable.
  std::uint64_t msgs_remaining_ = 0;
  mutable std::uint64_t digest_ = 0;
  mutable bool digest_valid_ = false;
};

/// Field-by-field comparison of exactly the canonical() projection:
/// equivalent to a.canonical() == b.canonical() but with no allocation.
/// (Unlike operator==, ignores the shared skeleton — display names and the
/// immutable user/group pools — just as canonical() does.)
bool canonical_equal(const State& a, const State& b);

}  // namespace pa::rosa
