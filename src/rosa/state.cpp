#include "rosa/state.h"

#include <algorithm>
#include <sstream>

#include "support/str.h"

namespace pa::rosa {
namespace {

template <typename T>
T* find_by_id(std::vector<T>& v, int id) {
  for (T& x : v)
    if (x.id == id) return &x;
  return nullptr;
}

template <typename T>
const T* find_by_id(const std::vector<T>& v, int id) {
  for (const T& x : v)
    if (x.id == id) return &x;
  return nullptr;
}

const std::vector<int>& empty_pool() {
  static const std::vector<int> empty;
  return empty;
}

/// Sequentially chain a field into an object sub-hash. Order within one
/// object matters (like canonical()'s field order); objects themselves are
/// combined by XOR, so the state digest is order-independent across objects
/// — which is what makes the incremental XOR-out/XOR-in update sound.
std::uint64_t chain(std::uint64_t h, std::uint64_t v) {
  return mix64(h ^ v);
}

// Distinct seeds per object kind so a proc and a file with equal fields
// cannot share a sub-hash.
constexpr std::uint64_t kProcSeed = 0x50726f63ull;  // "Proc"
constexpr std::uint64_t kFileSeed = 0x46696c65ull;  // "File"
constexpr std::uint64_t kDirSeed = 0x446972ull;     // "Dir"
constexpr std::uint64_t kSockSeed = 0x536f636bull;  // "Sock"
constexpr std::uint64_t kMsgSeed = 0x4d736773ull;   // "Msgs"

}  // namespace

bool State::operator==(const State& other) const {
  if (msgs_remaining_ != other.msgs_remaining_) return false;
  if (procs != other.procs || files != other.files || dirs != other.dirs ||
      socks != other.socks)
    return false;
  // Skeletons compare by contents (null == empty-by-contents only if both
  // report the same pools and names).
  if (world_ == other.world_) return true;
  static const WorldSkeleton empty;
  const WorldSkeleton& a = world_ ? *world_ : empty;
  const WorldSkeleton& b = other.world_ ? *other.world_ : empty;
  return a == b;
}

ProcObj* State::find_proc(int id) { return find_by_id(procs, id); }
const ProcObj* State::find_proc(int id) const { return find_by_id(procs, id); }
FileObj* State::find_file(int id) { return find_by_id(files, id); }
const FileObj* State::find_file(int id) const { return find_by_id(files, id); }
DirObj* State::find_dir(int id) { return find_by_id(dirs, id); }
const DirObj* State::find_dir(int id) const { return find_by_id(dirs, id); }
SockObj* State::find_sock(int id) { return find_by_id(socks, id); }
const SockObj* State::find_sock(int id) const { return find_by_id(socks, id); }

const DirObj* State::parent_dir_of(int file_id) const {
  for (const DirObj& d : dirs)
    if (d.inode == file_id) return &d;
  return nullptr;
}

bool State::port_in_use(int port) const {
  for (const SockObj& s : socks)
    if (s.port == port) return true;
  return false;
}

int State::next_object_id() const {
  int max_id = 0;
  for (const auto& p : procs) max_id = std::max(max_id, p.id);
  for (const auto& f : files) max_id = std::max(max_id, f.id);
  for (const auto& d : dirs) max_id = std::max(max_id, d.id);
  for (const auto& s : socks) max_id = std::max(max_id, s.id);
  return max_id + 1;
}

void State::set_msgs_remaining(std::uint64_t m) {
  if (digest_valid_) {
    digest_ ^= chain(kMsgSeed, msgs_remaining_);
    digest_ ^= chain(kMsgSeed, m);
  }
  msgs_remaining_ = m;
}

const std::vector<int>& State::users() const {
  return world_ ? world_->users : empty_pool();
}

const std::vector<int>& State::groups() const {
  return world_ ? world_->groups : empty_pool();
}

WorldSkeleton& State::mutable_world() {
  // Copy-on-write: a skeleton other states share is copied first; one this
  // state alone holds is written in place. Every skeleton is made by
  // make_shared<WorldSkeleton> below, so the object itself is not const,
  // and no state crosses threads (the verdict cache keeps results, not
  // states), so no other thread can be dropping a copy meanwhile.
  if (world_ && world_.use_count() == 1)
    return const_cast<WorldSkeleton&>(*world_);
  world_ = world_ ? std::make_shared<WorldSkeleton>(*world_)
                  : std::make_shared<WorldSkeleton>();
  return const_cast<WorldSkeleton&>(*world_);
}

void State::set_users(std::vector<int> us) {
  mutable_world().users = std::move(us);
}

void State::set_groups(std::vector<int> gs) {
  mutable_world().groups = std::move(gs);
}

void State::add_user(int u) { mutable_world().users.push_back(u); }

void State::add_group(int g) { mutable_world().groups.push_back(g); }

void State::set_name(int id, std::string name) {
  WorldSkeleton& w = mutable_world();
  auto it = std::lower_bound(
      w.names.begin(), w.names.end(), id,
      [](const std::pair<int, std::string>& p, int key) { return p.first < key; });
  if (it != w.names.end() && it->first == id)
    it->second = std::move(name);
  else
    w.names.insert(it, {id, std::move(name)});
}

const std::string& State::name_of(int id) const {
  // Objects materialized mid-search (creat) have no skeleton entry; render
  // them the way rule_creat used to label them.
  static const std::string created = "(created)";
  if (!world_) return created;
  auto it = std::lower_bound(
      world_->names.begin(), world_->names.end(), id,
      [](const std::pair<int, std::string>& p, int key) { return p.first < key; });
  if (it != world_->names.end() && it->first == id) return it->second;
  return created;
}

void State::add_file(FileObj f) {
  if (digest_valid_) digest_ ^= file_subhash(f);
  files.push_back(std::move(f));
}

void State::add_sock(SockObj s) {
  if (digest_valid_) digest_ ^= sock_subhash(s);
  socks.push_back(std::move(s));
}

void State::normalize() {
  auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  std::sort(procs.begin(), procs.end(), by_id);
  std::sort(files.begin(), files.end(), by_id);
  std::sort(dirs.begin(), dirs.end(), by_id);
  std::sort(socks.begin(), socks.end(), by_id);
  if (world_ && (!std::is_sorted(world_->users.begin(), world_->users.end()) ||
                 !std::is_sorted(world_->groups.begin(),
                                 world_->groups.end()))) {
    WorldSkeleton& w = mutable_world();
    std::sort(w.users.begin(), w.users.end());
    std::sort(w.groups.begin(), w.groups.end());
  }
  for (ProcObj& p : procs) {
    std::sort(p.supplementary.begin(), p.supplementary.end());
    p.supplementary.erase(
        std::unique(p.supplementary.begin(), p.supplementary.end()),
        p.supplementary.end());
  }
  digest_valid_ = false;
}

bool State::is_normalized() const {
  auto by_id = [](const auto& a, const auto& b) { return a.id < b.id; };
  if (!std::is_sorted(procs.begin(), procs.end(), by_id) ||
      !std::is_sorted(files.begin(), files.end(), by_id) ||
      !std::is_sorted(dirs.begin(), dirs.end(), by_id) ||
      !std::is_sorted(socks.begin(), socks.end(), by_id))
    return false;
  if (world_ && (!std::is_sorted(world_->users.begin(), world_->users.end()) ||
                 !std::is_sorted(world_->groups.begin(), world_->groups.end())))
    return false;
  for (const ProcObj& p : procs) {
    if (!std::is_sorted(p.supplementary.begin(), p.supplementary.end()))
      return false;
    if (std::adjacent_find(p.supplementary.begin(), p.supplementary.end()) !=
        p.supplementary.end())
      return false;
  }
  return true;
}

std::string State::canonical() const {
  // Object vectors are sorted by id (normalize()); serialize compactly.
  // The reserve is an object-count-derived estimate of the final length
  // (worst-case ~12 chars per numeric field) so typical states serialize
  // with a single allocation.
  std::string out;
  std::size_t fd_entries = 0;
  std::size_t supp_entries = 0;
  for (const ProcObj& p : procs) {
    fd_entries += p.rdfset.size() + p.wrfset.size();
    supp_entries += p.supplementary.size();
  }
  out.reserve(24 + procs.size() * 60 + (fd_entries + supp_entries) * 8 +
              files.size() * 32 + dirs.size() * 40 + socks.size() * 24);
  auto num = [&out](long long v) {
    out += std::to_string(v);
    out += ',';
  };
  out += 'M';
  num(static_cast<long long>(msgs_remaining_));
  for (const ProcObj& p : procs) {
    out += 'P';
    num(p.id);
    num(p.uid.real); num(p.uid.effective); num(p.uid.saved);
    num(p.gid.real); num(p.gid.effective); num(p.gid.saved);
    out += p.running ? 'r' : 'z';
    for (int g : p.supplementary) num(g);
    out += 'R';
    for (int f : p.rdfset) num(f);
    out += 'W';
    for (int f : p.wrfset) num(f);
  }
  for (const FileObj& f : files) {
    out += 'F';
    num(f.id); num(f.meta.owner); num(f.meta.group); num(f.meta.mode.bits());
  }
  for (const DirObj& d : dirs) {
    out += 'D';
    num(d.id); num(d.meta.owner); num(d.meta.group); num(d.meta.mode.bits());
    num(d.inode);
  }
  for (const SockObj& s : socks) {
    out += 'S';
    num(s.id); num(s.owner_proc); num(s.port);
  }
  // The skeleton (names, users/groups) is immutable during search;
  // excluded from the key.
  return out;
}

std::uint64_t State::proc_subhash(const ProcObj& p) {
  std::uint64_t h = mix64(kProcSeed);
  h = chain(h, static_cast<std::uint64_t>(p.id));
  h = chain(h, static_cast<std::uint64_t>(p.uid.real));
  h = chain(h, static_cast<std::uint64_t>(p.uid.effective));
  h = chain(h, static_cast<std::uint64_t>(p.uid.saved));
  h = chain(h, static_cast<std::uint64_t>(p.gid.real));
  h = chain(h, static_cast<std::uint64_t>(p.gid.effective));
  h = chain(h, static_cast<std::uint64_t>(p.gid.saved));
  h = chain(h, p.running ? 1 : 0);
  h = chain(h, p.supplementary.size());
  for (int g : p.supplementary) h = chain(h, static_cast<std::uint64_t>(g));
  h = chain(h, p.rdfset.size());
  for (int f : p.rdfset) h = chain(h, static_cast<std::uint64_t>(f));
  h = chain(h, p.wrfset.size());
  for (int f : p.wrfset) h = chain(h, static_cast<std::uint64_t>(f));
  return h;
}

std::uint64_t State::file_subhash(const FileObj& f) {
  std::uint64_t h = mix64(kFileSeed);
  h = chain(h, static_cast<std::uint64_t>(f.id));
  h = chain(h, static_cast<std::uint64_t>(f.meta.owner));
  h = chain(h, static_cast<std::uint64_t>(f.meta.group));
  h = chain(h, f.meta.mode.bits());
  return h;
}

std::uint64_t State::dir_subhash(const DirObj& d) {
  std::uint64_t h = mix64(kDirSeed);
  h = chain(h, static_cast<std::uint64_t>(d.id));
  h = chain(h, static_cast<std::uint64_t>(d.meta.owner));
  h = chain(h, static_cast<std::uint64_t>(d.meta.group));
  h = chain(h, d.meta.mode.bits());
  h = chain(h, static_cast<std::uint64_t>(d.inode));
  return h;
}

std::uint64_t State::sock_subhash(const SockObj& s) {
  std::uint64_t h = mix64(kSockSeed);
  h = chain(h, static_cast<std::uint64_t>(s.id));
  h = chain(h, static_cast<std::uint64_t>(s.owner_proc));
  h = chain(h, static_cast<std::uint64_t>(s.port));
  return h;
}

std::uint64_t State::full_hash() const {
  std::uint64_t h = chain(kMsgSeed, msgs_remaining_);
  for (const ProcObj& p : procs) h ^= proc_subhash(p);
  for (const FileObj& f : files) h ^= file_subhash(f);
  for (const DirObj& d : dirs) h ^= dir_subhash(d);
  for (const SockObj& s : socks) h ^= sock_subhash(s);
  // The skeleton is excluded, as in canonical().
  return h;
}

std::uint64_t State::hash() const {
  if (!digest_valid_) {
    digest_ = full_hash();
    digest_valid_ = true;
  }
  return digest_;
}

std::size_t State::heap_bytes() const {
  std::size_t b = 0;
  b += procs.capacity() * sizeof(ProcObj);
  for (const ProcObj& p : procs) {
    b += p.supplementary.capacity() * sizeof(caps::Gid);
    b += p.rdfset.heap_bytes() + p.wrfset.heap_bytes();
  }
  b += files.capacity() * sizeof(FileObj);
  b += dirs.capacity() * sizeof(DirObj);
  b += socks.capacity() * sizeof(SockObj);
  return b;
}

bool canonical_equal(const State& a, const State& b) {
  if (a.msgs_remaining() != b.msgs_remaining()) return false;
  if (a.procs.size() != b.procs.size() || a.files.size() != b.files.size() ||
      a.dirs.size() != b.dirs.size() || a.socks.size() != b.socks.size())
    return false;
  for (std::size_t i = 0; i < a.procs.size(); ++i) {
    const ProcObj& p = a.procs[i];
    const ProcObj& q = b.procs[i];
    if (p.id != q.id || p.uid != q.uid || p.gid != q.gid ||
        p.running != q.running || p.supplementary != q.supplementary ||
        p.rdfset != q.rdfset || p.wrfset != q.wrfset)
      return false;
  }
  for (std::size_t i = 0; i < a.files.size(); ++i) {
    const FileObj& f = a.files[i];
    const FileObj& g = b.files[i];
    if (f.id != g.id || f.meta.owner != g.meta.owner ||
        f.meta.group != g.meta.group || f.meta.mode.bits() != g.meta.mode.bits())
      return false;
  }
  for (std::size_t i = 0; i < a.dirs.size(); ++i) {
    const DirObj& d = a.dirs[i];
    const DirObj& e = b.dirs[i];
    if (d.id != e.id || d.meta.owner != e.meta.owner ||
        d.meta.group != e.meta.group ||
        d.meta.mode.bits() != e.meta.mode.bits() || d.inode != e.inode)
      return false;
  }
  for (std::size_t i = 0; i < a.socks.size(); ++i)
    if (!(a.socks[i] == b.socks[i])) return false;
  return true;
}

std::string State::to_string() const {
  std::ostringstream os;
  for (const ProcObj& p : procs) {
    os << "< " << p.id << " : Process | euid : " << p.uid.effective
       << " , ruid : " << p.uid.real << " , suid : " << p.uid.saved
       << " , egid : " << p.gid.effective << " , rgid : " << p.gid.real
       << " , sgid : " << p.gid.saved << " , state : "
       << (p.running ? "run" : "terminated") << " , rdfset : ";
    if (p.rdfset.empty()) os << "empty";
    else for (int f : p.rdfset) os << f << " ";
    os << ", wrfset : ";
    if (p.wrfset.empty()) os << "empty";
    else for (int f : p.wrfset) os << f << " ";
    os << ">\n";
  }
  for (const DirObj& d : dirs)
    os << "< " << d.id << " : Dir | name : \"" << name_of(d.id)
       << "\" , perms : " << d.meta.mode.to_string() << " , inode : "
       << d.inode << " , owner : " << d.meta.owner << " , group : "
       << d.meta.group << " >\n";
  for (const FileObj& f : files)
    os << "< " << f.id << " : File | name : \"" << name_of(f.id)
       << "\" , perms : " << f.meta.mode.to_string() << " , owner : "
       << f.meta.owner << " , group : " << f.meta.group << " >\n";
  for (const SockObj& s : socks)
    os << "< " << s.id << " : Socket | owner : " << s.owner_proc
       << " , port : " << s.port << " >\n";
  for (int u : users()) os << "< User | uid : " << u << " >\n";
  for (int g : groups()) os << "< Group | gid : " << g << " >\n";
  return os.str();
}

}  // namespace pa::rosa
