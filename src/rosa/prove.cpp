#include "rosa/prove.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <vector>

#include "caps/credentials.h"
#include "rosa/checker.h"
#include "support/error.h"
#include "support/faultpoint.h"

namespace pa::rosa {
namespace {

using Bits = std::uint64_t;

// Width limits, like the search's 64-message bitmask. Value sets are 64-bit
// sets over a world's distinct ids; a directory entry's inode set has one
// bit per initial file, one for the created-file summary and kDangling.
constexpr std::size_t kMaxIds = 64;
constexpr std::size_t kMaxFiles = 62;
constexpr int kDangling = 63;
// Every mode a file can take is an initial file mode, a chmod or creat
// message's mode, or one of those with setuid/setgid cleared by chown: at
// most 2 * (62 + 64) distinct values.
constexpr std::size_t kMaxModes = 256;

constexpr Bits bit(int i) { return Bits{1} << i; }
constexpr bool has(Bits s, int i) { return (s >> i) & 1; }
constexpr Bits low_bits(std::size_t n) {
  return n == 64 ? ~Bits{0} : (Bits{1} << n) - 1;
}

/// fn(i) for each set bit i of `s`, ascending, until one returns true.
template <typename Fn>
bool any_bit(Bits s, Fn&& fn) {
  for (; s; s &= s - 1)
    if (fn(std::countr_zero(s))) return true;
  return false;
}

using ModeSet = std::array<Bits, kMaxModes / 64>;

bool has_mode(const ModeSet& s, int i) { return has(s[i / 64], i % 64); }
void add_mode(ModeSet& s, int i) { s[i / 64] |= bit(i % 64); }
bool covers(const ModeSet& s, const ModeSet& t) {
  for (std::size_t k = 0; k < s.size(); ++k)
    if (t[k] & ~s[k]) return false;
  return true;
}

/// Insert `v` into the sorted first `n` entries of `table`, unless present.
/// False when the table is full and `v` is new.
template <typename T, std::size_t N>
bool insert_sorted(std::array<T, N>& table, std::size_t& n, T v) {
  const auto end = table.begin() + static_cast<std::ptrdiff_t>(n);
  const auto at = std::lower_bound(table.begin(), end, v);
  if (at != end && *at == v) return true;
  if (n == N) return false;
  std::copy_backward(at, end, end + 1);
  *at = v;
  ++n;
  return true;
}

/// A non-owning reference to a callable, so that one out-of-line loop
/// serves every rule (it keeps the prover's code, and the pages it maps,
/// small).
template <typename Sig>
class FnRef;
template <typename R, typename... A>
class FnRef<R(A...)> {
 public:
  template <typename F>
  FnRef(const F& f)  // NOLINT: converts implicitly, like std::function
      : obj_(&f), call_([](const void* o, A... a) -> R {
          return (*static_cast<const F*>(o))(a...);
        }) {}
  R operator()(A... a) const { return call_(obj_, a...); }

 private:
  const void* obj_;
  R (*call_)(const void*, A...);
};

template <typename Fn>
bool any_mode(const ModeSet& s, Fn&& fn) {
  for (std::size_t k = 0; k < s.size(); ++k)
    if (any_bit(s[k], [&](int i) { return fn(static_cast<int>(k) * 64 + i); }))
      return true;
  return false;
}

bool is_setid(Sys s) {
  switch (s) {
    case Sys::Setuid:
    case Sys::Seteuid:
    case Sys::Setresuid:
    case Sys::Setgid:
    case Sys::Setegid:
    case Sys::Setresgid:
      return true;
    default:
      return false;
  }
}

bool is_uid_call(Sys s) {
  return s == Sys::Setuid || s == Sys::Seteuid || s == Sys::Setresuid;
}

}  // namespace

namespace detail {

/// One world's abstraction. A Prover keeps one and reuses its vectors from
/// world to world, so proving allocates only while they grow.
class Abstraction {
 public:
  /// Load `q`'s world. False when it is wider than the limits above.
  bool load(const Query& q);

  /// Run the fixpoint of the messages in `mask` and return the members of
  /// `pending` whose goals cannot hold in it (the proved ones).
  Bits prove(std::span<const Query> world, Bits mask, Bits pending);

 private:
  /// What the rules may change about one process.
  struct ProcFacts {
    /// Value sets of the (real, effective, saved) slots, over the id table.
    std::array<Bits, 3> uid{};
    std::array<Bits, 3> gid{};
    Bits rd = 0;  // files it may hold open for reading (file index bits)
    Bits wr = 0;  // ... and for writing
    bool dead = false;
    bool sock = false;      // may have created a socket, which starts unbound
    bool privport = false;  // may have bound a privileged port
  };

  /// A file's possible metas: the product of its owner, group and mode sets.
  struct FileFacts {
    Bits owners = 0;  // over the id table
    Bits groups = 0;
    ModeSet modes{};  // over the mode table
  };

  /// Everything the rules may change, for one mask's fixpoint.
  struct Facts {
    std::vector<ProcFacts> procs;
    std::vector<FileFacts> files;  // initial files, then the created summary
    std::vector<Bits> dirs;        // per entry: the inodes it may name
    bool created = false;          // the summary file may exist
  };

  int id_index(int id) const {
    const auto end = ids_.begin() + static_cast<std::ptrdiff_t>(n_ids_);
    const auto it = std::lower_bound(ids_.begin(), end, id);
    return it != end && *it == id ? static_cast<int>(it - ids_.begin()) : -1;
  }
  int mode_index(std::uint16_t mode) const {
    const auto end = modes_.begin() + static_cast<std::ptrdiff_t>(n_modes_);
    const auto it = std::lower_bound(modes_.begin(), end, mode);
    PA_CHECK(it != end && *it == mode, "prove: mode outside the mode table");
    return static_cast<int>(it - modes_.begin());
  }
  /// The world's initial state: the objects the facts are indexed by.
  const State& st() const { return q_->initial; }
  int file_index(int id) const {
    for (std::size_t f = 0; f < st().files.size(); ++f)
      if (st().files[f].id == id) return static_cast<int>(f);
    return -1;
  }
  int proc_index(int id) const {
    for (std::size_t j = 0; j < st().procs.size(); ++j)
      if (st().procs[j].id == id) return static_cast<int>(j);
    return -1;
  }
  int summary() const { return static_cast<int>(st().files.size()); }
  const os::FileMeta& dir_meta(std::size_t d) const {
    return st().dirs[d].meta;
  }
  /// The file bit an object id stands for: its initial file, or else the
  /// created-file summary (a created file takes a fresh id).
  int file_bit(int id) const {
    const int f = file_index(id);
    return f >= 0 ? f : summary();
  }
  /// The files a file argument may name: a fixed id names its initial file
  /// or, once it may exist, the summary; a wildcard names every file that
  /// may exist, and none under FixedArgs.
  Bits file_cands(int arg) const {
    const Bits summary_bit = cur_.created ? bit(summary()) : 0;
    if (arg == kWild)
      return model_ == AttackerModel::FixedArgs
                 ? 0
                 : low_bits(st().files.size()) | summary_bit;
    const int f = file_index(arg);
    return f >= 0 ? bit(f) : summary_bit;
  }
  /// The ids an id argument may take: a fixed value, or the pool.
  Bits id_cands(int arg, Bits pool) const {
    if (arg != kWild) return bit(id_index(arg));
    return model_ == AttackerModel::FixedArgs ? 0 : pool;
  }
  /// Each directory entry a dir argument may name, that may be dangling.
  template <typename Fn>
  void for_dangling_dirs(int arg, Fn&& fn) {
    for (std::size_t d = 0; d < st().dirs.size(); ++d) {
      if (arg == kWild ? model_ == AttackerModel::FixedArgs
                       : st().dirs[d].id != arg)
        continue;
      if (has(cur_.dirs[d], kDangling)) fn(d);
    }
  }

  /// fn(creds) on process j's representatives, R_uid x E_uid x E_gid,
  /// until one returns true.
  bool any_rep(int j, FnRef<bool(const caps::Credentials&)> fn);
  /// fn(meta) on file f's possible metas until one returns true.
  bool any_meta(int f, FnRef<bool(const os::FileMeta&)> fn) const;

  /// Pathname lookup (rules.cpp's path_ok) through any entry that may name
  /// file f.
  bool path_ok(const caps::Credentials& c, caps::CapSet privs, int f) const {
    if (!ck_->path_lookup_allowed(c, privs)) return false;
    if (st().dirs.empty()) return true;  // pathless model
    for (std::size_t d = 0; d < st().dirs.size(); ++d)
      if (has(cur_.dirs[d], f) && ck_->dir_search(c, privs, dir_meta(d)))
        return true;
    return false;
  }

  bool add_id(Bits& slot, int id) const {
    const int i = id_index(id);
    PA_CHECK(i >= 0, "prove: set*id result outside the id table");
    const bool fresh = !has(slot, i);
    slot |= bit(i);
    return fresh;
  }

  /// What a set*id message last ran against in the current closure.
  struct Seen {
    std::array<Bits, 3> slots{};
    unsigned privs = 0;
  };

  using ArgValues = std::array<std::array<int, kMaxIds>, 3>;

  void close_credentials(Bits setid_msgs);
  bool close_setid(std::size_t mi, Seen& seen);
  const std::array<Bits, 3>& fire_setid(std::size_t mi, caps::IdTriple from,
                                        std::uint32_t triple, bool priv,
                                        const ArgValues& args,
                                        const std::array<std::size_t, 3>& n);
  bool fire(const Message& m, int j);
  bool may_hold(const Goal& g) const;

  const Query* q_ = nullptr;
  const AccessChecker* ck_ = nullptr;
  AttackerModel model_ = AttackerModel::Full;

  std::array<int, kMaxIds> ids_{};  // sorted distinct ids
  std::size_t n_ids_ = 0;
  std::array<std::uint16_t, kMaxModes> modes_{};  // sorted distinct modes
  std::size_t n_modes_ = 0;
  Bits users_ = 0;   // the user pool, over the id table
  Bits groups_ = 0;  // the group pool
  Bits fires_ = 0;   // messages whose process is running initially
  Bits setid_ = 0;   // set*id messages

  // Per process, its representative credentials: only the slots an
  // AccessChecker may read vary (rosa/checker.h), and the supplementary
  // list is the process's own.
  std::vector<caps::Credentials> reps_;

  Facts init_;
  Facts cur_;
  // Credentials closures computed for this world: key = set*id message
  // bits, creds = {uid, gid} per process.
  std::vector<Bits> closure_keys_;
  std::vector<std::array<std::array<Bits, 3>, 2>> closure_creds_;
  std::array<Seen, 64> seen_{};  // per message, for the closure being built
  // What set*id message mi does to one triple (the slot values of its
  // successful instantiations), remembered for this world's other closures:
  // an open-addressed table, keyed by message, triple and privileged flag.
  struct Memo {
    std::uint32_t key = 0;
    std::uint32_t stamp = 0;  // the world it belongs to (0: empty)
    std::array<Bits, 3> out{};
  };
  static constexpr std::size_t kMemoSize = 128;
  std::vector<Memo> memo_;
  std::uint32_t stamp_ = 0;
  std::array<Bits, 3> no_memo_{};

};

bool Abstraction::load(const Query& q) {
  const State& st = q.initial;
  if (st.files.size() > kMaxFiles) return false;
  q_ = &q;
  ck_ = q.checker ? q.checker : &linux_checker();
  model_ = q.attacker;

  // The id table: every uid or gid a slot, an owner or a group can take.
  // The mode table: every mode a file can take (at most kMaxModes, see
  // above).
  n_ids_ = n_modes_ = 0;
  bool fits = true;
  auto add_id_value = [&](int id) {
    fits = insert_sorted(ids_, n_ids_, id) && fits;
  };
  auto add_modes = [&](std::uint16_t bits) {
    insert_sorted(modes_, n_modes_, bits);
    insert_sorted(modes_, n_modes_,
                  static_cast<std::uint16_t>(
                      bits & ~(os::Mode::kSetuid | os::Mode::kSetgid)));
  };
  for (int u : st.users()) add_id_value(u);
  for (int g : st.groups()) add_id_value(g);
  for (const ProcObj& p : st.procs)
    for (int v : {p.uid.real, p.uid.effective, p.uid.saved, p.gid.real,
                  p.gid.effective, p.gid.saved})
      add_id_value(v);
  for (const FileObj& f : st.files) {
    add_id_value(f.meta.owner);
    add_id_value(f.meta.group);
    add_modes(f.meta.mode.bits());
  }
  for (const Message& m : q.messages) {
    switch (m.sys) {
      case Sys::Chmod:
      case Sys::Fchmod:
        add_modes(os::Mode(static_cast<std::uint16_t>(
                               m.args[1] == kWild ? 0777 : m.args[1]))
                      .bits());
        break;
      case Sys::Creat:
        add_modes(os::Mode(static_cast<std::uint16_t>(
                               m.args[1] == kWild ? 0666 : m.args[1]))
                      .bits());
        break;
      case Sys::Chown:
      case Sys::Fchown:
        for (std::size_t k : {1, 2})
          if (m.args[k] != kWild) add_id_value(m.args[k]);
        break;
      default:
        if (is_setid(m.sys))
          for (int a : m.args)
            if (a != kWild) add_id_value(a);
        break;
    }
  }
  if (!fits) return false;

  users_ = groups_ = 0;
  for (int u : st.users()) users_ |= bit(id_index(u));
  for (int g : st.groups()) groups_ |= bit(id_index(g));

  reps_.resize(st.procs.size());
  init_.procs.assign(st.procs.size(), ProcFacts{});
  for (std::size_t j = 0; j < st.procs.size(); ++j) {
    const ProcObj& p = st.procs[j];
    caps::Credentials& rep = reps_[j];
    rep.supplementary.assign(p.supplementary.begin(), p.supplementary.end());
    std::sort(rep.supplementary.begin(), rep.supplementary.end());
    rep.supplementary.erase(
        std::unique(rep.supplementary.begin(), rep.supplementary.end()),
        rep.supplementary.end());
    ProcFacts& pf = init_.procs[j];
    pf.uid = {bit(id_index(p.uid.real)), bit(id_index(p.uid.effective)),
              bit(id_index(p.uid.saved))};
    pf.gid = {bit(id_index(p.gid.real)), bit(id_index(p.gid.effective)),
              bit(id_index(p.gid.saved))};
    for (int id : p.rdfset) pf.rd |= bit(file_bit(id));
    for (int id : p.wrfset) pf.wr |= bit(file_bit(id));
    pf.dead = !p.running;
    for (const SockObj& s : st.socks)
      if (s.owner_proc == p.id && s.port != -1 &&
          s.port <= os::kPrivilegedPortMax)
        pf.privport = true;
  }
  init_.files.assign(st.files.size() + 1, FileFacts{});
  for (std::size_t f = 0; f < st.files.size(); ++f) {
    const os::FileMeta& meta = st.files[f].meta;
    FileFacts& ff = init_.files[f];
    ff.owners = bit(id_index(meta.owner));
    ff.groups = bit(id_index(meta.group));
    add_mode(ff.modes, mode_index(meta.mode.bits()));
  }
  init_.dirs.clear();
  for (const DirObj& d : st.dirs)
    init_.dirs.push_back(d.inode == -1 ? bit(kDangling)
                                       : bit(file_bit(d.inode)));
  init_.created = false;

  fires_ = setid_ = 0;
  for (std::size_t i = 0; i < q.messages.size(); ++i) {
    const int j = proc_index(q.messages[i].proc);
    if (j >= 0 && st.procs[static_cast<std::size_t>(j)].running)
      fires_ |= bit(static_cast<int>(i));
    if (is_setid(q.messages[i].sys)) setid_ |= bit(static_cast<int>(i));
  }
  closure_keys_.clear();
  closure_creds_.clear();
  if (memo_.empty() || ++stamp_ == 0) {
    memo_.assign(kMemoSize, Memo{});
    stamp_ = 1;
  }
  return true;
}

bool Abstraction::any_rep(int j, FnRef<bool(const caps::Credentials&)> fn) {
  caps::Credentials& c = reps_[static_cast<std::size_t>(j)];
  const ProcFacts& pf = cur_.procs[static_cast<std::size_t>(j)];
  c.uid.saved = ids_[std::countr_zero(pf.uid[2])];
  c.gid.real = ids_[std::countr_zero(pf.gid[0])];
  c.gid.saved = ids_[std::countr_zero(pf.gid[2])];
  return any_bit(pf.uid[0], [&](int r) {
    c.uid.real = ids_[r];
    return any_bit(pf.uid[1], [&](int e) {
      c.uid.effective = ids_[e];
      return any_bit(pf.gid[1], [&](int g) {
        c.gid.effective = ids_[g];
        return fn(c);
      });
    });
  });
}

bool Abstraction::any_meta(int f,
                           FnRef<bool(const os::FileMeta&)> fn) const {
  const FileFacts& ff = cur_.files[static_cast<std::size_t>(f)];
  os::FileMeta meta;
  return any_bit(ff.owners, [&](int o) {
    meta.owner = ids_[o];
    return any_bit(ff.groups, [&](int g) {
      meta.group = ids_[g];
      return any_mode(ff.modes, [&](int m) {
        meta.mode = os::Mode(modes_[m]);
        return fn(meta);
      });
    });
  });
}

// --- credentials ------------------------------------------------------------

/// One set*id message of process j, fired on every triple in the product of
/// its slot sets, with every instantiation of the arguments and every value
/// setid_privileged may return, through the caps functions the rules call.
/// `seen` is what the message last ran against in this closure: the slot
/// sets and the privileged values. Triples inside that product were applied
/// then, so only the new ones run (semi-naive evaluation).
bool Abstraction::close_setid(std::size_t mi, Seen& seen) {
  const Message& m = q_->messages[mi];
  const int j = proc_index(m.proc);
  const bool is_uid = is_uid_call(m.sys);
  ProcFacts& pf = cur_.procs[static_cast<std::size_t>(j)];
  std::array<Bits, 3>& slots = is_uid ? pf.uid : pf.gid;
  const std::size_t n_args =
      m.sys == Sys::Setresuid || m.sys == Sys::Setresgid ? 3 : 1;
  // Argument values, as ids; unused positions hold one ignored value.
  ArgValues args{};
  std::array<std::size_t, 3> n_vals = {1, 1, 1};
  Bits arg_values = 0;
  for (std::size_t k = 0; k < n_args; ++k) {
    const Bits vals = id_cands(m.args[k], is_uid ? users_ : groups_);
    if (!vals) return false;
    arg_values |= vals;
    n_vals[k] = 0;
    any_bit(vals, [&](int v) {
      args[k][n_vals[k]++] = ids_[v];
      return false;
    });
  }
  // The functions write only argument values and ids of the triple, so no
  // slot can grow past the union of both.
  const Bits bound = slots[0] | slots[1] | slots[2] | arg_values;
  auto at_bound = [&] {
    return slots[0] == bound && slots[1] == bound && slots[2] == bound;
  };
  if (at_bound()) return false;

  unsigned privs = 0;  // bit 1: may be privileged, bit 0: may be not
  if (any_rep(j, [&](const caps::Credentials& c) {
        return ck_->setid_privileged(c, m.privs, is_uid);
      }))
    privs |= 2;
  if (any_rep(j, [&](const caps::Credentials& c) {
        return !ck_->setid_privileged(c, m.privs, is_uid);
      }))
    privs |= 1;
  const std::array<Bits, 3> from = slots;
  bool changed = false;
  for (const bool priv : {true, false}) {
    const unsigned pbit = priv ? 2 : 1;
    if (!(privs & pbit)) continue;
    const bool again = seen.privs & pbit;
    const bool full = any_bit(from[0], [&](int r) {
      return any_bit(from[1], [&](int e) {
        return any_bit(from[2], [&](int s) {
          if (again && has(seen.slots[0], r) && has(seen.slots[1], e) &&
              has(seen.slots[2], s))
            return false;
          const std::array<Bits, 3>& out = fire_setid(
              mi, caps::IdTriple{ids_[r], ids_[e], ids_[s]},
              static_cast<std::uint32_t>((r << 13) | (e << 7) | (s << 1)),
              priv, args, n_vals);
          for (std::size_t k = 0; k < 3; ++k) {
            changed |= (out[k] & ~slots[k]) != 0;
            slots[k] |= out[k];
          }
          return at_bound();
        });
      });
    });
    if (full) break;
  }
  seen.slots = from;
  seen.privs |= privs;
  return changed;
}

/// The slot values set*id message mi's successful instantiations leave on
/// the triple `from` (with indices packed in `triple`) under `priv`.
const std::array<Bits, 3>& Abstraction::fire_setid(
    std::size_t mi, caps::IdTriple from, std::uint32_t triple, bool priv,
    const ArgValues& args, const std::array<std::size_t, 3>& n) {
  const std::uint32_t key =
      (static_cast<std::uint32_t>(mi) << 19) | triple | (priv ? 1u : 0u);
  Memo* slot = nullptr;
  for (std::size_t probe = 0; probe < 8; ++probe) {
    Memo& e = memo_[(((key * 0x9E3779B1u) >> 25) + probe) & (kMemoSize - 1)];
    if (e.stamp == stamp_ && e.key == key) return e.out;
    if (e.stamp != stamp_) {
      slot = &e;
      break;
    }
  }
  std::array<Bits, 3>& out = slot ? slot->out : no_memo_;
  out = {};
  const Message& m = q_->messages[mi];
  for (std::size_t x = 0; x < n[0]; ++x)
    for (std::size_t y = 0; y < n[1]; ++y)
      for (std::size_t z = 0; z < n[2]; ++z) {
        caps::IdTriple t = from;
        caps::CredChange res;
        switch (m.sys) {
          case Sys::Setuid:
          case Sys::Setgid:
            res = caps::apply_setuid(t, args[0][x], priv);
            break;
          case Sys::Seteuid:
          case Sys::Setegid:
            res = caps::apply_seteuid(t, args[0][x], priv);
            break;
          default:
            res = caps::apply_setresuid(t, args[0][x], args[1][y],
                                        args[2][z], priv);
            break;
        }
        if (res != caps::CredChange::Ok) continue;
        add_id(out[0], t.real);
        add_id(out[1], t.effective);
        add_id(out[2], t.saved);
      }
  if (slot) {
    slot->key = key;
    slot->stamp = stamp_;
  }
  return out;
}

/// Close every process's slot sets under `setid_msgs`, or reuse the closure
/// an earlier mask of this world computed for the same messages.
void Abstraction::close_credentials(Bits setid_msgs) {
  const std::size_t n = cur_.procs.size();
  for (std::size_t k = 0; k < closure_keys_.size(); ++k) {
    if (closure_keys_[k] != setid_msgs) continue;
    for (std::size_t j = 0; j < n; ++j) {
      cur_.procs[j].uid = closure_creds_[k * n + j][0];
      cur_.procs[j].gid = closure_creds_[k * n + j][1];
    }
    return;
  }
  seen_.fill(Seen{});
  for (bool changed = true; changed;) {
    changed = false;
    any_bit(setid_msgs, [&](int i) {
      const std::size_t mi = static_cast<std::size_t>(i);
      changed |= close_setid(mi, seen_[mi]);
      return false;
    });
  }
  closure_keys_.push_back(setid_msgs);
  for (std::size_t j = 0; j < n; ++j)
    closure_creds_.push_back({cur_.procs[j].uid, cur_.procs[j].gid});
}

// --- objects ----------------------------------------------------------------

/// One non-set*id message of process j, applied to the current facts (the
/// abstract twin of its rule in rules.cpp). True if any fact grew.
bool Abstraction::fire(const Message& m, int j) {
  ProcFacts& pf = cur_.procs[static_cast<std::size_t>(j)];
  const caps::CapSet privs = m.privs;
  const bool fixed_args = model_ == AttackerModel::FixedArgs;
  bool changed = false;
  switch (m.sys) {
    case Sys::Open: {
      const std::array<int, 3> all_modes = {kAccRead, kAccWrite,
                                            kAccRead | kAccWrite};
      const std::array<int, 3> modes =
          m.args[1] == kWild ? all_modes : std::array<int, 3>{m.args[1]};
      const std::size_t n_modes =
          m.args[1] != kWild ? 1 : fixed_args ? 0 : 3;
      any_bit(file_cands(m.args[0]), [&](int f) {
        for (std::size_t k = 0; k < n_modes; ++k) {
          const int mode = modes[k];
          if (!((mode & kAccRead) && !has(pf.rd, f)) &&
              !((mode & kAccWrite) && !has(pf.wr, f)))
            continue;
          const bool ok = any_rep(j, [&](const caps::Credentials& c) {
            return path_ok(c, privs, f) &&
                   any_meta(f, [&](const os::FileMeta& meta) {
                     return (!(mode & kAccRead) ||
                             ck_->file_access(c, privs, meta,
                                              os::AccessKind::Read)) &&
                            (!(mode & kAccWrite) ||
                             ck_->file_access(c, privs, meta,
                                              os::AccessKind::Write));
                   });
          });
          if (!ok) continue;
          if (mode & kAccRead) pf.rd |= bit(f);
          if (mode & kAccWrite) pf.wr |= bit(f);
          changed = true;
        }
        return false;
      });
      return changed;
    }
    case Sys::Chmod:
    case Sys::Fchmod: {
      const bool through_fd = m.sys == Sys::Fchmod;
      if (m.args[1] == kWild && fixed_args) return false;
      const int mode = mode_index(
          os::Mode(static_cast<std::uint16_t>(
                       m.args[1] == kWild ? 0777 : m.args[1]))
              .bits());
      any_bit(file_cands(m.args[0]), [&](int f) {
        FileFacts& ff = cur_.files[static_cast<std::size_t>(f)];
        if (has_mode(ff.modes, mode)) return false;
        if (through_fd && !has(pf.rd | pf.wr, f)) return false;
        const bool ok = any_rep(j, [&](const caps::Credentials& c) {
          return (through_fd || path_ok(c, privs, f)) &&
                 any_meta(f, [&](const os::FileMeta& meta) {
                   return ck_->can_chmod(c, privs, meta);
                 });
        });
        if (ok) {
          add_mode(ff.modes, mode);
          changed = true;
        }
        return false;
      });
      return changed;
    }
    case Sys::Chown:
    case Sys::Fchown: {
      const bool through_fd = m.sys == Sys::Fchown;
      const Bits owners = id_cands(m.args[1], users_);
      const Bits groups = id_cands(m.args[2], groups_);
      if (!owners || !groups) return false;
      any_bit(file_cands(m.args[0]), [&](int f) {
        if (through_fd && !has(pf.rd | pf.wr, f)) return false;
        FileFacts& ff = cur_.files[static_cast<std::size_t>(f)];
        // chown clears setuid/setgid, as in the kernel.
        ModeSet cleared{};
        any_mode(ff.modes, [&](int mi) {
          add_mode(cleared,
                   mode_index(static_cast<std::uint16_t>(
                       modes_[static_cast<std::size_t>(mi)] &
                       ~(os::Mode::kSetuid | os::Mode::kSetgid))));
          return false;
        });
        any_bit(owners, [&](int o) {
          return any_bit(groups, [&](int g) {
            if (has(ff.owners, o) && has(ff.groups, g) &&
                covers(ff.modes, cleared))
              return false;
            const bool ok = any_rep(j, [&](const caps::Credentials& c) {
              return (through_fd || path_ok(c, privs, f)) &&
                     any_meta(f, [&](const os::FileMeta& meta) {
                       return ck_->can_chown(c, privs, meta, ids_[o],
                                             ids_[g]);
                     });
            });
            if (!ok) return false;
            ff.owners |= bit(o);
            ff.groups |= bit(g);
            for (std::size_t k = 0; k < cleared.size(); ++k)
              ff.modes[k] |= cleared[k];
            changed = true;
            return false;
          });
        });
        return false;
      });
      return changed;
    }
    case Sys::Unlink: {
      // The first entry naming the file goes dangling; any entry that may
      // name it may be the first.
      any_bit(file_cands(m.args[0]), [&](int f) {
        for (std::size_t d = 0; d < st().dirs.size(); ++d) {
          Bits& entry = cur_.dirs[d];
          if (!has(entry, f) || has(entry, kDangling)) continue;
          const bool ok = any_rep(j, [&](const caps::Credentials& c) {
            return ck_->path_lookup_allowed(c, privs) &&
                   any_meta(f, [&](const os::FileMeta& meta) {
                     return ck_->can_unlink(c, privs, dir_meta(d), meta);
                   });
          });
          if (!ok) continue;
          entry |= bit(kDangling);
          changed = true;
        }
        return false;
      });
      return changed;
    }
    case Sys::Rename: {
      const Bits tos = file_cands(m.args[1]);
      any_bit(file_cands(m.args[0]), [&](int a) {
        return any_bit(tos, [&](int b) {
          // Two created files may be renamed onto each other, and both are
          // the summary.
          if (a == b && a != summary()) return false;
          for (std::size_t d1 = 0; d1 < st().dirs.size(); ++d1) {
            if (!has(cur_.dirs[d1], a)) continue;
            for (std::size_t d2 = 0; d2 < st().dirs.size(); ++d2) {
              if (d2 == d1 || !has(cur_.dirs[d2], b)) continue;
              if (has(cur_.dirs[d2], a) && has(cur_.dirs[d1], kDangling))
                continue;
              const bool ok = any_rep(j, [&](const caps::Credentials& c) {
                return ck_->path_lookup_allowed(c, privs) &&
                       any_meta(a, [&](const os::FileMeta& ma) {
                         return ck_->can_unlink(c, privs, dir_meta(d1), ma);
                       }) &&
                       any_meta(b, [&](const os::FileMeta& mb) {
                         return ck_->can_unlink(c, privs, dir_meta(d2), mb);
                       });
              });
              if (!ok) continue;
              cur_.dirs[d2] |= bit(a);
              cur_.dirs[d1] |= bit(kDangling);
              changed = true;
            }
          }
          return false;
        });
      });
      return changed;
    }
    case Sys::Creat: {
      if (m.args[1] == kWild && fixed_args) return false;
      const int mode = mode_index(
          os::Mode(static_cast<std::uint16_t>(
                       m.args[1] == kWild ? 0666 : m.args[1]))
              .bits());
      const int s = summary();
      FileFacts& created = cur_.files[static_cast<std::size_t>(s)];
      for_dangling_dirs(m.args[0], [&](std::size_t d) {
        // The new file's owner and group are the creator's euid and egid,
        // so every representative that may create contributes.
        any_rep(j, [&](const caps::Credentials& c) {
          if (!ck_->path_lookup_allowed(c, privs) ||
              !ck_->dir_search(c, privs, dir_meta(d)) ||
              !ck_->file_access(c, privs, dir_meta(d),
                                os::AccessKind::Write))
            return false;
          if (!cur_.created || !has_mode(created.modes, mode) ||
              !has(cur_.dirs[d], s))
            changed = true;
          if (add_id(created.owners, c.uid.effective)) changed = true;
          if (add_id(created.groups, c.gid.effective)) changed = true;
          add_mode(created.modes, mode);
          cur_.dirs[d] |= bit(s);
          cur_.created = true;
          return false;
        });
      });
      return changed;
    }
    case Sys::Link: {
      any_bit(file_cands(m.args[0]), [&](int f) {
        for_dangling_dirs(m.args[1], [&](std::size_t d) {
          if (has(cur_.dirs[d], f)) return;
          const bool ok = any_rep(j, [&](const caps::Credentials& c) {
            return path_ok(c, privs, f) &&
                   ck_->dir_search(c, privs, dir_meta(d)) &&
                   ck_->file_access(c, privs, dir_meta(d),
                                    os::AccessKind::Write);
          });
          if (!ok) return;
          cur_.dirs[d] |= bit(f);
          changed = true;
        });
        return false;
      });
      return changed;
    }
    case Sys::Kill: {
      if (m.args[1] == kWild && fixed_args) return false;
      if ((m.args[1] == kWild ? 9 : m.args[1]) != 9) return false;
      for (std::size_t t = 0; t < st().procs.size(); ++t) {
        if (m.args[0] == kWild ? fixed_args || static_cast<int>(t) == j
                               : st().procs[t].id != m.args[0])
          continue;
        // A target not running initially never runs; one that may already
        // be dead gains nothing.
        if (!st().procs[t].running || cur_.procs[t].dead) continue;
        const std::array<Bits, 3>& tu = cur_.procs[t].uid;
        const bool ok = any_rep(j, [&](const caps::Credentials& c) {
          return any_bit(tu[0], [&](int r) {
            return any_bit(tu[1], [&](int e) {
              return any_bit(tu[2], [&](int s) {
                return ck_->can_kill(c, privs,
                                     caps::IdTriple{ids_[r], ids_[e], ids_[s]});
              });
            });
          });
        });
        if (!ok) continue;
        cur_.procs[t].dead = true;
        changed = true;
      }
      return changed;
    }
    case Sys::Socket: {
      if (pf.sock || (m.args[0] == kWild && fixed_args)) return false;
      const int type = m.args[0] == kWild ? 0 : m.args[0];
      if (type == 1 && !any_rep(j, [&](const caps::Credentials& c) {
            return ck_->can_raw_socket(c, privs);
          }))
        return false;
      pf.sock = true;
      return true;
    }
    case Sys::Bind: {
      if (pf.privport) return false;
      // A socket the process owns unbound: one it started with, or one it
      // created (whose fresh id a fixed argument may name).
      bool usable = pf.sock;
      for (const SockObj& s : st().socks)
        if (s.owner_proc == m.proc && s.port == -1 &&
            (m.args[0] == kWild || s.id == m.args[0]))
          usable = true;
      if (!usable) return false;
      auto try_port = [&](int port) {
        return port != -1 && port <= os::kPrivilegedPortMax &&
               any_rep(j, [&](const caps::Credentials& c) {
                 return ck_->can_bind(c, privs, port);
               });
      };
      bool bound = false;
      if (m.args[1] != kWild)
        bound = try_port(m.args[1]);
      else if (!fixed_args)
        for (int port : wildcard_port_pool()) bound = bound || try_port(port);
      pf.privport = bound;
      return bound;
    }
    default:
      // connect(2) changes no modelled state; set*id closes beforehand.
      return false;
  }
}

bool Abstraction::may_hold(const Goal& g) const {
  // Processes are never created, so a goal about a missing one never holds.
  const int j = proc_index(g.proc);
  if (j < 0) return false;
  const ProcFacts& pf = cur_.procs[static_cast<std::size_t>(j)];
  switch (g.kind) {
    case Goal::Kind::Rdfset:
    case Goal::Kind::Wrfset: {
      // A file the initial state lacks may be a created one: never proved.
      const int file = file_index(g.file);
      return file < 0 ||
             has(g.kind == Goal::Kind::Rdfset ? pf.rd : pf.wr, file);
    }
    case Goal::Kind::PrivPort:
      return pf.privport;
    case Goal::Kind::Terminated:
      return pf.dead;
    case Goal::Kind::None:
      break;
  }
  return true;
}

Bits Abstraction::prove(std::span<const Query> world, Bits mask,
                        Bits pending) {
  const Bits fireable = mask & fires_;
  cur_.procs.assign(init_.procs.begin(), init_.procs.end());
  cur_.files.assign(init_.files.begin(), init_.files.end());
  cur_.dirs.assign(init_.dirs.begin(), init_.dirs.end());
  cur_.created = false;
  close_credentials(fireable & setid_);

  // Drop the members whose goals may hold; true once none is left.
  auto settle = [&] {
    any_bit(pending, [&](int i) {
      if (may_hold(world[static_cast<std::size_t>(i)].goal))
        pending &= ~bit(i);
      return false;
    });
    return pending == 0;
  };
  if (settle()) return 0;
  const Bits objects = fireable & ~setid_;
  for (bool changed = true; changed;) {
    changed = false;
    const bool settled = any_bit(objects, [&](int i) {
      const std::size_t mi = static_cast<std::size_t>(i);
      const Message& m = q_->messages[mi];
      if (!fire(m, proc_index(m.proc))) return false;
      changed = true;
      return settle();
    });
    if (settled) return 0;
  }
  return pending;
}

}  // namespace detail

Prover::Prover() = default;
Prover::~Prover() = default;

std::uint64_t Prover::prove_unreachable(std::span<const Query> world,
                                        const SearchLimits& limits) {
  PA_FAULTPOINT("rosa.prove");
  if (world.empty() || limits.expired()) return 0;
  PA_CHECK(world.size() <= 64, "prove_unreachable: at most 64 members");
  const Query& first = world[0];
  PA_CHECK(first.messages.size() <= 64,
           "ROSA tracks at most 64 one-shot messages");
  for (const Query& q : world) {
    PA_CHECK(static_cast<bool>(q.goal), "query has no goal predicate");
    PA_CHECK(q.messages.size() == first.messages.size() &&
                 q.attacker == first.attacker && q.checker == first.checker,
             "prove_unreachable: members must share one world");
  }
  const Bits all = low_bits(first.messages.size());

  // 1. Trivial proofs, by the enabling contract (rosa/query.h): a message of
  // any other syscall never turns a false goal true.
  Bits proved = 0;
  Bits open = 0;  // members left for the fixpoint
  for (std::size_t i = 0; i < world.size(); ++i) {
    const Query& q = world[i];
    if (q.goal(q.initial)) continue;
    const SysSet enabling = q.goal.enabling();
    const bool enabled = any_bit(q.msg_mask & all, [&](int m) {
      return (sys_bit(q.messages[static_cast<std::size_t>(m)].sys) &
              enabling) != 0;
    });
    (enabled ? open : proved) |= bit(static_cast<int>(i));
  }
  if (!open) return proved;

  // 2-3. The abstraction, once per distinct mask; the credentials closure
  // inside is shared by masks with the same set*id messages.
  if (!abstraction_) abstraction_ = std::make_unique<detail::Abstraction>();
  detail::Abstraction& abstraction = *abstraction_;
  if (!abstraction.load(first)) return proved;
  while (open) {
    if (limits.expired()) break;
    const Bits mask =
        world[static_cast<std::size_t>(std::countr_zero(open))].msg_mask & all;
    Bits members = 0;
    any_bit(open, [&](int i) {
      if ((world[static_cast<std::size_t>(i)].msg_mask & all) == mask)
        members |= bit(i);
      return false;
    });
    open &= ~members;
    proved |= abstraction.prove(world, mask, members);
  }
  return proved;
}

SearchResult proved_result() {
  SearchResult r;
  r.verdict = Verdict::Unreachable;
  r.stats.proved = 1;
  return r;
}

}  // namespace pa::rosa
