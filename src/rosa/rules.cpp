#include "rosa/rules.h"

#include <cassert>

#include "rosa/checker.h"

#include "support/error.h"

namespace pa::rosa {
namespace {

using caps::Capability;
using os::AccessKind;
using os::Actor;

// Access decisions are delegated to an AccessChecker; the privileges a
// check sees are the message's own privilege set (privileges are an
// attribute of the syscall message, not the process — §V-B).

/// Candidate values for one possibly-wildcard argument. A FixedArgs
/// attacker cannot corrupt arguments, so wildcards have no instantiations.
std::vector<int> expand(int arg, const std::vector<int>& pool,
                        AttackerModel model) {
  if (arg != kWild) return {arg};
  if (model == AttackerModel::FixedArgs) return {};
  return pool;
}

std::vector<int> file_ids(const State& st) {
  std::vector<int> ids;
  ids.reserve(st.files.size());
  for (const FileObj& f : st.files) ids.push_back(f.id);
  return ids;
}

/// Pathname lookup (§V-B): if the state models directories at all, a file is
/// reachable only through a directory entry whose inode refers to it, and
/// the caller needs search permission on that entry's directory. Checkers
/// that forbid path lookup entirely (Capsicum's capability mode) veto here.
bool path_ok(const State& st, const caps::Credentials& creds,
             caps::CapSet privs, int file_id, const AccessChecker& ck) {
  if (!ck.path_lookup_allowed(creds, privs)) return false;
  if (st.dirs.empty()) return true;  // pathless model
  // A file may have several names (link()); any searchable entry suffices.
  bool has_entry = false;
  for (const DirObj& dir : st.dirs) {
    if (dir.inode != file_id) continue;
    has_entry = true;
    if (ck.dir_search(creds, privs, dir.meta)) return true;
  }
  (void)has_entry;
  return false;
}

std::vector<int> dangling_dir_ids(const State& st) {
  std::vector<int> ids;
  for (const DirObj& d : st.dirs)
    if (d.inode == -1) ids.push_back(d.id);
  return ids;
}

void emit(std::vector<Transition>& out, State next, Action action) {
  // Successors are normalized by construction: the rules mutate objects in
  // place (id order untouched) and new objects take next_object_id(), which
  // exceeds every existing id. Re-sorting here would discard the
  // incrementally maintained digest, so verify instead of normalize.
  assert(next.is_normalized());
  out.push_back(Transition{std::move(next), std::move(action)});
}

// --- Per-syscall rules ------------------------------------------------------

void rule_open(const State& st, const Message& m, const ProcObj& p,
               AttackerModel model, const AccessChecker& ck,
               std::vector<Transition>& out) {
  std::vector<int> modes;
  if (m.args[1] != kWild)
    modes = {m.args[1]};
  else if (model != AttackerModel::FixedArgs)
    modes = {kAccRead, kAccWrite, kAccRead | kAccWrite};
  const caps::Credentials creds = p.creds();
  for (int fid : expand(m.args[0], file_ids(st), model)) {
    const FileObj* f = st.find_file(fid);
    if (!f) continue;
    if (!path_ok(st, creds, m.privs, fid, ck)) continue;
    for (int mode : modes) {
      if ((mode & kAccRead) &&
          !ck.file_access(creds, m.privs, f->meta, AccessKind::Read))
        continue;
      if ((mode & kAccWrite) &&
          !ck.file_access(creds, m.privs, f->meta, AccessKind::Write))
        continue;
      State next = st;
      const bool changed = next.mutate_proc(p.id, [&](ProcObj& np) {
        bool c = false;
        if (mode & kAccRead) c |= np.rdfset.insert(fid);
        if (mode & kAccWrite) c |= np.wrfset.insert(fid);
        return c;
      });
      if (!changed) continue;
      emit(out, std::move(next),
           Action{Sys::Open, p.id, {fid, mode}, m.privs});
    }
  }
}

void rule_chmod(const State& st, const Message& m, const ProcObj& p,
                AttackerModel model, const AccessChecker& ck,
                bool through_fd, std::vector<Transition>& out) {
  if (m.args[1] == kWild && model == AttackerModel::FixedArgs) return;
  const int mode_bits = m.args[1] == kWild ? 0777 : m.args[1];
  const caps::Credentials creds = p.creds();
  for (int fid : expand(m.args[0], file_ids(st), model)) {
    const FileObj* f = st.find_file(fid);
    if (!f) continue;
    if (through_fd) {
      // fchmod needs the file already open in this process.
      if (!p.rdfset.contains(fid) && !p.wrfset.contains(fid)) continue;
    } else {
      if (!path_ok(st, creds, m.privs, fid, ck)) continue;
    }
    if (!ck.can_chmod(creds, m.privs, f->meta)) continue;
    os::Mode new_mode(static_cast<std::uint16_t>(mode_bits));
    if (f->meta.mode == new_mode) continue;
    State next = st;
    next.mutate_file(fid, [&](FileObj& nf) { nf.meta.mode = new_mode; });
    emit(out, std::move(next),
         Action{through_fd ? Sys::Fchmod : Sys::Chmod, p.id,
                {fid, mode_bits}, m.privs});
  }
}

void rule_chown(const State& st, const Message& m, const ProcObj& p,
                AttackerModel model, const AccessChecker& ck,
                bool through_fd, std::vector<Transition>& out) {
  const caps::Credentials creds = p.creds();
  for (int fid : expand(m.args[0], file_ids(st), model)) {
    const FileObj* f = st.find_file(fid);
    if (!f) continue;
    if (through_fd) {
      if (!p.rdfset.contains(fid) && !p.wrfset.contains(fid)) continue;
    } else {
      if (!path_ok(st, creds, m.privs, fid, ck)) continue;
    }
    for (int owner : expand(m.args[1], st.users(), model)) {
      for (int group : expand(m.args[2], st.groups(), model)) {
        if (!ck.can_chown(creds, m.privs, f->meta, owner, group)) continue;
        if (owner == f->meta.owner && group == f->meta.group) continue;
        State next = st;
        next.mutate_file(fid, [&](FileObj& nf) {
          nf.meta.owner = owner;
          nf.meta.group = group;
          // chown clears setuid/setgid, as in the kernel.
          nf.meta.mode = os::Mode(
              nf.meta.mode.bits() & ~(os::Mode::kSetuid | os::Mode::kSetgid));
        });
        emit(out, std::move(next),
             Action{through_fd ? Sys::Fchown : Sys::Chown, p.id,
                    {fid, owner, group}, m.privs});
      }
    }
  }
}

void rule_unlink(const State& st, const Message& m, const ProcObj& p,
                 AttackerModel model, const AccessChecker& ck,
                 std::vector<Transition>& out) {
  const caps::Credentials creds = p.creds();
  if (!ck.path_lookup_allowed(creds, m.privs)) return;
  for (int fid : expand(m.args[0], file_ids(st), model)) {
    const FileObj* f = st.find_file(fid);
    if (!f) continue;
    const DirObj* dir = st.parent_dir_of(fid);
    if (!dir) continue;
    if (!ck.can_unlink(creds, m.privs, dir->meta, f->meta)) continue;
    State next = st;
    next.mutate_dir(dir->id, [](DirObj& nd) { nd.inode = -1; });
    emit(out, std::move(next), Action{Sys::Unlink, p.id, {fid}, m.privs});
  }
}

void rule_rename(const State& st, const Message& m, const ProcObj& p,
                 AttackerModel model, const AccessChecker& ck,
                 std::vector<Transition>& out) {
  const caps::Credentials creds = p.creds();
  if (!ck.path_lookup_allowed(creds, m.privs)) return;
  for (int from : expand(m.args[0], file_ids(st), model)) {
    const FileObj* ff = st.find_file(from);
    const DirObj* fd = st.parent_dir_of(from);
    if (!ff || !fd) continue;
    for (int to : expand(m.args[1], file_ids(st), model)) {
      if (to == from) continue;
      const FileObj* tf = st.find_file(to);
      const DirObj* td = st.parent_dir_of(to);
      if (!tf || !td) continue;
      if (!ck.can_unlink(creds, m.privs, fd->meta, ff->meta)) continue;
      if (!ck.can_unlink(creds, m.privs, td->meta, tf->meta)) continue;
      State next = st;
      // Target entry now names `from`; the source entry is gone.
      next.mutate_dir(td->id, [&](DirObj& nd) { nd.inode = from; });
      next.mutate_dir(fd->id, [](DirObj& nd) { nd.inode = -1; });
      emit(out, std::move(next),
           Action{Sys::Rename, p.id, {from, to}, m.privs});
    }
  }
}

void rule_creat(const State& st, const Message& m, const ProcObj& p,
                AttackerModel model, const AccessChecker& ck,
                std::vector<Transition>& out) {
  if (m.args[1] == kWild && model == AttackerModel::FixedArgs) return;
  const int mode_bits = m.args[1] == kWild ? 0666 : m.args[1];
  const caps::Credentials creds = p.creds();
  if (!ck.path_lookup_allowed(creds, m.privs)) return;
  for (int did : expand(m.args[0], dangling_dir_ids(st), model)) {
    const DirObj* dir = st.find_dir(did);
    if (!dir || dir->inode != -1) continue;
    if (!ck.dir_search(creds, m.privs, dir->meta)) continue;
    if (!ck.file_access(creds, m.privs, dir->meta, AccessKind::Write))
      continue;
    State next = st;
    FileObj nf;
    nf.id = next.next_object_id();
    nf.meta = os::FileMeta{creds.uid.effective, creds.gid.effective,
                           os::Mode(static_cast<std::uint16_t>(mode_bits))};
    const int new_id = nf.id;
    next.add_file(std::move(nf));
    next.mutate_dir(did, [&](DirObj& nd) { nd.inode = new_id; });
    emit(out, std::move(next),
         Action{Sys::Creat, p.id, {did, mode_bits}, m.privs});
  }
}

void rule_link(const State& st, const Message& m, const ProcObj& p,
               AttackerModel model, const AccessChecker& ck,
               std::vector<Transition>& out) {
  const caps::Credentials creds = p.creds();
  if (!ck.path_lookup_allowed(creds, m.privs)) return;
  for (int fid : expand(m.args[0], file_ids(st), model)) {
    const FileObj* f = st.find_file(fid);
    if (!f) continue;
    // The source must be nameable by the caller.
    if (!path_ok(st, creds, m.privs, fid, ck)) continue;
    for (int did : expand(m.args[1], dangling_dir_ids(st), model)) {
      const DirObj* dir = st.find_dir(did);
      if (!dir || dir->inode != -1) continue;
      if (!ck.dir_search(creds, m.privs, dir->meta)) continue;
      if (!ck.file_access(creds, m.privs, dir->meta, AccessKind::Write))
        continue;
      State next = st;
      next.mutate_dir(did, [&](DirObj& nd) { nd.inode = fid; });
      emit(out, std::move(next),
           Action{Sys::Link, p.id, {fid, did}, m.privs});
    }
  }
}

template <typename ApplyFn>
void rule_set_id(const State& st, const Message& m, const ProcObj& p,
                 AttackerModel model, const AccessChecker& ck,
                 bool is_uid, ApplyFn apply,
                 std::vector<Transition>& out) {
  const std::vector<int>& pool = is_uid ? st.users() : st.groups();
  const bool privileged = ck.setid_privileged(p.creds(), m.privs, is_uid);
  // Wildcards range over the declared user/group objects; -1 additionally
  // means "keep" for the setres* forms (tried via the pool, which always
  // contains the current ids when the caller declared them).
  std::vector<std::vector<int>> choices;
  for (int arg : m.args) choices.push_back(expand(arg, pool, model));

  std::vector<int> pick(m.args.size(), 0);
  auto rec = [&](auto&& self, std::size_t i) -> void {
    if (i == choices.size()) {
      caps::IdTriple t = is_uid ? p.uid : p.gid;
      if (apply(t, pick, privileged) != caps::CredChange::Ok) return;
      if (t == (is_uid ? p.uid : p.gid)) return;
      State next = st;
      next.mutate_proc(p.id,
                       [&](ProcObj& np) { (is_uid ? np.uid : np.gid) = t; });
      emit(out, std::move(next), Action{m.sys, p.id, pick, m.privs});
      return;
    }
    for (int v : choices[i]) {
      pick[i] = v;
      self(self, i + 1);
    }
  };
  rec(rec, 0);
}

void rule_kill(const State& st, const Message& m, const ProcObj& p,
               AttackerModel model, const AccessChecker& ck,
               std::vector<Transition>& out) {
  std::vector<int> targets;
  if (m.args[0] != kWild) {
    targets.push_back(m.args[0]);
  } else if (model != AttackerModel::FixedArgs) {
    for (const ProcObj& t : st.procs)
      if (t.id != p.id) targets.push_back(t.id);
  }
  if (m.args[1] == kWild && model == AttackerModel::FixedArgs) return;
  const int signo = m.args[1] == kWild ? 9 : m.args[1];
  const caps::Credentials creds = p.creds();
  for (int tid : targets) {
    const ProcObj* t = st.find_proc(tid);
    if (!t || !t->running) continue;
    if (!ck.can_kill(creds, m.privs, t->uid)) continue;
    if (signo != 9) continue;  // only SIGKILL changes modelled state
    State next = st;
    next.mutate_proc(tid, [](ProcObj& np) { np.running = false; });
    emit(out, std::move(next),
         Action{Sys::Kill, p.id, {tid, signo}, m.privs});
  }
}

void rule_socket(const State& st, const Message& m, const ProcObj& p,
                 AttackerModel model, const AccessChecker& ck,
                 std::vector<Transition>& out) {
  if (m.args[0] == kWild && model == AttackerModel::FixedArgs) return;
  const int type = m.args[0] == kWild ? 0 : m.args[0];
  if (type == 1 && !ck.can_raw_socket(p.creds(), m.privs)) return;
  State next = st;
  SockObj s;
  s.id = next.next_object_id();
  s.owner_proc = p.id;
  next.add_sock(s);
  emit(out, std::move(next), Action{Sys::Socket, p.id, {type}, m.privs});
}

void rule_bind(const State& st, const Message& m, const ProcObj& p,
               AttackerModel model, const AccessChecker& ck,
               std::vector<Transition>& out) {
  std::vector<int> socks;
  if (m.args[0] != kWild) {
    socks.push_back(m.args[0]);
  } else {
    // The socket "argument" is a handle the attacker legitimately holds;
    // selecting among the process's own sockets is not data corruption.
    for (const SockObj& s : st.socks)
      if (s.owner_proc == p.id) socks.push_back(s.id);
  }
  const caps::Credentials creds = p.creds();
  for (int sid : socks) {
    const SockObj* s = st.find_sock(sid);
    if (!s || s->owner_proc != p.id || s->port != -1) continue;
    for (int port : expand(m.args[1], wildcard_port_pool(), model)) {
      if (!ck.can_bind(creds, m.privs, port)) continue;
      if (st.port_in_use(port)) continue;
      State next = st;
      next.mutate_sock(sid, [&](SockObj& ns) { ns.port = port; });
      emit(out, std::move(next),
           Action{Sys::Bind, p.id, {sid, port}, m.privs});
    }
  }
}

}  // namespace

const std::vector<int>& wildcard_port_pool() {
  static const std::vector<int> pool = {22, 80, 443, 8080};
  return pool;
}

std::string Action::to_string() const {
  std::string out;
  append_to(out);
  return out;
}

void Action::append_to(std::string& out) const {
  append_call(out, sys, proc, args, privs);
}

std::string_view attacker_model_name(AttackerModel m) {
  switch (m) {
    case AttackerModel::Full: return "full";
    case AttackerModel::CfiOrdered: return "cfi-ordered";
    case AttackerModel::FixedArgs: return "fixed-args";
  }
  return "?";
}

std::vector<Transition> apply_message(const State& st, const Message& m,
                                      AttackerModel model,
                                      const AccessChecker& ck) {
  std::vector<Transition> out;
  apply_message(st, m, model, ck, out);
  return out;
}

void apply_message(const State& st, const Message& m, AttackerModel model,
                   const AccessChecker& ck, std::vector<Transition>& out) {
  out.clear();
  const ProcObj* p = st.find_proc(m.proc);
  if (!p || !p->running) return;

  switch (m.sys) {
    case Sys::Open:
      rule_open(st, m, *p, model, ck, out);
      break;
    case Sys::Chmod:
      rule_chmod(st, m, *p, model, ck, /*through_fd=*/false, out);
      break;
    case Sys::Fchmod:
      rule_chmod(st, m, *p, model, ck, /*through_fd=*/true, out);
      break;
    case Sys::Chown:
      rule_chown(st, m, *p, model, ck, /*through_fd=*/false, out);
      break;
    case Sys::Fchown:
      rule_chown(st, m, *p, model, ck, /*through_fd=*/true, out);
      break;
    case Sys::Unlink:
      rule_unlink(st, m, *p, model, ck, out);
      break;
    case Sys::Rename:
      rule_rename(st, m, *p, model, ck, out);
      break;
    case Sys::Creat:
      rule_creat(st, m, *p, model, ck, out);
      break;
    case Sys::Link:
      rule_link(st, m, *p, model, ck, out);
      break;
    case Sys::Setuid:
      rule_set_id(st, m, *p, model, ck, true,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_setuid(t, a[0], priv);
                  },
                  out);
      break;
    case Sys::Seteuid:
      rule_set_id(st, m, *p, model, ck, true,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_seteuid(t, a[0], priv);
                  },
                  out);
      break;
    case Sys::Setresuid:
      rule_set_id(st, m, *p, model, ck, true,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_setresuid(t, a[0], a[1], a[2], priv);
                  },
                  out);
      break;
    case Sys::Setgid:
      rule_set_id(st, m, *p, model, ck, false,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_setuid(t, a[0], priv);
                  },
                  out);
      break;
    case Sys::Setegid:
      rule_set_id(st, m, *p, model, ck, false,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_seteuid(t, a[0], priv);
                  },
                  out);
      break;
    case Sys::Setresgid:
      rule_set_id(st, m, *p, model, ck, false,
                  [](caps::IdTriple& t, const std::vector<int>& a, bool priv) {
                    return caps::apply_setresuid(t, a[0], a[1], a[2], priv);
                  },
                  out);
      break;
    case Sys::Kill:
      rule_kill(st, m, *p, model, ck, out);
      break;
    case Sys::Socket:
      rule_socket(st, m, *p, model, ck, out);
      break;
    case Sys::Bind:
      rule_bind(st, m, *p, model, ck, out);
      break;
    case Sys::Connect:
      // connect(2) has no effect on any modelled security state.
      break;
  }
}

}  // namespace pa::rosa
