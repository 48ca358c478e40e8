#include "rosa/message.h"

#include <array>
#include <optional>
#include <utility>

#include "support/str.h"

namespace pa::rosa {
namespace {

constexpr std::array<std::pair<Sys, std::string_view>, 19> kSysNames = {{
    {Sys::Open, "open"},
    {Sys::Chmod, "chmod"},
    {Sys::Fchmod, "fchmod"},
    {Sys::Chown, "chown"},
    {Sys::Fchown, "fchown"},
    {Sys::Unlink, "unlink"},
    {Sys::Rename, "rename"},
    {Sys::Creat, "creat"},
    {Sys::Link, "link"},
    {Sys::Setuid, "setuid"},
    {Sys::Seteuid, "seteuid"},
    {Sys::Setresuid, "setresuid"},
    {Sys::Setgid, "setgid"},
    {Sys::Setegid, "setegid"},
    {Sys::Setresgid, "setresgid"},
    {Sys::Kill, "kill"},
    {Sys::Socket, "socket"},
    {Sys::Bind, "bind"},
    {Sys::Connect, "connect"},
}};

Message make(Sys sys, int proc, std::vector<int> args, caps::CapSet privs) {
  return Message{sys, proc, std::move(args), privs};
}

}  // namespace

std::string_view sys_name(Sys s) {
  for (const auto& [sys, name] : kSysNames)
    if (sys == s) return name;
  return "?";
}

std::optional<Sys> parse_sys(std::string_view name) {
  for (const auto& [sys, n] : kSysNames)
    if (n == name) return sys;
  return std::nullopt;
}

void append_call(std::string& out, Sys sys, int proc,
                 const std::vector<int>& args, caps::CapSet privs) {
  str::append(out, sys_name(sys), '(', proc);
  for (int a : args) str::append(out, ',', a);
  out += ",{";
  privs.append_to(out);
  out += "})";
}

std::string Message::to_string() const {
  std::string out;
  append_call(out, sys, proc, args, privs);
  return out;
}

Message msg_open(int proc, int file, int accmode, caps::CapSet privs) {
  return make(Sys::Open, proc, {file, accmode}, privs);
}
Message msg_chmod(int proc, int file, int mode_bits, caps::CapSet privs) {
  return make(Sys::Chmod, proc, {file, mode_bits}, privs);
}
Message msg_fchmod(int proc, int file, int mode_bits, caps::CapSet privs) {
  return make(Sys::Fchmod, proc, {file, mode_bits}, privs);
}
Message msg_chown(int proc, int file, int owner, int group,
                  caps::CapSet privs) {
  return make(Sys::Chown, proc, {file, owner, group}, privs);
}
Message msg_fchown(int proc, int file, int owner, int group,
                   caps::CapSet privs) {
  return make(Sys::Fchown, proc, {file, owner, group}, privs);
}
Message msg_unlink(int proc, int file, caps::CapSet privs) {
  return make(Sys::Unlink, proc, {file}, privs);
}
Message msg_rename(int proc, int from, int to, caps::CapSet privs) {
  return make(Sys::Rename, proc, {from, to}, privs);
}
Message msg_creat(int proc, int entry, int mode_bits, caps::CapSet privs) {
  return make(Sys::Creat, proc, {entry, mode_bits}, privs);
}
Message msg_link(int proc, int file, int entry, caps::CapSet privs) {
  return make(Sys::Link, proc, {file, entry}, privs);
}
Message msg_setuid(int proc, int uid, caps::CapSet privs) {
  return make(Sys::Setuid, proc, {uid}, privs);
}
Message msg_seteuid(int proc, int uid, caps::CapSet privs) {
  return make(Sys::Seteuid, proc, {uid}, privs);
}
Message msg_setresuid(int proc, int r, int e, int s, caps::CapSet privs) {
  return make(Sys::Setresuid, proc, {r, e, s}, privs);
}
Message msg_setgid(int proc, int gid, caps::CapSet privs) {
  return make(Sys::Setgid, proc, {gid}, privs);
}
Message msg_setegid(int proc, int gid, caps::CapSet privs) {
  return make(Sys::Setegid, proc, {gid}, privs);
}
Message msg_setresgid(int proc, int r, int e, int s, caps::CapSet privs) {
  return make(Sys::Setresgid, proc, {r, e, s}, privs);
}
Message msg_kill(int proc, int target, int signo, caps::CapSet privs) {
  return make(Sys::Kill, proc, {target, signo}, privs);
}
Message msg_socket(int proc, int type, caps::CapSet privs) {
  return make(Sys::Socket, proc, {type}, privs);
}
Message msg_bind(int proc, int sock, int port, caps::CapSet privs) {
  return make(Sys::Bind, proc, {sock, port}, privs);
}
Message msg_connect(int proc, int sock, int port, caps::CapSet privs) {
  return make(Sys::Connect, proc, {sock, port}, privs);
}

}  // namespace pa::rosa
