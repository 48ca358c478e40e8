// ROSA syscall messages: each message authorizes one process to execute one
// syscall at most once, with a set of privileges the call may use and
// arguments that may be wildcards (-1) to be instantiated from the state's
// object/user/group pools — the paper's mechanism for modelling attacks that
// corrupt syscall arguments.
#pragma once

#include <string>
#include <vector>

#include "caps/capability.h"

namespace pa::rosa {

/// Wildcard marker in message arguments.
inline constexpr int kWild = -1;

/// The syscalls ROSA models (§VI).
enum class Sys {
  Open,       // args: file, accmode(1=r,2=w,3=rw)
  Chmod,      // args: file, mode bits
  Fchmod,     // args: file (must be open in the process), mode bits
  Chown,      // args: file, new owner, new group
  Fchown,     // args: file (must be open), new owner, new group
  Unlink,     // args: file
  Rename,     // args: from file, to file
  Creat,      // args: dangling dir entry, mode bits (new file owned by euid)
  Link,       // args: existing file, dangling dir entry
  Setuid,     // args: uid
  Seteuid,    // args: uid
  Setresuid,  // args: r, e, s
  Setgid,     // args: gid
  Setegid,    // args: gid
  Setresgid,  // args: r, e, s
  Kill,       // args: target process, signo
  Socket,     // args: type (0 = stream, 1 = raw)
  Bind,       // args: socket, port
  Connect,    // args: socket, port
};

std::string_view sys_name(Sys s);
std::optional<Sys> parse_sys(std::string_view name);

/// Append the text of one call, as Message and Action render it:
/// "open(1,3,1,{CapSetuid})" (the process, then each argument).
void append_call(std::string& out, Sys sys, int proc,
                 const std::vector<int>& args, caps::CapSet privs);

/// Access-mode bits for Open messages.
inline constexpr int kAccRead = 1;
inline constexpr int kAccWrite = 2;

struct Message {
  Sys sys;
  int proc;                // process object the message is addressed to
  std::vector<int> args;   // kWild entries get instantiated during search
  caps::CapSet privs;      // privileges this call is allowed to use

  std::string to_string() const;
};

/// Convenience constructors mirroring the paper's message syntax.
Message msg_open(int proc, int file, int accmode, caps::CapSet privs);
Message msg_chmod(int proc, int file, int mode_bits, caps::CapSet privs);
Message msg_fchmod(int proc, int file, int mode_bits, caps::CapSet privs);
Message msg_chown(int proc, int file, int owner, int group, caps::CapSet privs);
Message msg_fchown(int proc, int file, int owner, int group, caps::CapSet privs);
Message msg_unlink(int proc, int file, caps::CapSet privs);
Message msg_rename(int proc, int from, int to, caps::CapSet privs);
Message msg_creat(int proc, int entry, int mode_bits, caps::CapSet privs);
Message msg_link(int proc, int file, int entry, caps::CapSet privs);
Message msg_setuid(int proc, int uid, caps::CapSet privs);
Message msg_seteuid(int proc, int uid, caps::CapSet privs);
Message msg_setresuid(int proc, int r, int e, int s, caps::CapSet privs);
Message msg_setgid(int proc, int gid, caps::CapSet privs);
Message msg_setegid(int proc, int gid, caps::CapSet privs);
Message msg_setresgid(int proc, int r, int e, int s, caps::CapSet privs);
Message msg_kill(int proc, int target, int signo, caps::CapSet privs);
Message msg_socket(int proc, int type, caps::CapSet privs);
Message msg_bind(int proc, int sock, int port, caps::CapSet privs);
Message msg_connect(int proc, int sock, int port, caps::CapSet privs);

}  // namespace pa::rosa
