#include "support/socket.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/diagnostics.h"
#include "support/faultpoint.h"
#include "support/str.h"

namespace pa::support {

namespace {

[[noreturn]] void fail_io(const std::string& what) {
  fail_stage(Stage::Daemon, DiagCode::ProtocolError, "",
             str::cat(what, ": ", std::strerror(errno)));
}

/// poll() one fd for `events`, retrying EINTR. Returns false on timeout.
bool poll_one(int fd, short events, int timeout_ms) {
  pollfd p{fd, events, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) fail_io("poll");
  }
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    fail_stage(Stage::Daemon, DiagCode::BadFieldValue, "",
               str::cat("bad unix socket path '", path, "' (empty or longer ",
                        "than ", sizeof(addr.sun_path) - 1, " bytes)"));
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Socket& Socket::operator=(Socket&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = o.fd_;
    o.fd_ = -1;
  }
  return *this;
}

void Socket::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::write_all(const void* data, std::size_t n) {
  PA_FAULTPOINT("daemon.write");
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      fail_io("socket write");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

bool Socket::read_exact(void* data, std::size_t n, int timeout_ms) {
  PA_FAULTPOINT("daemon.read");
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    if (!poll_one(fd_, POLLIN, timeout_ms))
      fail_stage(Stage::Daemon, DiagCode::ProtocolError, "",
                 "socket read timed out");
    const ssize_t r = ::read(fd_, p + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_io("socket read");
    }
    if (r == 0) {
      if (got == 0) return false;  // clean close between frames
      fail_stage(Stage::Daemon, DiagCode::ProtocolError, "",
                 str::cat("peer closed mid-frame (", got, " of ", n,
                          " bytes read)"));
    }
    got += static_cast<std::size_t>(r);
  }
  return true;
}

bool Socket::readable(int timeout_ms) {
  return poll_one(fd_, POLLIN, timeout_ms);
}

UnixListener::UnixListener(const std::string& path, int backlog) : path_(path) {
  const sockaddr_un addr = make_addr(path);
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd_ < 0) fail_io("socket");
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd_, backlog) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_io(str::cat("bind/listen on ", path));
  }
  if (::pipe(wake_pipe_) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    fail_io("pipe");
  }
}

UnixListener::~UnixListener() {
  shutdown();
  for (int& fd : wake_pipe_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
}

void UnixListener::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      ::unlink(path_.c_str());
    }
  }
  if (wake_pipe_[1] >= 0) {
    const char b = 0;
    [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &b, 1);
  }
}

std::optional<Socket> UnixListener::accept(int timeout_ms) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd = fd_;
  }
  if (fd < 0) return std::nullopt;
  // shutdown() may close `fd` during the poll; its wake-pipe byte ends the
  // poll, and the check under the lock below then sees the socket closed.
  pollfd ps[2] = {{fd, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
  for (;;) {
    const int r = ::poll(ps, 2, timeout_ms);
    if (r == 0) return std::nullopt;
    if (r < 0) {
      if (errno == EINTR) continue;
      fail_io("poll");
    }
    break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (ps[1].revents != 0 || fd_ < 0) return std::nullopt;  // shut down
  PA_FAULTPOINT("daemon.accept");
  for (;;) {
    const int c = ::accept(fd_, nullptr, nullptr);
    if (c >= 0) return Socket(c);
    if (errno == EINTR) continue;
    // A connection that was reset between poll and accept is not an error
    // worth reaping the listener over.
    if (errno == ECONNABORTED || errno == EAGAIN || errno == EWOULDBLOCK)
      return std::nullopt;
    fail_io("accept");
  }
}

Socket connect_unix(const std::string& path) {
  const sockaddr_un addr = make_addr(path);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) fail_io("socket");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) <
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    fail_io(str::cat("connect to ", path));
  }
  return Socket(fd);
}

}  // namespace pa::support
