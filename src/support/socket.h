// Minimal RAII Unix-domain stream sockets for the privanalyzerd service
// (src/daemon/). Blocking I/O with poll()-based timeouts; every operation
// reports failure as a structured Stage::Daemon error so the server's
// connection reaper and the client can distinguish "peer went away" (clean
// Eof) from a genuine I/O fault.
//
// Fault points (support/faultpoint.h): `daemon.accept`, `daemon.read`, and
// `daemon.write` sit on the corresponding hot paths, so the soak harness can
// inject accept/read/write failures under concurrent clients and require the
// server to reap one connection without dropping the rest.
#pragma once

#include <cstddef>
#include <mutex>
#include <optional>
#include <string>

namespace pa::support {

/// Move-only owner of one connected socket fd.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { close(); }

  Socket(Socket&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Socket& operator=(Socket&& o) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void close();

  /// Write all `n` bytes (handles partial writes and EINTR). Throws a
  /// Stage::Daemon StageError on failure (including a closed/reset peer —
  /// writes have no clean-EOF notion). SIGPIPE is suppressed via
  /// MSG_NOSIGNAL.
  void write_all(const void* data, std::size_t n);

  /// Read exactly `n` bytes. Returns false on clean EOF *before the first
  /// byte* (peer closed between frames); throws on mid-buffer EOF (a
  /// truncated frame is a protocol error, not a clean close) and on I/O
  /// errors. `timeout_ms` < 0 blocks forever; a timeout throws.
  bool read_exact(void* data, std::size_t n, int timeout_ms = -1);

  /// True when at least one byte is readable within `timeout_ms`
  /// (0 = immediate poll). EOF also reports readable.
  bool readable(int timeout_ms);

 private:
  int fd_ = -1;
};

/// A bound + listening Unix-domain socket. The constructor unlinks any stale
/// socket file at `path` first; the destructor unlinks it again so crashed
/// or drained servers do not leak socket files.
class UnixListener {
 public:
  /// Throws a Stage::Daemon StageError when the path is too long for
  /// sockaddr_un or bind/listen fails.
  explicit UnixListener(const std::string& path, int backlog = 16);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Accept one connection, waiting at most `timeout_ms` (< 0 = forever).
  /// nullopt on timeout or when the listener was shut down concurrently;
  /// throws on accept errors (and at the `daemon.accept` fault point).
  std::optional<Socket> accept(int timeout_ms);

  /// Close the listening socket, wake any blocked accept() and make every
  /// future accept return nullopt. Safe to call while another thread is in
  /// accept().
  void shutdown();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::mutex mu_;  // guards fd_ between shutdown() and accept()
  int fd_ = -1;    // non-blocking, so accept() never waits holding mu_
  int wake_pipe_[2] = {-1, -1};  // self-pipe: shutdown() wakes poll()
};

/// Connect to a Unix-domain socket. Throws a Stage::Daemon StageError when
/// the server is not there or the path is invalid.
Socket connect_unix(const std::string& path);

}  // namespace pa::support
