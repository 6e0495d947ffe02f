// Thin RAII wrappers over AF_UNIX stream sockets -- the transport of the
// serve protocol. Line-oriented: the protocol is one JSON document per
// '\n'-terminated line in each direction.
//
// Local-socket rationale: the daemon serves co-located clients (benchmark
// drivers, sweep front-ends); a filesystem socket needs no port
// allocation, inherits directory permissions, and keeps the protocol layer
// free of address parsing. The framing code is transport-agnostic, so a
// TCP listener can slot in later without touching the protocol.
#pragma once

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace tgs {

/// read_line hit its max_line bound without seeing a '\n'. Distinct from
/// generic I/O failure so the server can answer with a structured
/// `bad_request` before dropping the (unframeable) connection instead of
/// silently hanging up on an oversized or malicious request.
class LineTooLong : public std::runtime_error {
 public:
  explicit LineTooLong(std::size_t limit)
      : std::runtime_error("line exceeds " + std::to_string(limit) +
                           " bytes") {}
};

/// A read or write ran past the socket's SO_RCVTIMEO/SO_SNDTIMEO window
/// (set_timeouts). Distinct so callers can treat a stalled peer
/// differently from a vanished one.
class IoTimeout : public std::runtime_error {
 public:
  explicit IoTimeout(const char* op)
      : std::runtime_error(std::string(op) + " timed out") {}
};

/// A connected stream socket with buffered line reads. Movable, not
/// copyable; closes on destruction.
class UnixConn {
 public:
  UnixConn() = default;
  explicit UnixConn(int fd) : fd_(fd) {}
  ~UnixConn() { close(); }

  UnixConn(UnixConn&& other) noexcept;
  UnixConn& operator=(UnixConn&& other) noexcept;
  UnixConn(const UnixConn&) = delete;
  UnixConn& operator=(const UnixConn&) = delete;

  /// Client-side connect; throws std::runtime_error on failure.
  static UnixConn connect(const std::string& path);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Read up to the next '\n' (consumed, not returned). Returns false on
  /// clean EOF with no buffered partial line; throws LineTooLong when a
  /// line exceeds `max_line` bytes, IoTimeout when a receive timeout is
  /// set and expires, std::runtime_error on other I/O errors. EINTR is
  /// retried, short reads are accumulated.
  bool read_line(std::string* line, std::size_t max_line = kMaxLine);

  /// Write `line` plus '\n', looping over partial writes and EINTR.
  /// Throws IoTimeout when a send timeout is set and expires,
  /// std::runtime_error when the peer is gone.
  void write_line(const std::string& line);

  /// Kernel-level receive/send timeouts (SO_RCVTIMEO/SO_SNDTIMEO) in
  /// milliseconds; 0 leaves that direction blocking indefinitely. The
  /// daemon caps how long a worker can be held by a stalled reader, the
  /// client bounds how long it waits on a hung daemon.
  void set_timeouts(int rcv_ms, int snd_ms);

  /// Shut down both directions (wakes a blocked read_line in another
  /// thread) without releasing the fd.
  void shutdown_both();

  void close();

  /// 64 MiB: far above any sane request (a v=100k graph serializes to a
  /// few MiB) but bounds memory against a runaway peer.
  static constexpr std::size_t kMaxLine = 64u << 20;

 private:
  int fd_ = -1;
  std::string buf_;          // bytes read and not yet consumed from head_
  std::size_t head_ = 0;     // start of the first line not yet returned
  std::size_t scanned_ = 0;  // buf_[head_, scanned_) holds no '\n'
};

/// A listening socket bound to a filesystem path. Unlinks a stale socket
/// file on bind and removes its own on destruction.
class UnixListener {
 public:
  /// Binds and listens; throws std::runtime_error (with errno text) on
  /// failure.
  explicit UnixListener(const std::string& path);
  ~UnixListener();

  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;

  /// Blocking accept. Returns an invalid conn when the listener has been
  /// closed (the shutdown path) instead of throwing.
  UnixConn accept();

  /// Close the listening fd; wakes a blocked accept(). Idempotent.
  void close();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  // Atomic: close() is called from the stop path while another thread is
  // blocked in (or racing toward) accept() on the same fd.
  std::atomic<int> fd_{-1};
};

}  // namespace tgs
