#include "tgs/serve/socket.h"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "tgs/serve/faults.h"

namespace tgs {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

UnixConn::UnixConn(UnixConn&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      buf_(std::move(other.buf_)),
      head_(std::exchange(other.head_, 0)),
      scanned_(std::exchange(other.scanned_, 0)) {}

UnixConn& UnixConn::operator=(UnixConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
    head_ = std::exchange(other.head_, 0);
    scanned_ = std::exchange(other.scanned_, 0);
  }
  return *this;
}

UnixConn UnixConn::connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + path);
  }
  return UnixConn(fd);
}

bool UnixConn::read_line(std::string* line, std::size_t max_line) {
  for (;;) {
    // Only the bytes read since the last search can hold the '\n'.
    const void* nl = std::memchr(buf_.data() + scanned_, '\n',
                                 buf_.size() - scanned_);
    if (nl != nullptr) {
      const std::size_t end =
          static_cast<std::size_t>(static_cast<const char*>(nl) - buf_.data());
      const std::size_t rest = buf_.size() - end - 1;
      if (head_ == 0 && rest <= end) {
        // The line starts the buffer and is the longer part: hand the
        // buffer itself over and keep only the rest, in the caller's old
        // storage.
        line->assign(buf_, end + 1, rest);
        line->swap(buf_);
        line->resize(end);
      } else {
        line->assign(buf_, head_, end - head_);
        head_ = end + 1;
      }
      scanned_ = head_;
      return true;
    }
    scanned_ = buf_.size();
    if (buf_.size() - head_ > max_line) throw LineTooLong(max_line);
    if (head_ > 0) {  // drop the lines already handed out
      buf_.erase(0, head_);
      scanned_ -= head_;
      head_ = 0;
    }
    char chunk[65536];
    ssize_t n;
    do {
      // Fault points: a scripted EINTR exercises this retry loop without
      // a real signal; a scripted short read caps the chunk so the
      // accumulation path sees arbitrarily fragmented input.
      std::int64_t arg = 0;
      if (FaultPlan::hit(FaultPoint::kReadEintr)) {
        n = -1;
        errno = EINTR;
        continue;
      }
      std::size_t want = sizeof chunk;
      if (FaultPlan::hit(FaultPoint::kReadShort, &arg))
        want = static_cast<std::size_t>(
            std::clamp<std::int64_t>(arg == 0 ? 1 : arg, 1,
                                     static_cast<std::int64_t>(sizeof chunk)));
      n = ::read(fd_, chunk, want);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw IoTimeout("read");
      throw_errno("read");
    }
    if (n == 0) {
      if (!buf_.empty())
        throw std::runtime_error("connection closed mid-line");
      return false;
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void UnixConn::write_line(const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    ssize_t n;
    do {
      std::int64_t arg = 0;
      if (FaultPlan::hit(FaultPoint::kWriteEintr)) {
        n = -1;
        errno = EINTR;
        continue;
      }
      std::size_t len = framed.size() - off;
      if (FaultPlan::hit(FaultPoint::kWriteShort, &arg))
        len = static_cast<std::size_t>(
            std::clamp<std::int64_t>(arg == 0 ? 1 : arg, 1,
                                     static_cast<std::int64_t>(len)));
      // MSG_NOSIGNAL: a vanished peer must surface as EPIPE, not SIGPIPE.
      n = ::send(fd_, framed.data() + off, len, MSG_NOSIGNAL);
    } while (n < 0 && errno == EINTR);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) throw IoTimeout("write");
      throw_errno("write");
    }
    off += static_cast<std::size_t>(n);
  }
}

void UnixConn::set_timeouts(int rcv_ms, int snd_ms) {
  const auto set = [this](int opt, int ms) {
    if (ms <= 0) return;
    timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    if (::setsockopt(fd_, SOL_SOCKET, opt, &tv, sizeof tv) != 0)
      throw_errno("setsockopt");
  };
  set(SO_RCVTIMEO, rcv_ms);
  set(SO_SNDTIMEO, snd_ms);
}

void UnixConn::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void UnixConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UnixListener::UnixListener(const std::string& path) : path_(path) {
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  ::unlink(path.c_str());  // replace a stale socket file from a dead daemon
  const sockaddr_un addr = make_addr(path);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path);
  }
  if (::listen(fd_, 128) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("listen " + path);
  }
}

UnixListener::~UnixListener() {
  close();
  ::unlink(path_.c_str());
}

UnixConn UnixListener::accept() {
  for (;;) {
    if (FaultPlan::hit(FaultPoint::kAcceptEintr)) {
      errno = EINTR;
      continue;  // exercised exactly like a real interrupted accept(2)
    }
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return UnixConn(fd);
    if (errno == EINTR) continue;
    return UnixConn();  // closed listener (or fatal error): signal shutdown
  }
}

void UnixListener::close() {
  const int fd = fd_.exchange(-1);
  if (fd >= 0) {
    // shutdown() first: reliably wakes an accept() blocked in another
    // thread, where a bare close() can leave it sleeping.
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

}  // namespace tgs
