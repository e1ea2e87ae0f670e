#include "util/socket.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace dsa::util {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Fills a sockaddr_un; throws when the path does not fit (the kernel
/// silently truncates otherwise, which would bind a different path).
sockaddr_un make_address(const std::filesystem::path& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string text = path.string();
  if (text.empty()) {
    throw std::runtime_error("unix socket path must not be empty");
  }
  if (text.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("unix socket path too long (" +
                             std::to_string(text.size()) + " bytes, max " +
                             std::to_string(sizeof(address.sun_path) - 1) +
                             "): " + text);
  }
  std::memcpy(address.sun_path, text.c_str(), text.size() + 1);
  return address;
}

int make_socket() {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket(AF_UNIX)");
  return fd;
}

}  // namespace

LineSocket::LineSocket(LineSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)), buffer_(std::move(other.buffer_)) {}

LineSocket& LineSocket::operator=(LineSocket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buffer_ = std::move(other.buffer_);
  }
  return *this;
}

LineSocket::~LineSocket() { close(); }

void LineSocket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

void LineSocket::send_line(std::string_view line) {
  if (fd_ < 0) throw std::runtime_error("send_line on a closed socket");
  if (line.find('\n') != std::string_view::npos) {
    throw std::logic_error("send_line: message contains a newline");
  }
  std::string frame(line);
  frame += '\n';
  std::size_t sent = 0;
  while (sent < frame.size()) {
    // MSG_NOSIGNAL: a vanished peer surfaces as EPIPE here instead of
    // killing the daemon with SIGPIPE.
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("send on unix socket");
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::optional<std::string> LineSocket::recv_line(std::size_t max_length) {
  if (fd_ < 0) throw std::runtime_error("recv_line on a closed socket");
  std::size_t scanned = 0;  // buffer_[0, scanned) holds no '\n'
  for (;;) {
    const std::size_t newline = buffer_.find('\n', scanned);
    const std::size_t length =
        newline == std::string::npos ? buffer_.size() : newline;
    if (length > max_length) {
      throw LineTooLong("line exceeds " + std::to_string(max_length) +
                        " bytes");
    }
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return line;
    }
    scanned = buffer_.size();
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("recv on unix socket");
    }
    if (n == 0) {
      if (!buffer_.empty()) {
        throw std::runtime_error(
            "unix socket peer closed mid-line (torn frame of " +
            std::to_string(buffer_.size()) + " bytes)");
      }
      return std::nullopt;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

bool LineSocket::wait_readable(int timeout_ms) {
  if (fd_ < 0) throw std::runtime_error("wait_readable on a closed socket");
  if (buffer_.find('\n') != std::string::npos) return true;
  pollfd pfd{fd_, POLLIN, 0};
  const int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return false;  // caller re-checks its stop flag
    throw_errno("poll on unix socket");
  }
  return ready > 0;
}

UnixListener::UnixListener(const std::filesystem::path& path) : path_(path) {
  const sockaddr_un address = make_address(path);
  // A stale socket file from a SIGKILLed daemon would make bind() fail with
  // EADDRINUSE forever; only remove it after proving nothing accepts there.
  if (std::filesystem::exists(path)) {
    const int probe = make_socket();
    const int rc = ::connect(probe, reinterpret_cast<const sockaddr*>(&address),
                             sizeof(address));
    ::close(probe);
    if (rc == 0) {
      throw std::runtime_error("another daemon is already listening on " +
                               path.string());
    }
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
  const std::filesystem::path parent = path.parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  fd_ = make_socket();
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("bind " + path.string());
  }
  if (::listen(fd_, 64) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
    errno = saved;
    throw_errno("listen " + path.string());
  }
}

UnixListener::~UnixListener() {
  if (fd_ >= 0) ::close(fd_);
  std::error_code ignored;
  std::filesystem::remove(path_, ignored);
}

LineSocket UnixListener::accept(int timeout_ms) {
  pollfd pfd{fd_, POLLIN, 0};
  for (;;) {
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) return LineSocket();  // let the caller re-check
      throw_errno("poll on " + path_.string());
    }
    if (ready == 0) return LineSocket();  // timeout
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      throw_errno("accept on " + path_.string());
    }
    return LineSocket(client);
  }
}

LineSocket connect_unix(const std::filesystem::path& path) {
  const sockaddr_un address = make_address(path);
  const int fd = make_socket();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throw_errno("connect " + path.string() +
                " (is `dsa_cli serve` running there?)");
  }
  return LineSocket(fd);
}

}  // namespace dsa::util
