// Unix-domain stream sockets with newline-delimited message framing — the
// transport under the `dsa_cli serve` daemon and its clients.
//
// The framing matches the repo's other wire formats (scenario manifests,
// telemetry time-series): one complete JSON document per '\n'-terminated
// line. LineSocket buffers reads so a message split across recv() calls is
// reassembled, and callers never see a torn frame. All errors throw
// std::runtime_error naming the socket path or syscall; EINTR is retried.
//
// UnixListener::accept() takes a poll timeout so a serving loop can wake
// periodically to observe shutdown flags (a SIGTERM handler can only set an
// atomic), instead of blocking forever in accept(2).
#pragma once

#include <cstddef>
#include <filesystem>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace dsa::util {

/// Thrown by LineSocket::recv_line when a line outgrows its length cap.
class LineTooLong : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One connected stream socket with line framing. Move-only RAII over the
/// file descriptor.
class LineSocket {
 public:
  LineSocket() = default;
  explicit LineSocket(int fd) : fd_(fd) {}
  LineSocket(LineSocket&& other) noexcept;
  LineSocket& operator=(LineSocket&& other) noexcept;
  LineSocket(const LineSocket&) = delete;
  LineSocket& operator=(const LineSocket&) = delete;
  ~LineSocket();

  [[nodiscard]] bool valid() const noexcept { return fd_ >= 0; }

  /// Writes `line` plus a terminating '\n' in full. `line` must not itself
  /// contain '\n' (it would tear the framing); throws std::logic_error if
  /// it does, std::runtime_error on I/O failure or a closed peer.
  void send_line(std::string_view line);

  /// Reads the next '\n'-terminated line (without the terminator). Returns
  /// std::nullopt on clean EOF at a frame boundary; throws on I/O errors or
  /// EOF mid-line (a torn frame), and LineTooLong as soon as the line is
  /// known to exceed `max_length` bytes (so a peer that never sends '\n'
  /// cannot grow the buffer without bound).
  [[nodiscard]] std::optional<std::string> recv_line(
      std::size_t max_length = std::numeric_limits<std::size_t>::max());

  /// True when recv_line() can make progress without waiting on an idle
  /// peer: a buffered line is already complete, or the descriptor is
  /// readable (data or EOF). Waits up to `timeout_ms`; false on timeout or
  /// EINTR — a serving loop uses this to re-check its stop flag instead of
  /// blocking forever in recv.
  [[nodiscard]] bool wait_readable(int timeout_ms);

  void close() noexcept;

 private:
  int fd_ = -1;
  std::string buffer_;  // bytes received past the last returned line
};

/// A bound, listening unix-domain socket. Binding unlinks a stale socket
/// file left by a dead daemon first (after probing that nothing accepts on
/// it), and the destructor unlinks the path again on clean shutdown.
class UnixListener {
 public:
  /// Binds and listens on `path`. Throws std::runtime_error when the path
  /// exceeds sockaddr_un limits (~100 bytes), when another live process
  /// already listens there, or on any syscall failure.
  explicit UnixListener(const std::filesystem::path& path);
  UnixListener(const UnixListener&) = delete;
  UnixListener& operator=(const UnixListener&) = delete;
  ~UnixListener();

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

  /// Waits up to `timeout_ms` for a connection. Returns an invalid socket
  /// on timeout; throws on syscall failure.
  [[nodiscard]] LineSocket accept(int timeout_ms);

 private:
  int fd_ = -1;
  std::filesystem::path path_;
};

/// Connects to a listening unix socket. Throws std::runtime_error (naming
/// the path) when nothing listens there or the path is too long.
[[nodiscard]] LineSocket connect_unix(const std::filesystem::path& path);

}  // namespace dsa::util
