// Client side of the serve protocol: one connection, blocking
// request/response helpers. Shared by `dsa_cli query`, the serve tests and
// perfbench's serve-mix workload, so all of them speak exactly the same
// bytes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <map>
#include <string>

#include "serve/protocol.hpp"
#include "util/socket.hpp"

namespace dsa::serve {

class Client {
 public:
  /// Connects to a listening daemon; throws std::runtime_error (naming the
  /// path) when nothing listens there.
  explicit Client(const std::filesystem::path& socket_path);

  /// Round-trips a ping. Throws on transport errors or a non-pong reply.
  void ping();

  /// Fetches the daemon's counters (queries, cache_hits, ...).
  [[nodiscard]] std::map<std::string, std::uint64_t> status();

  /// Submits a query and blocks until its result. Progress lines invoke
  /// `on_progress(done, total, cached)` as they stream in (pass nullptr to
  /// ignore them). Throws std::runtime_error carrying the daemon's message
  /// when the query fails server-side.
  [[nodiscard]] Response query(
      const std::string& spec_text, const std::string& want = "csv",
      const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>&
          on_progress = nullptr);

  /// Asks the daemon to shut down and waits for its goodbye.
  void shutdown();

 private:
  Response transact(const std::string& request_line);

  util::LineSocket socket_;
};

}  // namespace dsa::serve
