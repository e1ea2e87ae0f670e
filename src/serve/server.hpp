// The resident design-space query daemon behind `dsa_cli serve`.
//
// A Server owns the worker pool, the content-addressed ResultCache, and a
// unix-socket listener. serve() accepts connections until asked to stop
// (an external atomic a signal handler can set, or a client "shutdown"
// request) and answers the wire protocol in serve/protocol.hpp. Each
// connection gets its own thread; query jobs from every connection share
// the one pool, so a second client's cheap cached query is not stuck
// behind a first client's cold sweep.
//
// Determinism: a query's merged output is produced by the same
// expand_plan / execute_job / merge_rows library calls `dsa_cli run` uses,
// so a served answer — cold or cached — is byte-identical to the CSV a
// fresh process would write.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>

#include "obs/telemetry.hpp"
#include "serve/cache.hpp"
#include "util/socket.hpp"
#include "util/thread_pool.hpp"

namespace dsa::serve {

/// Longest request line the daemon reads. A longer one is answered with a
/// named error and its connection is closed, so a client that never sends
/// '\n' cannot grow the daemon's buffer without bound.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{1} << 20;

struct ServerOptions {
  std::filesystem::path socket_path;
  /// Worker threads for query jobs; 0 = hardware concurrency.
  std::size_t threads = 0;
  ResultCache::Options cache;
  /// Accept-poll period; the stop flag is observed at this latency.
  int poll_ms = 200;
  bool verbose = false;
};

class Server {
 public:
  /// Binds the socket and loads the cache store immediately (so a bind
  /// conflict or unreadable store fails construction, not first use).
  explicit Server(ServerOptions options);

  /// Accepts and serves connections until `stop` becomes true or a client
  /// sends "shutdown" (which also sets `stop`). Blocking; joins each
  /// connection thread within one poll interval of its client leaving, and
  /// every remaining one before returning.
  void serve(std::atomic<bool>& stop);

  [[nodiscard]] const std::filesystem::path& socket_path() const noexcept {
    return listener_.path();
  }

  /// Cache + query counters, as reported to "status" requests. Works with
  /// observability compiled out — these are the daemon's own numbers, not
  /// obs::Registry's.
  [[nodiscard]] std::map<std::string, std::uint64_t> counters() const;

 private:
  void handle_connection(util::LineSocket connection,
                         std::atomic<bool>& stop);
  void handle_query(util::LineSocket& connection, std::mutex& write_mutex,
                    const std::string& spec_text, const std::string& want);

  ServerOptions options_;
  ResultCache cache_;
  util::ThreadPool pool_;
  util::UnixListener listener_;
  obs::TelemetryRun telemetry_;
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> queries_failed_{0};
  std::atomic<std::uint64_t> jobs_executed_{0};
  std::atomic<std::uint64_t> connections_{0};
  /// Connection threads started and not yet joined.
  std::atomic<std::uint64_t> connections_open_{0};
};

}  // namespace dsa::serve
