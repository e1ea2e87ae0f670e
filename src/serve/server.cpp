#include "serve/server.hpp"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <list>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "report/report.hpp"
#include "scenario/exec.hpp"
#include "scenario/runner.hpp"
#include "serve/protocol.hpp"
#include "util/csv.hpp"

namespace dsa::serve {

using scenario::JobRows;

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache),
      pool_(options_.threads != 0 ? options_.threads
                                  : util::ThreadPool::default_thread_count()),
      listener_(options_.socket_path) {
  // The daemon's heartbeat: `dsa_cli status <status-dir>` watches the
  // resident service exactly like a batch run — done counts queries
  // answered, and the registry's serve.* counters ride along in the
  // counters map.
  telemetry_ = obs::Telemetry::global().begin_run(
      {.name = obs::sanitize_run_name("serve-" +
                                      options_.socket_path.stem().string()),
       .kind = "serve",
       .spec_fingerprint = 0,
       .jobs_total = 0,
       .output = options_.socket_path.string()});
  telemetry_.set_phase("serving");
  telemetry_.watch_pool(&pool_);
}

std::map<std::string, std::uint64_t> Server::counters() const {
  const ResultCache::Stats stats = cache_.stats();
  return {
      {"queries", queries_.load(std::memory_order_relaxed)},
      {"queries_failed", queries_failed_.load(std::memory_order_relaxed)},
      {"connections", connections_.load(std::memory_order_relaxed)},
      {"connections_open",
       connections_open_.load(std::memory_order_relaxed)},
      {"jobs_executed", jobs_executed_.load(std::memory_order_relaxed)},
      {"cache_hits", stats.hits},
      {"cache_misses", stats.misses},
      {"cache_inserts", stats.inserts},
      {"cache_evictions", stats.evictions},
      {"cache_entries", stats.entries},
      {"cache_bytes", stats.bytes},
      {"store_loaded", stats.store_loaded},
      {"store_rejected", stats.store_rejected},
  };
}

void Server::serve(std::atomic<bool>& stop) {
  // A connection's thread sets `done` as its last act; the accept loop
  // joins such threads on every pass, so a finished connection's stack is
  // released within one poll interval instead of at shutdown.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;
  const auto reap = [&] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (!it->done.load(std::memory_order_acquire)) {
        ++it;
        continue;
      }
      it->thread.join();
      it = connections.erase(it);
      connections_open_.fetch_sub(1, std::memory_order_relaxed);
    }
  };
  if (options_.verbose) {
    std::fprintf(stderr, "serve: listening on %s (%zu worker thread(s))\n",
                 listener_.path().string().c_str(), pool_.thread_count());
  }
  while (!stop.load(std::memory_order_relaxed)) {
    util::LineSocket connection = listener_.accept(options_.poll_ms);
    reap();
    if (!connection.valid()) continue;  // timeout or EINTR — re-check stop
    connections_.fetch_add(1, std::memory_order_relaxed);
    connections_open_.fetch_add(1, std::memory_order_relaxed);
    Connection& slot = connections.emplace_back();
    slot.thread = std::thread(
        [this, &stop, &slot, conn = std::move(connection)]() mutable {
          handle_connection(std::move(conn), stop);
          slot.done.store(true, std::memory_order_release);
        });
  }
  for (Connection& connection : connections) connection.thread.join();
  connections_open_.store(0, std::memory_order_relaxed);
  pool_.wait_idle();
  telemetry_.watch_pool(nullptr);
  telemetry_.finish(true);
  if (options_.verbose) {
    std::fprintf(stderr, "serve: shut down after %llu queries\n",
                 static_cast<unsigned long long>(
                     queries_.load(std::memory_order_relaxed)));
  }
}

void Server::handle_connection(util::LineSocket connection,
                               std::atomic<bool>& stop) {
  std::mutex write_mutex;  // progress events interleave from pool workers
  try {
    while (!stop.load(std::memory_order_relaxed)) {
      if (!connection.wait_readable(options_.poll_ms)) continue;
      std::optional<std::string> line;
      try {
        line = connection.recv_line(kMaxRequestBytes);
      } catch (const util::LineTooLong& error) {
        std::lock_guard lock(write_mutex);
        connection.send_line(make_error(std::string("request ") +
                                        error.what() +
                                        "; closing the connection"));
        return;
      }
      if (!line) return;  // clean disconnect
      Request request;
      try {
        request = parse_request(*line);
      } catch (const std::exception& error) {
        std::lock_guard lock(write_mutex);
        connection.send_line(make_error(error.what()));
        continue;
      }
      switch (request.op) {
        case Request::Op::kPing: {
          std::lock_guard lock(write_mutex);
          connection.send_line(make_pong());
          break;
        }
        case Request::Op::kStatus: {
          std::lock_guard lock(write_mutex);
          connection.send_line(make_status_response(counters()));
          break;
        }
        case Request::Op::kShutdown: {
          {
            std::lock_guard lock(write_mutex);
            connection.send_line(make_bye());
          }
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        case Request::Op::kQuery:
          handle_query(connection, write_mutex, request.spec_text,
                       request.want);
          break;
      }
    }
  } catch (const std::exception& error) {
    // Connection-level I/O failure (peer vanished mid-frame): drop the
    // connection; the daemon keeps serving others.
    if (options_.verbose) {
      std::fprintf(stderr, "serve: connection dropped: %s\n", error.what());
    }
  }
}

void Server::handle_query(util::LineSocket& connection,
                          std::mutex& write_mutex,
                          const std::string& spec_text,
                          const std::string& want) {
  DSA_OBS_PHASE("serve/query");
  const auto query_start = std::chrono::steady_clock::now();
  scenario::Plan plan;
  try {
    plan = expand_plan(scenario::parse_scenario_text(spec_text, "<query>"));
  } catch (const std::exception& error) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(write_mutex);
    connection.send_line(make_error(error.what()));
    return;
  }
  const std::size_t total = plan.jobs.size();

  std::vector<JobRows> results(total);
  std::vector<std::size_t> pending;
  std::size_t cached = 0;
  {
    DSA_OBS_PHASE("serve/cache-hit");
    for (std::size_t i = 0; i < total; ++i) {
      if (std::optional<JobRows> rows =
              cache_.lookup(plan.jobs[i].fingerprint)) {
        results[i] = std::move(*rows);
        ++cached;
      } else {
        pending.push_back(i);
      }
    }
  }

  // Pre-warm from a kept manifest of a prior `dsa_cli run` of this spec:
  // its job lines are fingerprint-verified against the plan, then adopted
  // into the cache under the same keys.
  if (!pending.empty()) {
    DSA_OBS_PHASE("serve/cache-miss");
    const scenario::ManifestData manifest =
        load_manifest(plan, manifest_path(plan));
    if (manifest.header_ok) {
      std::vector<std::size_t> still;
      for (const std::size_t i : pending) {
        if (manifest.have[i]) {
          results[i] = manifest.rows[i];
          cache_.insert(plan.jobs[i].fingerprint, results[i],
                        manifest.ms[i]);
          ++cached;
        } else {
          still.push_back(i);
        }
      }
      pending = std::move(still);
    }
  }

  if (obs::enabled()) {
    auto& registry = obs::Registry::global();
    registry.counter("serve.queries").increment();
    registry.counter("serve.cache_hits").add(cached);
    registry.counter("serve.cache_misses").add(pending.size());
  }

  bool client_gone = false;
  auto send_progress = [&](std::uint64_t done) {
    std::lock_guard lock(write_mutex);
    if (client_gone) return;
    try {
      connection.send_line(make_progress(done, total, cached));
    } catch (const std::exception&) {
      // The client hung up mid-query. Finish the jobs anyway — they still
      // populate the cache for the next asker.
      client_gone = true;
    }
  };
  send_progress(cached);

  std::mutex query_mutex;
  std::condition_variable query_done;
  std::size_t finished = 0;
  std::string first_error;
  const std::size_t to_run = pending.size();
  for (const std::size_t i : pending) {
    pool_.submit([this, &plan, &results, &query_mutex,
                  &query_done, &finished, &first_error, &send_progress,
                  cached, i] {
      // Exceptions stay inside the job: pool.wait_idle() is shared by every
      // concurrent query, so one query's failure must not surface there.
      const auto start = std::chrono::steady_clock::now();
      try {
        DSA_OBS_PHASE("serve/execute");
        JobRows rows = scenario::execute_job(plan.spec, plan.jobs[i]);
        const double wall_ms = std::chrono::duration<double, std::milli>(
                                   std::chrono::steady_clock::now() - start)
                                   .count();
        cache_.insert(plan.jobs[i].fingerprint, rows, wall_ms);
        jobs_executed_.fetch_add(1, std::memory_order_relaxed);
        if (obs::enabled()) {
          obs::Registry::global().counter("serve.jobs_executed").increment();
        }
        std::lock_guard lock(query_mutex);
        results[i] = std::move(rows);
      } catch (const std::exception& error) {
        std::lock_guard lock(query_mutex);
        if (first_error.empty()) {
          first_error = "job " + std::to_string(plan.jobs[i].index) + " (" +
                        plan.jobs[i].label + "): " + error.what();
        }
      }
      // The last increment of `finished` lets handle_query return and
      // destroy this task's captures, so everything that touches its frame
      // happens under query_mutex, before the increment or with it held.
      std::lock_guard lock(query_mutex);
      send_progress(cached + finished + 1);
      ++finished;
      query_done.notify_all();
    });
  }
  {
    std::unique_lock lock(query_mutex);
    query_done.wait(lock, [&] { return finished == to_run; });
  }

  queries_.fetch_add(1, std::memory_order_relaxed);
  telemetry_.add_done();
  if (!first_error.empty()) {
    queries_failed_.fetch_add(1, std::memory_order_relaxed);
    telemetry_.set_last_error(first_error);
    std::lock_guard lock(write_mutex);
    if (!client_gone) connection.send_line(make_error(first_error));
    return;
  }

  Response result;
  result.scenario = plan.spec.name;
  result.kind = to_string(plan.spec.kind);
  result.want = want;
  result.jobs = total;
  result.cached_jobs = cached;
  result.executed_jobs = to_run;
  const util::CsvTable table = merge_rows(plan, results);
  result.body =
      want == "table" ? report::render_csv_table(table) : table.to_csv();
  result.ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - query_start)
                  .count();
  std::lock_guard lock(write_mutex);
  if (!client_gone) connection.send_line(make_result(result));
}

}  // namespace dsa::serve
