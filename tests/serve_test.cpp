// Tests for src/serve and the manifest helpers it rides on: typed manifest
// trust reasons, the wire protocol's strict round trips, the
// content-addressed LRU cache (eviction, on-disk store survival, tamper
// rejection), and the daemon end to end over a real unix socket — a served
// answer, cold or cached, at any thread count, must be byte-identical to the
// CSV `dsa_cli run` writes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report/report.hpp"
#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/socket.hpp"

namespace {

namespace fs = std::filesystem;
using namespace dsa;
using util::json::SchemaError;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.is_open()) << path;
  out << contents;
}

// Per-test temp dir, unique per case and per process (ctest runs cases in
// parallel processes).
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("dsa_serve_test_" + std::string(info->name()) + "_" +
            std::to_string(static_cast<long long>(::getpid())));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// A fast two-job sweep (protocols bt,birds in chunks of 1). `seed` is a
  /// spec knob so tests can vary the cache key.
  std::string sweep_spec_text(const std::string& output_name,
                              int seed = 7) const {
    return std::string("{\"scenario\":\"serve-test\",\"kind\":\"sweep\","
                       "\"output\":\"") +
           (dir_ / output_name).string() +
           "\",\"chunk\":1,\"params\":{\"protocols\":\"bt,birds\","
           "\"rounds\":30,\"population\":20,\"performance_runs\":1,"
           "\"encounter_runs\":1,\"opponent_sample\":1,"
           "\"minority_fraction\":0.1,\"seed\":" +
           std::to_string(seed) + "}}";
  }

  scenario::Plan sweep_plan(const std::string& output_name,
                            int seed = 7) const {
    return scenario::expand_plan(
        scenario::parse_scenario_text(sweep_spec_text(output_name, seed)));
  }

  fs::path dir_;
};

scenario::RunOptions quiet_options(std::size_t threads = 1) {
  scenario::RunOptions options;
  options.verbose = false;
  options.threads = threads;
  return options;
}

scenario::JobRows rows_of(std::initializer_list<std::vector<std::string>> r) {
  return scenario::JobRows(r);
}

/// One row of the width load_manifest verifies against the plan's columns.
scenario::JobRows plan_rows(const scenario::Plan& plan,
                            const std::string& tag) {
  return {std::vector<std::string>(plan.job_columns.size(), tag)};
}

// ------------------------------------------------- manifest helpers -------

TEST_F(ServeTest, MissingManifestIsTyped) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::ManifestData data =
      scenario::load_manifest(plan, dir_ / "absent.jsonl");
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kMissing);
  EXPECT_FALSE(data.header_ok);
  EXPECT_EQ(data.valid_bytes, 0u);
}

TEST_F(ServeTest, OwnManifestRoundTripsTrusted) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  std::string manifest = scenario::manifest_header_line(plan) + "\n";
  manifest += scenario::manifest_job_line(plan.jobs[0], rows, 1.5) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, manifest);

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kTrusted);
  EXPECT_TRUE(data.distrust_reason.empty());
  EXPECT_EQ(data.valid_bytes, manifest.size());
  ASSERT_EQ(data.have.size(), plan.jobs.size());
  EXPECT_TRUE(data.have[0]);
  EXPECT_FALSE(data.have[1]);
  EXPECT_EQ(data.rows[0], rows);
  EXPECT_DOUBLE_EQ(data.ms[0], 1.5);
}

TEST_F(ServeTest, TornTailNamesTrailingBytesAndKeepsPrefix) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const std::string good = scenario::manifest_header_line(plan) + "\n" +
                           scenario::manifest_job_line(plan.jobs[0], rows,
                                                       1.0) +
                           "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, good + "{\"job\":1,\"fp\":\"dead");  // killed mid-append

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kTornTail);
  EXPECT_NE(data.distrust_reason.find("without a newline"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, good.size());
  EXPECT_TRUE(data.have[0]);  // the complete prefix is still usable
}

TEST_F(ServeTest, ForeignHeaderDistrustsWholeFile) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::Plan other = sweep_plan("other.csv", 99);
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, scenario::manifest_header_line(other) + "\n" +
                       scenario::manifest_job_line(plan.jobs[0], rows, 1.0) +
                       "\n");

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kForeignHeader);
  EXPECT_NE(data.distrust_reason.find("does not match the plan"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, 0u);  // nothing after a foreign header counts
  EXPECT_FALSE(data.have[0]);
}

TEST_F(ServeTest, FingerprintMismatchNamesTheJob) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  scenario::Job altered = plan.jobs[0];
  altered.fingerprint ^= 0xff;
  const std::string header = scenario::manifest_header_line(plan) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path, header + scenario::manifest_job_line(altered, rows, 1.0) +
                       "\n");

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kBadJobLine);
  EXPECT_NE(data.distrust_reason.find("fingerprint mismatch for job 0"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_EQ(data.valid_bytes, header.size());
  EXPECT_FALSE(data.have[0]);
}

TEST_F(ServeTest, DuplicateJobLineRejected) {
  const scenario::Plan plan = sweep_plan("out.csv");
  const scenario::JobRows rows = plan_rows(plan, "cell");
  const std::string line =
      scenario::manifest_job_line(plan.jobs[0], rows, 1.0) + "\n";
  const fs::path path = dir_ / "m.jsonl";
  write_file(path,
             scenario::manifest_header_line(plan) + "\n" + line + line);

  const scenario::ManifestData data = scenario::load_manifest(plan, path);
  EXPECT_EQ(data.trust, scenario::ManifestTrust::kBadJobLine);
  EXPECT_NE(data.distrust_reason.find("duplicate entry for job 0"),
            std::string::npos)
      << data.distrust_reason;
  EXPECT_TRUE(data.have[0]);  // the first copy was fine
}

// ------------------------------------------------------ wire protocol ----

TEST(ServeProtocol, QueryRequestRoundTripsSpecBytes) {
  const std::string spec = "{\"scenario\": \"x\",\n  \"quote\": \"\\\"\"}";
  const serve::Request request =
      serve::parse_request(serve::make_query_request(spec, "table"));
  EXPECT_EQ(request.op, serve::Request::Op::kQuery);
  EXPECT_EQ(request.spec_text, spec);
  EXPECT_EQ(request.want, "table");
  EXPECT_EQ(serve::parse_request(serve::make_ping_request()).op,
            serve::Request::Op::kPing);
  EXPECT_EQ(serve::parse_request(serve::make_status_request()).op,
            serve::Request::Op::kStatus);
  EXPECT_EQ(serve::parse_request(serve::make_shutdown_request()).op,
            serve::Request::Op::kShutdown);
}

TEST(ServeProtocol, UnknownOpAndKeysAreNamedErrors) {
  try {
    (void)serve::parse_request("{\"op\":\"frobnicate\"}");
    FAIL() << "expected SchemaError";
  } catch (const SchemaError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("query"), std::string::npos) << what;  // valid ops
  }
  EXPECT_THROW((void)serve::parse_request("{\"op\":\"ping\",\"x\":1}"),
               SchemaError);
  // Non-query ops must not smuggle query fields.
  EXPECT_THROW(
      (void)serve::parse_request("{\"op\":\"ping\",\"spec\":\"{}\"}"),
      SchemaError);
  EXPECT_THROW((void)serve::parse_request(
                   "{\"op\":\"query\",\"spec\":\"{}\",\"want\":\"xml\"}"),
               SchemaError);
}

TEST(ServeProtocol, ResultResponseRoundTripsBodyBytes) {
  serve::Response result;
  result.type = "result";
  result.scenario = "s";
  result.kind = "sweep";
  result.want = "csv";
  result.body = "a,b\n1,2\n";  // embedded newlines must survive one-line framing
  result.jobs = 3;
  result.cached_jobs = 2;
  result.executed_jobs = 1;
  result.ms = 12.25;
  const serve::Response parsed =
      serve::parse_response(serve::make_result(result));
  EXPECT_EQ(parsed.type, "result");
  EXPECT_EQ(parsed.body, result.body);
  EXPECT_EQ(parsed.scenario, "s");
  EXPECT_EQ(parsed.jobs, 3u);
  EXPECT_EQ(parsed.cached_jobs, 2u);
  EXPECT_EQ(parsed.executed_jobs, 1u);
  EXPECT_DOUBLE_EQ(parsed.ms, 12.25);

  const serve::Response progress =
      serve::parse_response(serve::make_progress(1, 5, 4));
  EXPECT_EQ(progress.type, "progress");
  EXPECT_EQ(progress.done, 1u);
  EXPECT_EQ(progress.total, 5u);
  EXPECT_EQ(progress.cached, 4u);

  const serve::Response status = serve::parse_response(
      serve::make_status_response({{"cache_hits", 7}, {"queries", 2}}));
  EXPECT_EQ(status.type, "status");
  EXPECT_EQ(status.counters.at("cache_hits"), 7u);
  EXPECT_EQ(status.counters.at("queries"), 2u);

  const serve::Response error =
      serve::parse_response(serve::make_error("bad \"spec\""));
  EXPECT_EQ(error.type, "error");
  EXPECT_EQ(error.message, "bad \"spec\"");
}

// -------------------------------------------------------- result cache ----

TEST(ServeCache, LruEvictsUnderTinyBudget) {
  serve::ResultCache cache({.memory_budget_bytes = 1, .store_path = {}});
  cache.insert(1, rows_of({{"one"}}), 0.0);
  cache.insert(2, rows_of({{"two"}}), 0.0);  // evicts 1 (budget fits only 1)
  EXPECT_FALSE(cache.lookup(1).has_value());
  const std::optional<scenario::JobRows> hit = cache.lookup(2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0][0], "two");
  const serve::ResultCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.inserts, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST_F(ServeTest, StoreSurvivesRestartByteIdentically) {
  const fs::path store = dir_ / "cache.jsonl";
  const scenario::JobRows rows_a = rows_of({{"a", "1"}, {"b", "2"}});
  const scenario::JobRows rows_b = rows_of({{"c", "3"}});
  {
    serve::ResultCache cache({.memory_budget_bytes = 1 << 20,
                              .store_path = store});
    cache.insert(0xaaULL, rows_a, 1.0);
    cache.insert(0xbbULL, rows_b, 2.0);
  }
  serve::ResultCache reloaded({.memory_budget_bytes = 1 << 20,
                               .store_path = store});
  const serve::ResultCache::Stats stats = reloaded.stats();
  EXPECT_EQ(stats.store_loaded, 2u);
  EXPECT_EQ(stats.store_rejected, 0u);
  EXPECT_EQ(stats.inserts, 0u);  // restorations are not new work
  EXPECT_EQ(reloaded.lookup(0xaaULL), rows_a);
  EXPECT_EQ(reloaded.lookup(0xbbULL), rows_b);
}

TEST_F(ServeTest, StoreTornTailAndTamperedRowsRejected) {
  const fs::path store = dir_ / "cache.jsonl";
  {
    serve::ResultCache cache({.memory_budget_bytes = 1 << 20,
                              .store_path = store});
    cache.insert(0xaaULL, rows_of({{"honest", "1"}}), 1.0);
    cache.insert(0xbbULL, rows_of({{"fine", "2"}}), 1.0);
  }
  // Tamper with the first entry's rows (its "check" hash no longer
  // matches) and simulate a kill mid-append after the second.
  std::string contents = read_file(store);
  const std::size_t pos = contents.find("honest");
  ASSERT_NE(pos, std::string::npos);
  contents.replace(pos, 6, "forged");
  contents += "{\"job\":0,\"fp\":\"00";  // torn tail
  write_file(store, contents);

  serve::ResultCache reloaded({.memory_budget_bytes = 1 << 20,
                               .store_path = store});
  const serve::ResultCache::Stats stats = reloaded.stats();
  EXPECT_EQ(stats.store_loaded, 1u);
  EXPECT_EQ(stats.store_rejected, 2u);  // tampered line + torn tail
  EXPECT_FALSE(reloaded.lookup(0xaaULL).has_value());  // never served
  EXPECT_TRUE(reloaded.lookup(0xbbULL).has_value());
}

// ------------------------------------------------------- daemon e2e -------

/// An in-process daemon on a real unix socket, stopped on destruction.
class Daemon {
 public:
  explicit Daemon(serve::ServerOptions options)
      : server_(std::move(options)),
        thread_([this] { server_.serve(stop_); }) {}
  ~Daemon() {
    stop_.store(true);
    thread_.join();
  }
  serve::Server& server() { return server_; }

 private:
  std::atomic<bool> stop_{false};
  serve::Server server_;
  std::thread thread_;
};

serve::ServerOptions daemon_options(const fs::path& dir,
                                    std::size_t threads = 1,
                                    const fs::path& store = {}) {
  serve::ServerOptions options;
  options.socket_path = dir / "s.sock";
  options.threads = threads;
  options.poll_ms = 50;
  options.cache.store_path = store;
  return options;
}

TEST_F(ServeTest, ServedAnswerMatchesRunScenarioAndWarmHitIsIdentical) {
  // Reference: the CSV `dsa_cli run` writes for the same spec.
  const scenario::Plan plan = sweep_plan("reference.csv");
  scenario::run_scenario(plan, quiet_options());
  const std::string expected = read_file(plan.spec.output);

  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  const serve::Response cold = client.query(sweep_spec_text("q.csv"));
  EXPECT_EQ(cold.body, expected);
  EXPECT_EQ(cold.jobs, 2u);
  EXPECT_EQ(cold.cached_jobs, 0u);
  EXPECT_EQ(cold.executed_jobs, 2u);

  const serve::Response warm = client.query(sweep_spec_text("q.csv"));
  EXPECT_EQ(warm.body, expected);
  EXPECT_EQ(warm.cached_jobs, 2u);
  EXPECT_EQ(warm.executed_jobs, 0u);

  const std::map<std::string, std::uint64_t> counters =
      daemon.server().counters();
  EXPECT_EQ(counters.at("queries"), 2u);
  EXPECT_EQ(counters.at("cache_hits"), 2u);
  EXPECT_EQ(counters.at("jobs_executed"), 2u);
}

TEST_F(ServeTest, ConcurrentWarmClientsGetByteIdenticalAnswers) {
  // A mix of distinct specs (distinct seeds, so distinct job keys) answered
  // cold over one connection, then replayed warm by concurrent clients,
  // each on its own connection: every warm body must be the cold one.
  constexpr int kSpecs = 3;
  constexpr int kClients = 4;
  constexpr int kRepeats = 3;
  Daemon daemon(daemon_options(dir_, 2));
  std::vector<std::string> cold(kSpecs);
  {
    serve::Client client(daemon.server().socket_path());
    for (int i = 0; i < kSpecs; ++i) {
      cold[i] = client.query(sweep_spec_text("q.csv", 100 + i)).body;
      ASSERT_FALSE(cold[i].empty());
    }
  }
  std::atomic<int> mismatches{0};
  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      serve::Client client(daemon.server().socket_path());
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (int i = 0; i < kSpecs; ++i) {
          const serve::Response warm =
              client.query(sweep_spec_text("q.csv", 100 + i));
          if (warm.body != cold[i] || warm.executed_jobs != 0) ++mismatches;
          ++answered;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(answered.load(), kClients * kRepeats * kSpecs);
  EXPECT_EQ(mismatches.load(), 0);
  const std::map<std::string, std::uint64_t> counters =
      daemon.server().counters();
  EXPECT_EQ(counters.at("jobs_executed"), 2u * kSpecs);
  EXPECT_EQ(counters.at("cache_hits"), 2u * kClients * kRepeats * kSpecs);
}

TEST_F(ServeTest, CacheKeyIsThreadCountIndependent) {
  // Warm the cache with a single-threaded daemon.
  std::string warm_body;
  {
    Daemon daemon(daemon_options(dir_, 1, dir_ / "cache.jsonl"));
    serve::Client client(daemon.server().socket_path());
    warm_body = client.query(sweep_spec_text("q.csv")).body;
  }
  // A multi-threaded daemon restarted from the store must answer the same
  // question from cache, byte-identically.
  Daemon daemon(daemon_options(dir_, 3, dir_ / "cache.jsonl"));
  serve::Client client(daemon.server().socket_path());
  const serve::Response response = client.query(sweep_spec_text("q.csv"));
  EXPECT_EQ(response.body, warm_body);
  EXPECT_EQ(response.cached_jobs, 2u);
  EXPECT_EQ(response.executed_jobs, 0u);
  // And a cold multi-threaded computation of a different seed still matches
  // a fresh single-threaded one byte for byte.
  const std::string threaded = client.query(sweep_spec_text("t3.csv", 11)).body;
  const scenario::Plan plan = sweep_plan("t1.csv", 11);
  scenario::run_scenario(plan, quiet_options(1));
  EXPECT_EQ(threaded, read_file(plan.spec.output));
}

TEST_F(ServeTest, TableWantRendersTheReportTable) {
  const scenario::Plan plan = sweep_plan("reference.csv");
  scenario::run_scenario(plan, quiet_options());

  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  const serve::Response response =
      client.query(sweep_spec_text("q.csv"), "table");
  EXPECT_EQ(response.want, "table");
  EXPECT_EQ(response.body, report::render_csv_table(
                               util::CsvTable::load(plan.spec.output)));
}

TEST_F(ServeTest, MalformedSpecIsAServerSideErrorNotADisconnect) {
  Daemon daemon(daemon_options(dir_));
  serve::Client client(daemon.server().socket_path());
  try {
    (void)client.query("{\"scenario\":\"x\",\"kind\":\"nope\"}");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("serve daemon:"),
              std::string::npos)
        << error.what();
  }
  // The connection survives the failed query.
  client.ping();
  EXPECT_EQ(daemon.server().counters().at("queries_failed"), 1u);
}

TEST_F(ServeTest, ShutdownRequestStopsTheServeLoop) {
  auto options = daemon_options(dir_);
  serve::Server server(std::move(options));
  std::atomic<bool> stop{false};
  std::thread thread([&] { server.serve(stop); });
  serve::Client client(server.socket_path());
  client.ping();
  client.shutdown();
  thread.join();  // returns because the shutdown request set `stop`
  EXPECT_TRUE(stop.load());
}

TEST_F(ServeTest, ColdMultiJobQueryIsByteStableAcrossRepeats) {
  // A swarm grid of three jobs on a two-worker daemon: pool tasks finish
  // while handle_query waits, and the last one must not touch the query's
  // frame after handle_query may have returned. Each repeat is a fresh,
  // cold daemon so every answer executes all three jobs.
  const std::string spec =
      "{\"scenario\":\"race\",\"kind\":\"swarm\",\"output\":\"" +
      (dir_ / "race.csv").string() +
      "\",\"params\":{\"a\":[\"bt\",\"birds\",\"loyal\"],\"b\":\"bt\","
      "\"fraction\":0.5,\"total\":10,\"runs\":1,\"piece_count\":20,"
      "\"seed\":3}}";
  std::string first;
  for (int repeat = 0; repeat < 20; ++repeat) {
    Daemon daemon(daemon_options(dir_, 2));
    serve::Client client(daemon.server().socket_path());
    const serve::Response response = client.query(spec);
    ASSERT_EQ(response.jobs, 3u);
    ASSERT_EQ(response.executed_jobs, 3u);
    if (repeat == 0) first = response.body;
    ASSERT_EQ(response.body, first) << "repeat " << repeat;
  }
  EXPECT_FALSE(first.empty());
}

TEST_F(ServeTest, OverlongRequestLineIsANamedErrorAndClosesOnlyThatClient) {
  const scenario::Plan plan = sweep_plan("reference.csv");
  scenario::run_scenario(plan, quiet_options());
  const std::string expected = read_file(plan.spec.output);

  Daemon daemon(daemon_options(dir_, 2));
  // A good client queries concurrently with the abusive one.
  std::string good_body;
  std::thread good([&] {
    serve::Client client(daemon.server().socket_path());
    good_body = client.query(sweep_spec_text("q.csv")).body;
  });

  // (A lambda, so a failed ASSERT still reaches the join below.)
  [&] {
    util::LineSocket bad = util::connect_unix(daemon.server().socket_path());
    try {
      bad.send_line(std::string(serve::kMaxRequestBytes + 1, 'x'));
    } catch (const std::runtime_error&) {
      // The daemon may close before the whole line is written (EPIPE).
    }
    const std::optional<std::string> reply = bad.recv_line();
    ASSERT_TRUE(reply.has_value());
    const serve::Response response = serve::parse_response(*reply);
    EXPECT_EQ(response.type, "error");
    EXPECT_NE(response.message.find(
                  "exceeds " + std::to_string(serve::kMaxRequestBytes) +
                  " bytes"),
              std::string::npos)
        << response.message;
    // Then the daemon hangs up: EOF, or a reset when it closed with the
    // rest of the line unread.
    bool closed = false;
    try {
      closed = !bad.recv_line().has_value();
    } catch (const std::runtime_error&) {
      closed = true;
    }
    EXPECT_TRUE(closed);
  }();
  good.join();
  EXPECT_EQ(good_body, expected);
  // The daemon keeps serving new clients.
  serve::Client after(daemon.server().socket_path());
  EXPECT_EQ(after.query(sweep_spec_text("q.csv")).body, expected);
}

std::size_t process_thread_count() {
  const auto tasks = fs::directory_iterator("/proc/self/task");
  return static_cast<std::size_t>(
      std::distance(fs::begin(tasks), fs::end(tasks)));
}

TEST_F(ServeTest, FinishedConnectionsAreReaped) {
  const std::size_t workers = 2;
  // A sanitizer runtime starts its own helper thread at the first thread
  // creation; start it before taking the baseline.
  std::thread([] {}).join();
  const std::size_t baseline = process_thread_count();
  auto options = daemon_options(dir_, workers);
  const int poll_ms = options.poll_ms;
  Daemon daemon(std::move(options));
  const std::string spec = sweep_spec_text("q.csv");
  for (int i = 0; i < 300; ++i) {
    serve::Client client(daemon.server().socket_path());
    (void)client.query(spec);
  }
  EXPECT_EQ(daemon.server().counters().at("connections"), 300u);

  // The last client is gone: the accept loop joins its thread on its next
  // pass, at most one poll interval away (plus scheduling slack).
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(poll_ms + 500);
  while (daemon.server().counters().at("connections_open") != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(daemon.server().counters().at("connections_open"), 0u);

  // One more client: the status response carries the counter, and the
  // daemon runs the serve loop, the pool's workers and this connection.
  serve::Client client(daemon.server().socket_path());
  EXPECT_EQ(client.status().at("connections_open"), 1u);
  EXPECT_LE(process_thread_count() - baseline, workers + 2);
}

TEST_F(ServeTest, SecondDaemonOnTheSameSocketFailsConstruction) {
  Daemon daemon(daemon_options(dir_));
  EXPECT_THROW(serve::Server{daemon_options(dir_)}, std::runtime_error);
}

// ------------------------------------------------------- report table ----

TEST(ServeReport, RenderCsvTableAlignsColumns) {
  util::CsvTable table({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"b", "22"});
  const std::string text = report::render_csv_table(table);
  EXPECT_EQ(text,
            "name   value\n"
            "------------\n"
            "alpha  1    \n"
            "b      22   \n");
}

}  // namespace
