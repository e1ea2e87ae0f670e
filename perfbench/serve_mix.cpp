// serve-mix: an in-process query daemon (2 workers, store in the run's
// temporary directory) that starts over a store a previous daemon left
// behind, answering one closed-loop client that opens a new connection per
// query, as `dsa_cli query` does.
//
// The previous daemon answered the first kPrefixQueries queries of the
// same seed-generated stream, so its store holds the first answers to the
// specs those queries asked, and the timed queries go on with the stream
// where it stopped: their repeats of earlier specs are answered from the
// reloaded store.
//
// The client sends seed-generated small sweep and swarm specs in blocks of
// 20 queries: 6 specs asked for the first time (3 sweep, 3 swarm), whose
// jobs execute, and 14 repeats of earlier specs, answered from the cache.
// With 30% first-time queries, op_p50_ms lies in the hit mode and op_p90_ms
// in the sweep-miss mode, away from the boundary between them.
//
// Every thread of the workload (client, daemon, pool workers) runs on one
// CPU. The closed loop hands each query from thread to thread; on one CPU
// a hand-off never waits for an idle virtual CPU to be scheduled again by
// its host, a wait that swings with other tenants' load. A single client
// never has two jobs in flight, so no parallelism is lost.
//
// Every spec expands to exactly one job. A query whose spec expands to
// several jobs can race with its own pool tasks in Server::handle_query
// (see CHANGES.md), so it is left out rather than measured.
#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <sched.h>

#include "scenario/exec.hpp"
#include "scenario/manifest.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "serve/cache.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "stats/descriptive.hpp"
#include "swarming/protocol.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using dsa::scenario::JobRows;

constexpr std::size_t kBlock = 20;
constexpr std::size_t kNewSweepsPerBlock = 3;
constexpr std::size_t kNewSwarmsPerBlock = 3;
constexpr std::size_t kPrefixQueries = 1000;  // answered before the restart
static_assert(kPrefixQueries % kBlock == 0, "timed queries start a block");
constexpr std::size_t kBodyChecksPerKind = 2;
constexpr const char* kSocket = "daemon.sock";  // relative to the temp dir
constexpr const char* kStore = "store.jsonl";

struct Spec {
  std::string text;
  bool sweep = false;
};

/// The seed-generated query sequence, extended one block at a time.
class QueryStream {
 public:
  explicit QueryStream(std::uint64_t seed)
      : rng_(seed), seed_base_(rng_.below(1u << 20) << 10) {}

  /// Spec index of query `i`.
  std::size_t spec_of(std::size_t i) {
    while (i >= sequence_.size()) extend();
    return sequence_[i];
  }
  /// True when query `i` is the first to ask its spec.
  bool first_time(std::size_t i) {
    while (i >= sequence_.size()) extend();
    return first_[i];
  }
  [[nodiscard]] const Spec& spec(std::size_t k) const { return specs_[k]; }

 private:
  enum class Slot { kNewSweep, kNewSwarm, kRepeat };

  void extend() {
    std::vector<Slot> slots(kBlock, Slot::kRepeat);
    std::fill_n(slots.begin(), kNewSweepsPerBlock, Slot::kNewSweep);
    std::fill_n(slots.begin() + kNewSweepsPerBlock, kNewSwarmsPerBlock,
                Slot::kNewSwarm);
    rng_.shuffle(slots);
    if (specs_.empty()) {
      // The very first query cannot repeat anything.
      const auto first_new = std::find_if(
          slots.begin(), slots.end(), [](Slot s) { return s != Slot::kRepeat; });
      std::iter_swap(slots.begin(), first_new);
    }
    for (const Slot slot : slots) {
      if (slot == Slot::kRepeat) {
        sequence_.push_back(rng_.below(specs_.size()));
        first_.push_back(false);
        continue;
      }
      specs_.push_back(slot == Slot::kNewSweep ? make_sweep() : make_swarm());
      sequence_.push_back(specs_.size() - 1);
      first_.push_back(true);
    }
  }

  /// A scenario seed no other spec of the run uses, so every new spec has
  /// a fingerprint of its own.
  std::uint64_t fresh_seed() { return seed_base_ + specs_.size(); }

  Spec make_sweep() {
    std::string protocols =
        std::to_string(rng_.below(dsa::swarming::kProtocolCount));
    if (rng_.below(2) == 1) {
      protocols += ',';
      protocols += std::to_string(rng_.below(dsa::swarming::kProtocolCount));
    }
    const std::size_t k = specs_.size();
    return {"{\"scenario\":\"q" + std::to_string(k) +
                "\",\"kind\":\"sweep\",\"output\":\"out/q" +
                std::to_string(k) + ".csv\",\"params\":{\"protocols\":\"" +
                protocols + "\",\"rounds\":" +
                std::to_string(rng_.pick(kRounds)) + ",\"population\":" +
                std::to_string(rng_.pick(kPopulations)) +
                ",\"performance_runs\":2,\"encounter_runs\":1,"
                "\"opponent_sample\":4,\"seed\":" +
                std::to_string(fresh_seed()) + "}}",
            true};
  }

  Spec make_swarm() {
    const std::size_t k = specs_.size();
    return {"{\"scenario\":\"q" + std::to_string(k) +
                "\",\"kind\":\"swarm\",\"output\":\"out/q" +
                std::to_string(k) + ".csv\",\"params\":{\"a\":\"" +
                rng_.pick(kClients) + "\",\"b\":\"" + rng_.pick(kClients) +
                "\",\"fraction\":" + rng_.pick(kFractions) +
                ",\"total\":" + std::to_string(rng_.pick(kTotals)) +
                ",\"runs\":" + std::to_string(1 + rng_.below(2)) +
                ",\"piece_count\":" + std::to_string(rng_.pick(kPieces)) +
                ",\"seed\":" + std::to_string(fresh_seed()) + "}}",
            false};
  }

  inline static const std::vector<std::uint64_t> kRounds = {40, 60, 80};
  inline static const std::vector<std::uint64_t> kPopulations = {20, 30, 40};
  inline static const std::vector<std::string> kClients = {
      "bt", "birds", "loyal", "sorts", "random"};
  inline static const std::vector<std::string> kFractions = {"0.25", "0.5"};
  inline static const std::vector<std::uint64_t> kTotals = {10, 20, 30};
  inline static const std::vector<std::uint64_t> kPieces = {20, 40};

  InputRng rng_;
  std::uint64_t seed_base_;
  std::vector<Spec> specs_;
  std::vector<std::size_t> sequence_;
  std::vector<bool> first_;
};

/// A daemon serving on its own thread.
class Daemon {
 public:
  void start() {
    dsa::serve::ServerOptions options;
    options.socket_path = kSocket;
    options.threads = 2;
    options.cache.store_path = kStore;
    options.poll_ms = 20;
    server_ = std::make_unique<dsa::serve::Server>(options);
    stop_ = false;
    thread_ = std::thread([this] { server_->serve(stop_); });
  }
  void stop() {
    if (!thread_.joinable()) return;
    stop_ = true;
    thread_.join();
    server_.reset();
  }
  ~Daemon() { stop(); }

 private:
  std::unique_ptr<dsa::serve::Server> server_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// Leaves a store behind: a daemon answers the stream's first
/// kPrefixQueries queries over one connection. Returns its first answer to
/// each spec they asked.
std::map<std::size_t, std::string> prepare_store(QueryStream& stream) {
  std::map<std::size_t, std::string> first_body;
  Daemon daemon;
  daemon.start();
  dsa::serve::Client client(kSocket);
  for (std::size_t i = 0; i < kPrefixQueries; ++i) {
    const std::size_t k = stream.spec_of(i);
    dsa::serve::Response response = client.query(stream.spec(k).text);
    if (stream.first_time(i)) first_body[k] = std::move(response.body);
  }
  daemon.stop();
  return first_body;
}

/// Runs a spec in this process, outside the daemon, exactly as `dsa_cli
/// run` would; returns the plan and its per-job rows.
struct Local {
  dsa::scenario::Plan plan;
  std::vector<JobRows> rows;
  double execute_ms = 0.0;
};
Local execute_locally(const std::string& text) {
  Local local;
  local.plan = dsa::scenario::expand_plan(
      dsa::scenario::parse_scenario_text(text, "<query>"));
  const std::int64_t start = now_ns();
  for (const auto& job : local.plan.jobs) {
    local.rows.push_back(dsa::scenario::execute_job(local.plan.spec, job));
  }
  local.execute_ms = ms_between(start, now_ns());
  return local;
}

/// Mean microseconds per call of `fn` over `reps` calls.
template <typename Fn>
double probe_us(std::size_t reps, Fn&& fn) {
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < reps; ++i) fn(i);
  return ms_between(start, now_ns()) * 1e3 / static_cast<double>(reps);
}

}  // namespace

Outcome run_serve_mix(const Options& options, RefKernel& ref,
                      const fs::path& tmp) {
  Outcome outcome;
  struct Restore {
    fs::path dir;
    cpu_set_t cpus;
    ~Restore() {
      fs::current_path(dir);
      sched_setaffinity(0, sizeof cpus, &cpus);
    }
  } restore{fs::current_path(), {}};
  fs::current_path(tmp);
  // Threads started from here on inherit the pin to the last allowed CPU.
  sched_getaffinity(0, sizeof restore.cpus, &restore.cpus);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (CPU_ISSET(cpu, &restore.cpus)) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  sched_setaffinity(0, sizeof one, &one);

  QueryStream stream(options.seed);
  // spec -> first answer, from the previous daemon or the timed loop
  std::map<std::size_t, std::string> first_body = prepare_store(stream);
  // The store as set-up reloads it, for the serve.store_load_ms probe.
  if (options.trace) fs::copy_file(kStore, "store_copy.jsonl");
  Daemon daemon;
  const std::vector<double> setup_s =
      time_setups([&] { daemon.stop(); },
                  [&] {
                    daemon.start();
                    dsa::serve::Client(kSocket).ping();
                  });

  std::map<std::size_t, std::size_t> first_op;  // spec -> op that asked it
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::vector<std::size_t> traced_misses;  // specs first asked while traced
  const std::uint64_t rss_before = rss_kb();
  LoopResult loop = run_loop(
      options,
      [&](std::size_t index) {
        const std::size_t k = stream.spec_of(kPrefixQueries + index);
        const bool first = stream.first_time(kPrefixQueries + index);
        first ? ++misses : ++hits;
        if (first && SpanLog::global().enabled()) traced_misses.push_back(k);
        dsa::serve::Response response;
        try {
          ScopedSpan span(first ? "serve.miss" : "serve.hit");
          dsa::serve::Client client(kSocket);
          response = client.query(stream.spec(k).text);
        } catch (const std::exception& error) {
          fail_check(outcome, std::string("query failed: ") + error.what());
          return false;
        }
        if (first) {
          first_body[k] = response.body;
          first_op[k] = index;
          if (response.executed_jobs != 1 || response.cached_jobs != 0) {
            fail_check(outcome, "first-time query answered from the cache");
            return false;
          }
          return true;
        }
        if (options.corrupt == "serve.repeat") response.body[0] ^= 1;
        if (response.body != first_body.at(k) || response.cached_jobs != 1) {
          fail_check(outcome, "repeated answer differs from the first");
          return false;
        }
        return true;
      },
      ref);
  const std::uint64_t rss_after = rss_kb();

  // The daemon's own counters must match what the query sequence implies;
  // a mismatch fails the last op.
  std::map<std::string, std::uint64_t> counters =
      dsa::serve::Client(kSocket).status();
  if (options.corrupt == "serve.counters") ++counters["cache_hits"];
  if (counters["cache_hits"] != hits || counters["cache_misses"] != misses ||
      counters["jobs_executed"] != misses) {
    fail_check(outcome, "daemon counters disagree with the query sequence");
    loop.ok.back() = false;
  }

  // First-time specs executed and merged here, outside the daemon, must
  // equal the daemon's first answer byte for byte: a seed-chosen sample of
  // each kind, and with --trace 1 also every spec first asked in a traced
  // slice, whose execution times feed the ledger.
  std::vector<std::size_t> to_check = traced_misses;
  {
    InputRng rng(options.seed ^ 0xb0d7ULL);
    for (const bool sweep : {true, false}) {
      std::vector<std::size_t> kind;
      for (const auto& [k, op] : first_op) {
        if (stream.spec(k).sweep == sweep) kind.push_back(k);
      }
      for (std::size_t i = 0; i < kBodyChecksPerKind && !kind.empty(); ++i) {
        to_check.push_back(kind[rng.below(kind.size())]);
      }
    }
  }
  std::vector<Local> locals;
  for (const std::size_t k : to_check) {
    Local local = execute_locally(stream.spec(k).text);
    std::string body =
        dsa::scenario::merge_rows(local.plan, local.rows).to_csv();
    if (options.corrupt == "serve.body") body[body.size() / 2] ^= 1;
    if (body != first_body.at(k)) {
      fail_check(outcome, "served body differs from a local execution");
      loop.ok[first_op.at(k)] = false;
    }
    locals.push_back(std::move(local));
  }

  count_ops(loop, outcome);
  outcome.setup_samples_s = setup_s;
  outcome.end_to_end = end_to_end_metrics(setup_s, loop);
  add_common_layers(loop, outcome.per_layer);
  if (!options.trace) return outcome;

  // Probes of each layer the query path crosses, on this run's specs.
  std::vector<Metric>& layers = outcome.per_layer;
  const std::size_t specs = std::min<std::size_t>(first_body.size(), 200);
  std::vector<dsa::scenario::ScenarioSpec> parsed(specs);
  std::vector<dsa::scenario::Plan> plans(specs);
  const double json_us = probe_us(specs, [&](std::size_t k) {
    (void)dsa::util::json::parse(
        dsa::serve::make_query_request(stream.spec(k).text, "csv"));
  });
  const double parse_us = probe_us(specs, [&](std::size_t k) {
    parsed[k] = dsa::scenario::parse_scenario_text(stream.spec(k).text);
  });
  const double expand_us = probe_us(specs, [&](std::size_t k) {
    plans[k] = dsa::scenario::expand_plan(parsed[k]);
  });
  const double canonical_us = probe_us(specs, [&](std::size_t k) {
    (void)dsa::serve::canonical_plan(parsed[k]);
  });
  const double manifest_us = probe_us(specs, [&](std::size_t k) {
    (void)dsa::scenario::load_manifest(
        plans[k], dsa::scenario::manifest_path(plans[k]));
  });
  const double merge_us = probe_us(1000, [&](std::size_t i) {
    const Local& local = locals[i % locals.size()];
    (void)dsa::scenario::merge_rows(local.plan, local.rows);
  });
  std::vector<double> execute_ms;  // the traced misses' executions
  for (std::size_t i = 0; i < traced_misses.size(); ++i) {
    execute_ms.push_back(locals[i].execute_ms);
  }

  dsa::serve::ResultCache memory_cache({});
  for (std::size_t i = 0; i < locals.size(); ++i) {
    memory_cache.insert(i, locals[i].rows.front(), 0.0);
  }
  const double lookup_us = probe_us(1000, [&](std::size_t i) {
    (void)memory_cache.lookup(i % locals.size());
  });
  dsa::serve::ResultCache::Options stored;
  stored.store_path = "probe_store.jsonl";
  dsa::serve::ResultCache store_cache(stored);
  const double insert_us = probe_us(500, [&](std::size_t i) {
    store_cache.insert(i, locals[i % locals.size()].rows.front(), 1.0);
  });
  std::vector<double> load_ms;
  for (int i = 0; i < 3; ++i) {
    dsa::serve::ResultCache::Options reload;
    reload.store_path = "store_copy.jsonl";
    const std::int64_t start = now_ns();
    const dsa::serve::ResultCache loaded(reload);
    load_ms.push_back(ms_between(start, now_ns()));
  }
  const double connect_us = probe_us(200, [&](std::size_t) {
    dsa::serve::Client(kSocket).ping();
  });
  daemon.stop();

  const SpanLog::Totals hit_spans = SpanLog::global().totals("serve.hit");
  const SpanLog::Totals miss_spans = SpanLog::global().totals("serve.miss");
  const double hit_path_us = connect_us + 2 * json_us + parse_us + expand_us +
                             canonical_us + lookup_us + merge_us;
  const double execute_total_ms =
      dsa::stats::mean(execute_ms) * static_cast<double>(execute_ms.size());
  const double covered_ms =
      (static_cast<double>(hit_spans.count + miss_spans.count) * hit_path_us +
       static_cast<double>(miss_spans.count) * (manifest_us + insert_us)) /
          1e3 +
      execute_total_ms;
  const double wall_ms = static_cast<double>(loop.traced.wall_ns) / 1e6;
  const double asked = static_cast<double>(hits + misses);
  layers.push_back({"util.json_parse_us", json_us, "us"});
  layers.push_back({"util.connect_ping_us", connect_us, "us"});
  layers.push_back({"scenario.parse_us", parse_us, "us"});
  layers.push_back({"scenario.expand_us", expand_us, "us"});
  layers.push_back({"scenario.merge_us", merge_us, "us"});
  layers.push_back({"scenario.execute_ms", dsa::stats::mean(execute_ms), "ms"});
  layers.push_back({"scenario.manifest_load_us", manifest_us, "us"});
  layers.push_back({"serve.canonical_us", canonical_us, "us"});
  layers.push_back({"serve.lookup_us", lookup_us, "us"});
  layers.push_back({"serve.insert_us", insert_us, "us"});
  layers.push_back({"serve.store_load_ms", median(load_ms), "ms"});
  layers.push_back({"serve.hit_ms", median(hit_spans.ms), "ms"});
  layers.push_back({"serve.miss_ms", dsa::stats::mean(miss_spans.ms), "ms"});
  layers.push_back(
      {"serve.hit_ratio",
       static_cast<double>(counters["cache_hits"]) /
           static_cast<double>(counters["cache_hits"] +
                               counters["cache_misses"]),
       "frac"});
  layers.push_back({"serve.rss_per_conn_kb",
                    (static_cast<double>(rss_after) -
                     static_cast<double>(rss_before)) /
                        asked,
                    "kB"});
  layers.push_back({"residual_frac", 1.0 - covered_ms / wall_ms, "frac"});
  return outcome;
}

}  // namespace perfbench
