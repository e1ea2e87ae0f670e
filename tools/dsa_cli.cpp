// dsa_cli — command-line front end to the library.
//
//   dsa_cli decode --id 1798
//   dsa_cli named
//   dsa_cli performance --protocol birds --rounds 300 --runs 5
//   dsa_cli encounter --a loyal --b bt --fraction 0.5 --runs 5
//   dsa_cli pra --protocols bt,birds,loyal,sorts --runs 3
//   dsa_cli swarm --a birds --b bt --fraction 0.25 --runs 10
//   dsa_cli nash --na 10 --nb 10 --nc 10 --ur 4
//   dsa_cli evolve --protocols bt,birds,loyal --generations 40
//   dsa_cli plan examples/scenarios/pra_sweep.json --jobs
//   dsa_cli run examples/scenarios/pra_sweep.json
//   dsa_cli explore examples/scenarios/fault_explore.json
//   dsa_cli swarm --fault-file results/fault_explore.worst.json
//   dsa_cli record --out r.jsonl --context demo swarm --runs 3
//   dsa_cli report r.jsonl --table fig9
//   DSA_STATUS=on dsa_cli run examples/scenarios/pra_sweep.json
//   dsa_cli top results            (attach a live monitor, ctrl-c to detach)
//   dsa_cli status results --json  (one-shot health report for scripts/CI)
//   dsa_cli serve --socket results/serve.sock   (resident query daemon)
//   dsa_cli query examples/scenarios/pra_sweep.json --table
//   dsa_cli help run
//
// Protocols are named (bt, birds, loyal, sorts, random) or numeric design-
// space ids. Every command accepts --seed.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ess.hpp"
#include "core/evolution.hpp"
#include "core/pra.hpp"
#include "core/subspace.hpp"
#include "explore/counterexample.hpp"
#include "explore/explore.hpp"
#include "fault/fault_plan.hpp"
#include "gametheory/expected_wins.hpp"
#include "obs/flame/flame.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/recorder.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "report/report.hpp"
#include "scenario/explore_kind.hpp"
#include "scenario/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "stats/descriptive.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

// Build configuration baked in by tools/CMakeLists.txt so every trace or
// metrics file is attributable to the binary that produced it.
#ifndef DSA_BUILD_COMPILER
#define DSA_BUILD_COMPILER "unknown"
#endif
#ifndef DSA_BUILD_TYPE
#define DSA_BUILD_TYPE "unknown"
#endif
#ifndef DSA_BUILD_NATIVE
#define DSA_BUILD_NATIVE "OFF"
#endif
#ifndef DSA_BUILD_SANITIZE
#define DSA_BUILD_SANITIZE ""
#endif

namespace {

using namespace dsa;
using namespace dsa::swarming;

const util::HelpIndex& help_index() {
  static const util::HelpIndex index({
      {"decode", "describe a design-space protocol id",
       "usage: dsa_cli decode --id N\n\n"
       "Describe design-space protocol id N (0 <= N < 3270): stranger\n"
       "policy, candidate window, ranking function, slots, allocation.\n"},
      {"named", "list the named protocols and their ids",
       "usage: dsa_cli named\n\n"
       "List the named protocols (bt, birds, loyal, sorts, random) with\n"
       "their design-space ids and full descriptions.\n"},
      {"performance", "homogeneous population throughput",
       "usage: dsa_cli performance [--protocol P] [--rounds N] [--runs N]\n"
       "                           [--population N] [--churn X] [--seed N]\n\n"
       "Mean population throughput (KBps, +/- 95% CI) of a homogeneous\n"
       "population all running one protocol.\n"
       "protocols: bt, birds, loyal, sorts, random, or a numeric id\n"
       "defaults: --protocol bt --rounds 200 --runs 5 --population 50\n"
       "          --churn 0 --seed 42\n"},
      {"encounter", "one tournament encounter (group means, winner)",
       "usage: dsa_cli encounter [--a P] [--b P] [--fraction X] [--runs N]\n"
       "                         [--population N] [--rounds N] [--seed N]\n\n"
       "One mixed-population encounter: fraction*population peers run A,\n"
       "the rest run B; reports group mean utilities and the winner.\n"
       "defaults: --a bt --b birds --fraction 0.5 --runs 5\n"
       "          --population 50 --rounds 200 --seed 42\n"},
      {"pra", "PRA quantification over a protocol subset",
       "usage: dsa_cli pra [--protocols P,P,...] [--runs N] [--population N]\n"
       "                   [--rounds N] [--seed N] [--threads N]\n\n"
       "Performance / robustness / aggressiveness quantification over a\n"
       "comma-separated protocol subset (Sec. 4).\n"
       "--threads N worker threads; default DSA_THREADS, 0 = hardware\n"
       "concurrency. Results are thread-count independent.\n"
       "defaults: --protocols bt,birds,loyal,sorts --runs 3\n"
       "          --population 50 --rounds 200 --seed 2011\n"},
      {"sweep", "full design-space PRA sweep (resume + cached CSV)",
       "usage: dsa_cli sweep [--out FILE] [--threads N] [--force] [--quiet]\n\n"
       "PRA quantification of all 3270 protocols with live progress,\n"
       "checkpoint resume, and a cached CSV dataset (skipped when the\n"
       "output already exists; --force recomputes).\n"
       "Scale via DSA_FULL / DSA_ROUNDS / DSA_POPULATION / DSA_PERF_RUNS /\n"
       "DSA_ENCOUNTER_RUNS / DSA_SEED; threads via --threads or DSA_THREADS.\n"},
      {"swarm", "piece-level swarm head-to-head (Sec. 5)",
       "usage: dsa_cli swarm [--a C] [--b C] [--fraction X] [--runs N]\n"
       "                     [--seed N] [fault flags]\n"
       "       dsa_cli swarm --fault-file FILE [--runs N]\n\n"
       "Piece-level BitTorrent swarm: fraction*50 leechers run client A\n"
       "against the rest on B, capacities from the Piatek distribution.\n"
       "clients: bt, birds, loyal, sorts, random\n"
       "defaults: --a birds --b bt --fraction 0.5 --runs 10 --seed 1000\n\n"
       "fault flags (Sec. 5 robustness):\n"
       "  --fault X        overall fault intensity in [0,1]; derives a\n"
       "                   deterministic schedule of message loss, leecher\n"
       "                   crashes, and a seeder outage (0 = fault-free)\n"
       "  --loss P         override per-delivery message-loss probability\n"
       "  --crash-frac X   leecher fraction crashed at full intensity\n"
       "                   (default 0.5)\n"
       "  --outage-frac X  seeder outage length at full intensity, as a\n"
       "                   fraction of the horizon (default 0.25)\n"
       "  --horizon T      ticks the fault schedule spans; keep it near the\n"
       "                   expected run length (default 600)\n\n"
       "replay mode:\n"
       "  --fault-file F   replay a committed fault plan or explorer\n"
       "                   counterexample JSON (see `dsa_cli explore`); the\n"
       "                   embedded swarm block pins clients, composition,\n"
       "                   knobs, and seed, so --runs 1 (the default) is a\n"
       "                   bitwise replay of the recorded run. Exits 1 when\n"
       "                   the replayed objective value differs from the\n"
       "                   recorded one.\n"},
      {"nash", "Sec. 2.2/Appendix analytical model",
       "usage: dsa_cli nash [--na N] [--nb N] [--nc N] [--ur N]\n\n"
       "Analytical expected-game-wins model: homogeneous BT vs Birds plus\n"
       "both invasion checks (is either a Nash equilibrium?).\n"
       "defaults: --na 10 --nb 10 --nc 10 --ur 4\n"},
      {"stability", "ESS stability against sampled mutants",
       "usage: dsa_cli stability [--protocol P] [--fraction X] [--runs N]\n"
       "                         [--mutants N] [--population N] [--rounds N]\n"
       "                         [--seed N]\n\n"
       "Evolutionary stability of one protocol against sampled mutant\n"
       "groups; lists any successful invaders.\n"
       "defaults: --protocol bt --fraction 0.1 --runs 1 --mutants 24\n"
       "          --population 50 --rounds 200 --seed 2011\n"},
      {"evolve", "replicator dynamics over a protocol menu",
       "usage: dsa_cli evolve [--protocols P,P,...] [--generations N]\n"
       "                      [--runs N] [--mutation X] [--population N]\n"
       "                      [--rounds N] [--seed N]\n\n"
       "Replicator dynamics from an even split over a protocol menu;\n"
       "reports share trajectories and fixation.\n"
       "defaults: --protocols bt,birds,loyal --generations 40 --runs 2\n"
       "          --mutation 0 --population 50 --rounds 200 --seed 2011\n"},
      {"plan", "expand a scenario spec into its job list",
       "usage: dsa_cli plan <spec.json> [--jobs]\n\n"
       "Validate a declarative scenario spec (see examples/scenarios/),\n"
       "expand it into its deterministic job list, and report what `run`\n"
       "would do: job count, output path, and how many jobs an existing\n"
       "manifest already covers. --jobs lists every job with its stable\n"
       "fingerprint, resume state, and label.\n"},
      {"run", "execute a scenario spec (crash-tolerant, sharded)",
       "usage: dsa_cli run <spec.json> [--threads N] [--keep-manifest]\n"
       "                   [--quiet]\n\n"
       "Execute a scenario spec end to end. The plan is sharded into jobs\n"
       "that run on a thread pool with per-job retry; every finished job is\n"
       "appended to a JSONL manifest next to the output, so a killed run\n"
       "can simply be re-run and only the missing jobs execute. The merged\n"
       "CSV is written atomically and is byte-identical regardless of\n"
       "thread count or interruptions.\n\n"
       "flags:\n"
       "  --threads N      worker threads (default: DSA_THREADS, else the\n"
       "                   spec's \"threads\", else hardware concurrency);\n"
       "                   never affects the output bytes\n"
       "  --keep-manifest  keep the job manifest after a successful merge\n"
       "  --quiet          suppress the progress meter and resume notes\n"},
      {"explore", "worst-case fault-schedule search (explore spec)",
       "usage: dsa_cli explore <spec.json> [--threads N] [--keep-manifest]\n"
       "                       [--quiet] [--worst-out FILE]\n\n"
       "Systematic worst-case search over the fault-schedule space declared\n"
       "by an explore-kind scenario spec: every crash/outage schedule of at\n"
       "most `max_faults` faults is enumerated (order-equivalent twins are\n"
       "pruned), simulated against the pinned swarm run, and ranked by the\n"
       "spec's objective. Enumeration shards through the crash-tolerant\n"
       "scenario runner: a killed exploration resumes from its manifest and\n"
       "the ranked CSV is byte-identical at any thread count.\n\n"
       "After the sweep the worst schedule is shrunk delta-debugging-style\n"
       "to a 1-minimal counterexample, saved as a replayable JSON (see\n"
       "`dsa_cli swarm --fault-file`), and re-run under the flight recorder\n"
       "to render a failure report: fault timeline + per-leecher impact vs\n"
       "the fault-free baseline.\n\n"
       "flags:\n"
       "  --threads N      worker threads (default DSA_THREADS, 0 = auto);\n"
       "                   never affects the output bytes\n"
       "  --keep-manifest  keep the job manifest after a successful merge\n"
       "  --quiet          suppress the progress meter and resume notes\n"
       "  --worst-out F    counterexample path (default: the spec output\n"
       "                   with its extension replaced by .worst.json)\n"},
      {"record", "run a command with the flight recorder on",
       "usage: dsa_cli record [--out FILE] [--level rounds|full]\n"
       "                      [--stride N] [--context TEXT] <command> ...\n\n"
       "Run any dsa_cli command with the simulation flight recorder enabled\n"
       "and save the recording when it finishes. The recording is a JSONL\n"
       "event stream (or CSV when FILE ends in .csv) that `dsa_cli report`\n"
       "aggregates into paper-figure tables. Recording never changes the\n"
       "wrapped command's numeric output.\n\n"
       "flags (defaults: --out results/recording.jsonl, --level rounds, or\n"
       "DSA_RECORD / DSA_RECORD_STRIDE when set):\n"
       "  --level rounds   run headers, per-round aggregates, end-of-run\n"
       "                   summaries\n"
       "  --level full     adds per-decision detail: partner selections,\n"
       "                   stranger gifts, choke decisions, piece\n"
       "                   completions\n"
       "  --stride N       record every N-th round/tick of per-round kinds\n"
       "  --context TEXT   provenance tag stamped into run events; reports\n"
       "                   group series by it\n\n"
       "example: dsa_cli record --out r.jsonl --context demo swarm --runs 3\n"},
      {"report", "render figure tables from a recording",
       "usage: dsa_cli report <recording.jsonl> [--table T]\n"
       "       dsa_cli report --health <STATUS_run.timeseries.jsonl>\n\n"
       "Aggregate a flight recording into paper-figure-ready tables:\n"
       "  summary  event/run counts per kind\n"
       "  fig5     stranger-policy robustness CCDF (Fig. 5, from pra\n"
       "           events)\n"
       "  fig9     competitive swarm encounter series (Figs. 9-10)\n"
       "  pra      mean P/R/A by ranking and by allocation (Figs. 6-7)\n"
       "  wins     win matrix between two-group runs (Figs. 1/9 flavor)\n"
       "  swarm    download-time summary per client variant (Fig. 10)\n"
       "  all      every table that has matching events (default)\n\n"
       "The fig5/fig9 tables are byte-identical to what the corresponding\n"
       "benches print when both consume the same events.\n\n"
       "--health instead renders the swarm-health timelines of a live-\n"
       "telemetry time-series (written under DSA_STATUS=on): one table per\n"
       "streaming sketch (download progress, per-peer utilization, partner\n"
       "switch rate, score spread, ...) with per-interval quantile and\n"
       "moment columns.\n"},
      {"flame", "render a collapsed-stack profile as a terminal flamegraph",
       "usage: dsa_cli flame <profile.folded> [--min-attribution X]\n\n"
       "Render a collapsed-stack file written by the wall-clock sampling\n"
       "profiler (DSA_PROF=on, any command; results/PROF_<command>.folded\n"
       "by default) as an indented tree with per-phase sample counts,\n"
       "percentages, and bars, plus the hottest stacks. The same file\n"
       "loads directly into flamegraph.pl or https://speedscope.app.\n\n"
       "flags:\n"
       "  --min-attribution X  exit 1 when the fraction of non-idle\n"
       "                       samples attributed below a root phase is\n"
       "                       less than X (0..1; CI holds sweeps to 0.9)\n"},
      {"serve", "resident query daemon with a result cache",
       "usage: dsa_cli serve [--socket PATH] [--threads N] [--cache-mb N]\n"
       "                     [--store FILE] [--quiet]\n\n"
       "Run a long-lived design-space query daemon: the protocol dataset\n"
       "and simulators stay resident, and scenario queries arriving over a\n"
       "unix domain socket (newline-delimited JSON, see src/serve) are\n"
       "answered from a content-addressed result cache keyed by per-job\n"
       "fingerprints. A repeated query is served from memory byte-identical\n"
       "to a fresh computation at any thread count; cache misses\n"
       "run on a shared thread pool with per-job progress streamed to the\n"
       "client. Completed jobs append to an on-disk JSONL store that\n"
       "pre-warms the cache on restart, so even a SIGKILLed daemon keeps\n"
       "its answers. The daemon heartbeats through the live-telemetry\n"
       "sampler, so `dsa_cli top` and `dsa_cli status` can watch it.\n"
       "Stop it with ctrl-c / SIGTERM or `dsa_cli query --shutdown`.\n\n"
       "flags:\n"
       "  --socket PATH  listening socket (default results/serve.sock);\n"
       "                 fails when another daemon already listens there\n"
       "  --threads N    worker threads (default DSA_THREADS, 0 = auto)\n"
       "  --cache-mb N   in-memory cache budget before LRU eviction\n"
       "                 (default 64)\n"
       "  --store FILE   on-disk cache store (default: the socket path\n"
       "                 with extension .cache.jsonl)\n"
       "  --quiet        suppress the startup banner and per-query notes\n"},
      {"query", "ask a running serve daemon for a scenario result",
       "usage: dsa_cli query <spec.json> [--socket PATH] [--table]\n"
       "                     [--out FILE] [--quiet]\n"
       "       dsa_cli query --ping|--status|--shutdown [--socket PATH]\n\n"
       "Submit a scenario spec to a `dsa_cli serve` daemon and print the\n"
       "merged result. Progress streams to stderr while jobs run; the\n"
       "answer lands on stdout (or --out FILE) as the exact CSV bytes\n"
       "`dsa_cli run` would have written, regardless of how much of it\n"
       "came from the daemon's cache.\n\n"
       "flags:\n"
       "  --socket PATH  daemon socket (default results/serve.sock)\n"
       "  --table        render an aligned text table instead of CSV\n"
       "  --out FILE     write the result atomically to FILE instead of\n"
       "                 stdout\n"
       "  --quiet        suppress the progress meter and summary\n"
       "  --ping         health-check the daemon and exit\n"
       "  --status       print the daemon's query/cache counters\n"
       "                 (--json for one machine-readable object)\n"
       "  --shutdown     ask the daemon to exit after in-flight queries\n"},
      {"status", "one-shot health report over heartbeat files",
       "usage: dsa_cli status [<status-file|results-dir>] [--json]\n\n"
       "Read the heartbeat files live runs maintain under DSA_STATUS=on\n"
       "(default target: results/) and report each run's health:\n"
       "  RUNNING  pid alive, heartbeat fresh\n"
       "  STALLED  pid alive but no heartbeat for > 3 sampling intervals\n"
       "  DEAD     heartbeat says running but the pid is gone (SIGKILL)\n"
       "  DONE     finished cleanly          FAILED  finished with errors\n\n"
       "--json emits one machine-readable status_report object (schema 1)\n"
       "for scripts and CI. Exit status: 0 when every run is RUNNING or\n"
       "DONE, 1 when any run is STALLED, DEAD, or FAILED (or no heartbeat\n"
       "files were found), 2 on unreadable/malformed heartbeats.\n"},
      {"top", "attachable live monitor for running experiments",
       "usage: dsa_cli top [<status-file|results-dir>] [--interval-ms N]\n"
       "                   [--frames N] [--once]\n\n"
       "Attach a read-only terminal monitor to the heartbeat files of runs\n"
       "started with DSA_STATUS=on (default target: results/). Each frame\n"
       "shows per-run health, phase, progress bar, throughput, ETA, RSS,\n"
       "pool queue depth, shard strip, and the last error, then redraws\n"
       "every --interval-ms (default 1000). Purely an observer: it only\n"
       "reads the heartbeat files and never touches the experiment.\n\n"
       "Exits when every run reaches a terminal state (DONE/FAILED/DEAD),\n"
       "after --frames N redraws, or immediately after one plain-text\n"
       "frame with --once (no screen clearing; for logs and CI).\n"},
      {"help", "show per-command usage",
       "usage: dsa_cli help [command]\n\n"
       "Show the command list, or the detailed usage of one command.\n"},
      {"version", "print the build configuration (also --version)",
       "usage: dsa_cli version\n\n"
       "Print compiler, build type, and observability configuration.\n"},
  });
  return index;
}

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::fprintf(
      stderr,
      "usage: dsa_cli <command> [args] [--flags]\n\ncommands:\n%s\n"
      "run `dsa_cli help <command>` for per-command flags and defaults.\n\n"
      "global observability flags (valid with every command):\n"
      "  --trace FILE       record a Chrome trace-event JSON of the run;\n"
      "                     load it in chrome://tracing or\n"
      "                     https://ui.perfetto.dev\n"
      "  --metrics-out FILE write a JSONL metrics snapshot (counters,\n"
      "                     gauges, distributions) when the command finishes\n",
      help_index().command_list().c_str());
  std::exit(2);
}

std::uint32_t parse_protocol(const std::string& name) {
  if (name == "bt") return encode_protocol(bittorrent_protocol());
  if (name == "birds") return encode_protocol(birds_protocol());
  if (name == "loyal") return encode_protocol(loyal_when_needed_protocol());
  if (name == "sorts") return encode_protocol(sort_s_protocol());
  if (name == "random") return encode_protocol(random_rank_protocol());
  try {
    const unsigned long id = std::stoul(name);
    if (id >= kProtocolCount) throw std::out_of_range("id");
    return static_cast<std::uint32_t>(id);
  } catch (const std::exception&) {
    usage("unknown protocol '" + name + "'");
  }
}

std::vector<std::uint32_t> parse_protocol_list(const std::string& csv) {
  std::vector<std::uint32_t> protocols;
  std::stringstream stream(csv);
  std::string token;
  while (std::getline(stream, token, ',')) {
    if (!token.empty()) protocols.push_back(parse_protocol(token));
  }
  if (protocols.size() < 2) usage("need at least two protocols");
  return protocols;
}

swarm::ClientVariant parse_client(const std::string& name) {
  using swarm::ClientVariant;
  if (name == "bt") return ClientVariant::kBitTorrent;
  if (name == "birds") return ClientVariant::kBirds;
  if (name == "loyal") return ClientVariant::kLoyalWhenNeeded;
  if (name == "sorts") return ClientVariant::kSortSlowest;
  if (name == "random") return ClientVariant::kRandomRank;
  usage("unknown swarm client '" + name + "'");
}

SwarmingModel make_model(const util::CliArgs& args) {
  SimulationConfig sim;
  sim.rounds = static_cast<std::size_t>(args.get_int("rounds", 200));
  sim.churn_rate = args.get_double("churn", 0.0);
  return SwarmingModel(sim, BandwidthDistribution::piatek());
}

void reject_unknown_flags(const util::CliArgs& args) {
  const auto unknown = args.unconsumed();
  if (!unknown.empty()) usage("unknown flag --" + unknown.front());
  const auto stray = args.unconsumed_positionals();
  if (!stray.empty()) usage("unexpected argument '" + stray.front() + "'");
}

int cmd_decode(const util::CliArgs& args) {
  const auto id = static_cast<std::uint32_t>(args.get_int("id", 0));
  reject_unknown_flags(args);
  if (id >= kProtocolCount) usage("--id outside [0, 3270)");
  std::printf("#%u  %s\n", id, decode_protocol(id).describe().c_str());
  return 0;
}

int cmd_named(const util::CliArgs& args) {
  reject_unknown_flags(args);
  util::TablePrinter table({"name", "id", "protocol"});
  const std::pair<const char*, ProtocolSpec> named[] = {
      {"bt", bittorrent_protocol()},
      {"birds", birds_protocol()},
      {"loyal", loyal_when_needed_protocol()},
      {"sorts", sort_s_protocol()},
      {"random", random_rank_protocol()},
  };
  for (const auto& [name, spec] : named) {
    table.add_row({name, std::to_string(encode_protocol(spec)),
                   spec.describe()});
  }
  table.print(std::cout);
  return 0;
}

int cmd_performance(const util::CliArgs& args) {
  const std::uint32_t protocol =
      parse_protocol(args.get("protocol", "bt"));
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 5));
  const auto population =
      static_cast<std::size_t>(args.get_int("population", 50));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const SwarmingModel model = make_model(args);
  reject_unknown_flags(args);

  std::vector<double> samples;
  for (std::size_t run = 0; run < runs; ++run) {
    samples.push_back(model.homogeneous_utility(
        protocol, population, core::derive_seed(seed, 1, protocol, run)));
  }
  std::printf("%s\n", model.protocol_name(protocol).c_str());
  std::printf("population throughput: %.1f KBps (95%% CI +/- %.1f, %zu runs, "
              "%zu peers)\n",
              stats::mean(samples), stats::ci95_half_width(samples), runs,
              population);
  return 0;
}

int cmd_encounter(const util::CliArgs& args) {
  const std::uint32_t a = parse_protocol(args.get("a", "bt"));
  const std::uint32_t b = parse_protocol(args.get("b", "birds"));
  const double fraction = args.get_double("fraction", 0.5);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 5));
  const auto population =
      static_cast<std::size_t>(args.get_int("population", 50));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const SwarmingModel model = make_model(args);
  reject_unknown_flags(args);
  if (fraction <= 0.0 || fraction >= 1.0) usage("--fraction outside (0,1)");

  const auto count_a = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(fraction * population)), 1,
      population - 1);
  std::vector<double> mean_a, mean_b;
  std::size_t wins = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    const auto [ua, ub] = model.mixed_utilities(
        a, b, count_a, population - count_a,
        core::derive_seed(seed, 2, (static_cast<std::uint64_t>(a) << 32) | b,
                          run));
    mean_a.push_back(ua);
    mean_b.push_back(ub);
    if (ua > ub) ++wins;
  }
  std::printf("A: %s\n   %zu peers, mean utility %.1f KBps\n",
              model.protocol_name(a).c_str(), count_a, stats::mean(mean_a));
  std::printf("B: %s\n   %zu peers, mean utility %.1f KBps\n",
              model.protocol_name(b).c_str(), population - count_a,
              stats::mean(mean_b));
  std::printf("A wins %zu/%zu encounters\n", wins, runs);
  return 0;
}

int cmd_pra(const util::CliArgs& args) {
  const auto protocols =
      parse_protocol_list(args.get("protocols", "bt,birds,loyal,sorts"));
  core::PraConfig pra;
  pra.population = static_cast<std::size_t>(args.get_int("population", 50));
  pra.performance_runs = static_cast<std::size_t>(args.get_int("runs", 3));
  pra.encounter_runs = pra.performance_runs;
  pra.seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  // --threads beats DSA_THREADS beats hardware concurrency; results are
  // identical either way (per-item seeding), only wall time changes.
  pra.threads = static_cast<std::size_t>(
      args.get_int("threads", util::env_int("DSA_THREADS", 0)));
  const SwarmingModel model = make_model(args);
  reject_unknown_flags(args);

  const core::SubspaceModel subset(model, protocols);
  const core::PraScores scores = core::PraEngine(subset, pra).run();
  util::TablePrinter table({"protocol", "perf", "robust", "aggr"});
  for (std::uint32_t i = 0; i < subset.protocol_count(); ++i) {
    table.add_row({subset.protocol_name(i),
                   util::fixed(scores.performance[i], 3),
                   util::fixed(scores.robustness[i], 3),
                   util::fixed(scores.aggressiveness[i], 3)});
  }
  table.print(std::cout);
  return 0;
}

// `swarm --fault-file`: replay a committed fault plan / explorer
// counterexample. The file pins everything (clients, composition, knobs,
// seed), so the only knob left is --runs; run r uses seed + r, making the
// default --runs 1 a bitwise replay of the run the explorer recorded.
int cmd_swarm_replay(const std::string& path, const util::CliArgs& args) {
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 1));
  reject_unknown_flags(args);
  if (runs == 0) usage("--runs must be >= 1");
  try {
    const explore::Counterexample ce = explore::load_counterexample(path);
    const auto a = explore::client_from_name(ce.a);
    const auto b = ce.b == "same" ? a : explore::client_from_name(ce.b);
    const explore::Objective objective = explore::parse_objective(ce.objective);
    swarm::SwarmConfig config = explore::swarm_config(ce);
    const double cap = static_cast<double>(config.max_ticks);

    std::printf("replaying %s\n", path.c_str());
    std::printf("  %s vs %s, %zu/%zu leechers, seed %llu\n",
                to_string(a).c_str(), to_string(b).c_str(), ce.count_a,
                ce.total, static_cast<unsigned long long>(ce.seed));
    std::printf("  schedule: %s\n",
                ce.schedule.empty() ? "(unrecorded)" : ce.schedule.c_str());

    double replayed = 0.0;
    for (std::size_t run = 0; run < runs; ++run) {
      config.seed = ce.seed + run;
      const swarm::SwarmResult result =
          swarm::run_mixed_swarm(a, b, ce.count_a, ce.total, config);
      const double value = explore::objective_value(objective, result, cap);
      if (run == 0) replayed = value;
      double max_time = 0.0;
      for (const double t : result.completion_time) {
        max_time = std::max(max_time, t < 0.0 ? cap : t);
      }
      std::printf("  run %zu: %s = %s, mean %.1f s, max %.1f s, "
                  "%llu stall ticks%s\n",
                  run, ce.objective.c_str(), util::exact_number(value).c_str(),
                  result.group_mean_time(0, ce.total, cap), max_time,
                  static_cast<unsigned long long>(
                      result.fault_stats.stall_ticks),
                  result.all_completed ? "" : " (incomplete)");
    }
    // A bare fault plan carries no recorded value; only counterexamples
    // (schedule recorded) assert bitwise reproduction.
    if (!ce.schedule.empty()) {
      const bool match = replayed == ce.value;
      std::printf("recorded %s = %s -> %s\n", ce.objective.c_str(),
                  util::exact_number(ce.value).c_str(),
                  match ? "bitwise match" : "MISMATCH");
      if (!match) return 1;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

int cmd_swarm(const util::CliArgs& args) {
  const std::string fault_file = args.get("fault-file", "");
  if (!fault_file.empty()) return cmd_swarm_replay(fault_file, args);
  const auto a = parse_client(args.get("a", "birds"));
  const auto b = parse_client(args.get("b", "bt"));
  const double fraction = args.get_double("fraction", 0.5);
  const auto runs = static_cast<std::size_t>(args.get_int("runs", 10));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1000));
  const double fault = args.get_double("fault", 0.0);
  const double loss = args.get_double("loss", -1.0);
  const double crash_frac = args.get_double("crash-frac", 0.5);
  const double outage_frac = args.get_double("outage-frac", 0.25);
  const auto horizon =
      static_cast<std::size_t>(args.get_int("horizon", 600));
  reject_unknown_flags(args);
  if (fraction <= 0.0 || fraction >= 1.0) usage("--fraction outside (0,1)");
  if (fault < 0.0 || fault > 1.0) usage("--fault outside [0,1]");

  swarm::SwarmConfig config;
  const bool faulty = fault > 0.0 || loss >= 0.0;
  const auto count_a =
      std::clamp<std::size_t>(static_cast<std::size_t>(std::lround(
                                  fraction * 50.0)),
                              1, 49);
  // Heartbeat for `dsa_cli top`: one shard-less run, one job per swarm run.
  // The sampler never touches the simulation, so results are identical
  // with DSA_STATUS on or off.
  obs::TelemetryRun telemetry = obs::Telemetry::global().begin_run(
      {.name = obs::sanitize_run_name("swarm_" + to_string(a) + "_vs_" +
                                      to_string(b)),
       .kind = "swarm",
       .spec_fingerprint = util::Fingerprint(0x5357)
                               .mix(to_string(a))
                               .mix(to_string(b))
                               .mix(count_a)
                               .mix(runs)
                               .mix(seed)
                               .mix_double(fault)
                               .value(),
       .jobs_total = runs,
       .output = ""});
  telemetry.set_phase("simulate");
  std::vector<double> times_a, times_b;
  swarm::FaultStats totals;
  double recovery_sum = 0.0;
  std::size_t recovery_runs = 0;
  std::size_t incomplete_runs = 0;
  for (std::size_t run = 0; run < runs; ++run) {
    config.seed = seed + run;
    if (faulty) {
      fault::FaultSpec spec;
      spec.intensity = fault;
      spec.crash_fraction = crash_frac;
      spec.outage_fraction = outage_frac;
      spec.seed = seed + run;
      config.faults = fault::make_fault_plan(spec, 50, horizon);
      if (loss >= 0.0) config.faults.message_loss = loss;
    }
    const auto result = swarm::run_mixed_swarm(a, b, count_a, 50, config);
    const double cap = static_cast<double>(config.max_ticks);
    times_a.push_back(result.group_mean_time(0, count_a, cap));
    times_b.push_back(result.group_mean_time(count_a, 50, cap));
    if (!result.all_completed) ++incomplete_runs;
    const swarm::FaultStats& fs = result.fault_stats;
    totals.messages_lost += fs.messages_lost;
    totals.lost_kb += fs.lost_kb;
    totals.crashes += fs.crashes;
    totals.pieces_wiped += fs.pieces_wiped;
    totals.stall_ticks += fs.stall_ticks;
    totals.seeder_down_ticks += fs.seeder_down_ticks;
    if (fs.mean_seeder_recovery_ticks >= 0.0) {
      recovery_sum += fs.mean_seeder_recovery_ticks;
      ++recovery_runs;
    }
    telemetry.add_done();
  }
  telemetry.finish(true);
  std::printf("%-18s %zu leechers, avg download %.1f s (+/- %.1f)\n",
              to_string(a).c_str(), count_a, stats::mean(times_a),
              stats::ci95_half_width(times_a));
  std::printf("%-18s %zu leechers, avg download %.1f s (+/- %.1f)\n",
              to_string(b).c_str(), 50 - count_a, stats::mean(times_b),
              stats::ci95_half_width(times_b));
  if (faulty) {
    std::printf("faults over %zu runs: %llu messages lost (%.0f KB), "
                "%llu crashes (%llu pieces wiped)\n",
                runs, static_cast<unsigned long long>(totals.messages_lost),
                totals.lost_kb,
                static_cast<unsigned long long>(totals.crashes),
                static_cast<unsigned long long>(totals.pieces_wiped));
    std::printf("  %llu stall ticks, %llu seeder-down ticks",
                static_cast<unsigned long long>(totals.stall_ticks),
                static_cast<unsigned long long>(totals.seeder_down_ticks));
    if (recovery_runs > 0) {
      std::printf(", mean seeder recovery %.1f ticks",
                  recovery_sum / static_cast<double>(recovery_runs));
    }
    std::printf("\n");
    if (incomplete_runs > 0) {
      std::printf("  %zu/%zu runs hit max_ticks before everyone finished\n",
                  incomplete_runs, runs);
    }
  }
  return 0;
}

int cmd_nash(const util::CliArgs& args) {
  gametheory::ClassSetup setup;
  setup.peers_above = static_cast<std::size_t>(args.get_int("na", 10));
  setup.peers_below = static_cast<std::size_t>(args.get_int("nb", 10));
  setup.peers_same = static_cast<std::size_t>(args.get_int("nc", 10));
  setup.regular_slots = static_cast<std::size_t>(args.get_int("ur", 4));
  reject_unknown_flags(args);
  if (!setup.valid()) {
    usage("setup violates model assumptions (need NA > Ur, NC > Ur+1)");
  }

  const auto bt = gametheory::bittorrent_expected_wins(setup);
  const auto birds = gametheory::birds_expected_wins(setup);
  std::printf("Homogeneous expected game wins (NA=%zu NB=%zu NC=%zu Ur=%zu):\n",
              setup.peers_above, setup.peers_below, setup.peers_same,
              setup.regular_slots);
  std::printf("  BitTorrent: %.3f   Birds: %.3f\n", bt.total(), birds.total());
  const auto birds_in_bt = gametheory::birds_invades_bittorrent(setup);
  const auto bt_in_birds = gametheory::bittorrent_invades_birds(setup);
  std::printf("Birds invader in BT swarm: %.3f vs incumbent %.3f -> %s\n",
              birds_in_bt.invader.total(), birds_in_bt.incumbent.total(),
              birds_in_bt.invader_outperforms ? "BT is NOT a Nash equilibrium"
                                              : "no gain");
  std::printf("BT invader in Birds swarm: %.3f vs incumbent %.3f -> %s\n",
              bt_in_birds.invader.total(), bt_in_birds.incumbent.total(),
              bt_in_birds.invader_outperforms
                  ? "Birds invaded!"
                  : "no gain (Birds is a Nash equilibrium)");
  return 0;
}

int cmd_stability(const util::CliArgs& args) {
  const std::uint32_t protocol =
      parse_protocol(args.get("protocol", "bt"));
  core::EssConfig config;
  config.population = static_cast<std::size_t>(args.get_int("population", 50));
  config.mutant_fraction = args.get_double("fraction", 0.1);
  config.runs = static_cast<std::size_t>(args.get_int("runs", 1));
  config.mutant_sample =
      static_cast<std::size_t>(args.get_int("mutants", 24));
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  const SwarmingModel model = make_model(args);
  reject_unknown_flags(args);

  const core::EssQuantifier ess(model, config);
  const core::EssResult result = ess.stability_of(protocol);
  std::printf("%s\n", model.protocol_name(protocol).c_str());
  std::printf("stability %.3f against %zu sampled mutants (%.0f%% mutant "
              "groups)\n",
              result.stability,
              config.mutant_sample == 0
                  ? static_cast<std::size_t>(model.protocol_count() - 1)
                  : config.mutant_sample,
              100.0 * config.mutant_fraction);
  if (!result.invaders.empty()) {
    std::printf("successful invaders:\n");
    for (const auto& invader : result.invaders) {
      std::printf("  #%-5u %-55s %.1f vs %.1f KBps\n", invader.mutant,
                  model.protocol_name(invader.mutant).c_str(),
                  invader.mutant_utility, invader.resident_utility);
    }
  }
  return 0;
}

int cmd_evolve(const util::CliArgs& args) {
  const auto menu =
      parse_protocol_list(args.get("protocols", "bt,birds,loyal"));
  core::EvolutionConfig config;
  config.population = static_cast<std::size_t>(args.get_int("population", 50));
  config.generations =
      static_cast<std::size_t>(args.get_int("generations", 40));
  config.runs_per_generation =
      static_cast<std::size_t>(args.get_int("runs", 2));
  config.mutation_rate = args.get_double("mutation", 0.0);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 2011));
  const SwarmingModel model = make_model(args);
  reject_unknown_flags(args);

  const core::ReplicatorDynamics dynamics(model, menu, config);
  const core::EvolutionResult result = dynamics.run_from_even_split();
  std::printf("Replicator dynamics, %zu generations, population %zu:\n",
              config.generations, config.population);
  for (std::size_t i = 0; i < menu.size(); ++i) {
    std::printf("  %-55s share %.2f -> %.2f\n",
                model.protocol_name(menu[i]).c_str(),
                result.share_history.front()[i], result.final_shares()[i]);
  }
  if (result.fixated_menu_index >= 0) {
    std::printf("fixated on: %s\n",
                model
                    .protocol_name(menu[static_cast<std::size_t>(
                        result.fixated_menu_index)])
                    .c_str());
  }
  return 0;
}

int cmd_sweep(const util::CliArgs& args) {
  PraDatasetOptions options = PraDatasetOptions::from_environment();
  options.pra.threads = static_cast<std::size_t>(args.get_int(
      "threads", static_cast<std::int64_t>(options.pra.threads)));
  options.path = args.get("out", options.path.string());
  const bool force = args.has("force");
  const bool quiet = args.has("quiet");
  reject_unknown_flags(args);

  if (force) {
    std::error_code ignored;
    std::filesystem::remove(options.path, ignored);
  }
  const std::vector<PraRecord> records =
      load_or_compute_pra_dataset(options, /*verbose=*/!quiet);
  const PraRecord* best = nullptr;
  for (const PraRecord& rec : records) {
    if (best == nullptr || rec.performance > best->performance) best = &rec;
  }
  std::printf("%zu protocols -> %s\n", records.size(),
              options.path.string().c_str());
  if (best != nullptr) {
    std::printf("best performance: #%u  %s\n", best->protocol,
                best->spec.describe().c_str());
  }
  return 0;
}

int cmd_help(const util::CliArgs& args) {
  const std::string topic = args.positional(0);
  reject_unknown_flags(args);
  if (topic.empty()) {
    std::printf(
        "usage: dsa_cli <command> [args] [--flags]\n\ncommands:\n%s\n"
        "run `dsa_cli help <command>` for per-command flags and defaults.\n",
        help_index().command_list().c_str());
    return 0;
  }
  const util::CommandHelp* help = help_index().find(topic);
  if (help == nullptr) usage("unknown command '" + topic + "'");
  std::printf("%s", help->usage.c_str());
  return 0;
}

int cmd_plan(const util::CliArgs& args) {
  const std::string path = args.positional(0);
  const bool list_jobs = args.has("jobs");
  reject_unknown_flags(args);
  if (path.empty()) usage("plan needs a spec file: dsa_cli plan <spec.json>");
  try {
    const scenario::Plan plan =
        scenario::expand_plan(scenario::parse_scenario_file(path));
    const std::vector<std::size_t> done =
        scenario::completed_jobs_in_manifest(plan);
    std::printf("scenario: %s\nkind:     %s\noutput:   %s\nspec fp:  %016llx\n",
                plan.spec.name.c_str(),
                scenario::to_string(plan.spec.kind).c_str(),
                plan.spec.output.string().c_str(),
                static_cast<unsigned long long>(plan.spec_fingerprint));
    std::printf("jobs:     %zu (%zu already complete in %s)\n",
                plan.jobs.size(), done.size(),
                scenario::manifest_path(plan).string().c_str());
    if (list_jobs) {
      const std::set<std::size_t> complete(done.begin(), done.end());
      util::TablePrinter table({"job", "fingerprint", "state", "label"});
      for (const scenario::Job& job : plan.jobs) {
        char fp[17];
        std::snprintf(fp, sizeof(fp), "%016llx",
                      static_cast<unsigned long long>(job.fingerprint));
        table.add_row({std::to_string(job.index), fp,
                       complete.count(job.index) != 0 ? "done" : "todo",
                       job.label});
      }
      table.print(std::cout);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

int cmd_run(const util::CliArgs& args) {
  const std::string path = args.positional(0);
  scenario::RunOptions options;
  options.threads = static_cast<std::size_t>(
      args.get_int("threads", util::env_int("DSA_THREADS", 0)));
  options.keep_manifest = args.has("keep-manifest");
  options.verbose = !args.has("quiet");
  reject_unknown_flags(args);
  if (path.empty()) usage("run needs a spec file: dsa_cli run <spec.json>");
  try {
    const scenario::Plan plan =
        scenario::expand_plan(scenario::parse_scenario_file(path));
    const scenario::RunReport report = scenario::run_scenario(plan, options);
    if (report.reused_output) {
      std::printf("output %s already exists (delete it to re-run)\n",
                  report.output.string().c_str());
    } else {
      std::printf("scenario '%s': %zu jobs (%zu run, %zu resumed",
                  plan.spec.name.c_str(), report.total, report.executed,
                  report.skipped);
      if (report.retried > 0) std::printf(", %zu retries", report.retried);
      std::printf(") -> %s\n", report.output.string().c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

// The post-sweep half of `dsa_cli explore`: rank the merged CSV, shrink the
// worst schedule, save the counterexample, and render the failure report.
// Split out of cmd_explore so the try block stays readable.
int explore_postprocess(const scenario::Plan& plan,
                        const std::filesystem::path& output,
                        const std::string& worst_out) {
  // Rank: worst value first, ties to the lowest ordinal. Merged rows are in
  // ordinal order, so keeping the first strict improvement does both.
  const util::CsvTable table = util::CsvTable::load(output);
  if (table.row_count() == 0) {
    std::fprintf(stderr, "error: %s holds no schedules\n",
                 output.string().c_str());
    return 1;
  }
  std::size_t worst_row = 0;
  double worst_value = table.number_at(0, "value");
  double baseline_value = 0.0;
  bool saw_baseline = false;
  for (std::size_t row = 0; row < table.row_count(); ++row) {
    const double value = table.number_at(row, "value");
    if (value > worst_value) {
      worst_value = value;
      worst_row = row;
    }
    if (table.at(row, "ordinal") == "0") {
      baseline_value = value;
      saw_baseline = true;
    }
  }
  if (!saw_baseline) {
    // Ordinal 0 is the fault-free schedule; every full exploration has it.
    std::fprintf(stderr, "error: %s is missing the ordinal-0 baseline row\n",
                 output.string().c_str());
    return 1;
  }
  const std::uint64_t worst_ordinal =
      std::stoull(table.at(worst_row, "ordinal"));

  // Rebuild the worst Schedule from its ordinal (jobs all share the params).
  const scenario::ExploreContext ctx =
      scenario::explore_context(plan.jobs.front().params);
  explore::Schedule worst;
  explore::for_schedules_in(
      ctx.domain, worst_ordinal, worst_ordinal + 1,
      [&](std::uint64_t, const explore::Schedule& schedule) {
        worst = schedule;
      });
  std::printf("worst schedule: #%llu  %s\n",
              static_cast<unsigned long long>(worst_ordinal),
              table.at(worst_row, "schedule").c_str());
  std::printf("  %s = %s (fault-free baseline %s)\n",
              to_string(ctx.objective),
              util::exact_number(worst_value).c_str(),
              util::exact_number(baseline_value).c_str());
  if (worst.empty()) {
    std::printf("no schedule beats the fault-free baseline; nothing to "
                "shrink\n");
    return 0;
  }

  const explore::EvaluateFn evaluate =
      [&](const explore::Schedule& schedule) {
        return scenario::explore_value(
            ctx, scenario::run_explore_schedule(ctx, schedule));
      };
  const explore::ShrinkResult shrunk =
      explore::shrink(worst, worst_value, evaluate);
  std::printf("shrunk to %zu fault(s) in %zu evaluation(s): %s = %s\n",
              shrunk.schedule.size(), shrunk.evaluations,
              to_string(ctx.objective),
              util::exact_number(shrunk.value).c_str());

  explore::Counterexample ce;
  ce.plan = explore::materialize(ctx.domain, shrunk.schedule, ctx.loss);
  ce.a = ctx.a_name;
  ce.b = ctx.b_name;
  ce.count_a = ctx.count_a;
  ce.total = ctx.total;
  ce.seed = ctx.config.seed;
  ce.piece_count = ctx.config.piece_count;
  ce.piece_size_kb = ctx.config.piece_size_kb;
  ce.seeder_capacity_kbps = ctx.config.seeder_capacity_kbps;
  ce.max_ticks = ctx.config.max_ticks;
  ce.objective = explore::to_string(ctx.objective);
  ce.value = shrunk.value;
  ce.baseline = baseline_value;
  ce.schedule = explore::describe(ctx.domain, shrunk.schedule);
  std::filesystem::path ce_path;
  if (worst_out.empty()) {
    ce_path = plan.spec.output;
    ce_path.replace_extension();
    ce_path += ".worst.json";
  } else {
    ce_path = worst_out;
  }
  explore::save_counterexample(ce_path, ce);
  std::printf("counterexample -> %s\n", ce_path.string().c_str());
  std::printf("replay with: dsa_cli swarm --fault-file %s\n",
              ce_path.string().c_str());

#if DSA_OBS_COMPILED_IN
  // Failure report: re-run the shrunk schedule and the fault-free baseline
  // under the flight recorder at full detail, then contrast them. Any
  // ambient recording (e.g. `dsa_cli record explore ...`) is preserved
  // around the bracket.
  obs::Recorder& recorder = obs::Recorder::global();
  const obs::RecorderOptions saved{recorder.level(), recorder.stride()};
  std::vector<obs::Event> ambient = recorder.snapshot();
  recorder.configure({obs::RecordLevel::kFull, 1});
  recorder.reset();
  (void)scenario::run_explore_schedule(ctx, shrunk.schedule);
  const std::vector<obs::Event> worst_events = recorder.snapshot();
  recorder.reset();
  (void)scenario::run_explore_schedule(ctx, explore::Schedule{});
  const std::vector<obs::Event> baseline_events = recorder.snapshot();
  recorder.reset();
  recorder.configure(saved);
  recorder.append(std::move(ambient));
  std::cout << report::render_fault_timeline(worst_events);
  std::cout << report::render_fault_impact(worst_events, baseline_events);
#else
  std::printf("(failure report skipped: recorder compiled out, "
              "-DDSA_TRACE=OFF)\n");
#endif
  return 0;
}

int cmd_explore(const util::CliArgs& args) {
  const std::string path = args.positional(0);
  scenario::RunOptions options;
  options.threads = static_cast<std::size_t>(
      args.get_int("threads", util::env_int("DSA_THREADS", 0)));
  options.keep_manifest = args.has("keep-manifest");
  options.verbose = !args.has("quiet");
  const std::string worst_out = args.get("worst-out", "");
  reject_unknown_flags(args);
  if (path.empty()) {
    usage("explore needs a spec file: dsa_cli explore <spec.json>");
  }
  try {
    const scenario::Plan plan =
        scenario::expand_plan(scenario::parse_scenario_file(path));
    if (plan.spec.kind != scenario::Kind::kExplore) {
      throw std::runtime_error(
          "spec kind is \"" + scenario::to_string(plan.spec.kind) +
          "\"; `dsa_cli explore` needs kind \"explore\" (use `dsa_cli run`)");
    }
    const scenario::RunReport report = scenario::run_scenario(plan, options);
    if (report.reused_output) {
      std::printf("output %s already exists; ranking the cached sweep "
                  "(delete it to re-explore)\n",
                  report.output.string().c_str());
    } else {
      std::printf("explored '%s': %zu jobs (%zu run, %zu resumed",
                  plan.spec.name.c_str(), report.total, report.executed,
                  report.skipped);
      if (report.retried > 0) std::printf(", %zu retries", report.retried);
      std::printf(") -> %s\n", report.output.string().c_str());
    }
    return explore_postprocess(plan, report.output, worst_out);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int dispatch(const std::string& command, const util::CliArgs& args);

// `record` owns the flags before the inner command, then re-parses the rest
// as a normal invocation: main() hands it raw argv (starting at the token
// after "record") because util::CliArgs would otherwise swallow the inner
// command's flags.
int cmd_record(int argc, char** argv) {
  std::string out = "results/recording.jsonl";
  std::string context;
  obs::RecorderOptions options = obs::RecorderOptions::from_environment();
  if (options.level == obs::RecordLevel::kOff) {
    options.level = obs::RecordLevel::kRounds;
  }
  int i = 0;
  auto value_of = [&](const char* flag) -> std::string {
    if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
    return argv[++i];
  };
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--out") {
      out = value_of("--out");
    } else if (arg == "--level") {
      options.level = obs::parse_record_level(value_of("--level"));
    } else if (arg == "--stride") {
      const int stride = std::stoi(value_of("--stride"));
      if (stride < 1) usage("--stride must be >= 1");
      options.stride = static_cast<std::uint32_t>(stride);
    } else if (arg == "--context") {
      context = value_of("--context");
    } else {
      break;
    }
  }
  if (i >= argc) {
    usage("record needs an inner command, e.g. "
          "dsa_cli record --out r.jsonl swarm --runs 3");
  }
#if !DSA_OBS_COMPILED_IN
  std::fprintf(stderr,
               "warning: recorder compiled out (-DDSA_TRACE=OFF); the "
               "recording will be empty\n");
#endif
  obs::Recorder::global().configure(options);
  if (!context.empty()) obs::Recorder::global().set_context(context);

  const util::CliArgs inner = util::CliArgs::parse(argc - i, argv + i);
  const int rc = dispatch(inner.subcommand(), inner);

  obs::Recorder::global().save(out);
  std::fprintf(stderr, "recording: %zu events -> %s\n",
               obs::Recorder::global().event_count(), out.c_str());
  return rc;
}

int cmd_report(const util::CliArgs& args) {
  const std::string table = args.get("table", "all");
  const bool health = args.has("health");
  // `report --health <file>` binds the path as the flag's value while
  // `report <file> --health` leaves it positional; accept both spellings.
  std::string path = args.positional(0);
  if (health && path.empty()) {
    try {
      path = args.get("health", "");
    } catch (const std::invalid_argument&) {
      // bare --health with no operand: fall through to the usage error
    }
  }
  reject_unknown_flags(args);
  if (path.empty()) {
    usage(health ? "report --health needs a time-series: dsa_cli report "
                   "--health <STATUS_run.timeseries.jsonl>"
                 : "report needs a recording: dsa_cli report "
                   "<recording.jsonl>");
  }
  if (health) {
    try {
      const std::vector<obs::TimeseriesSample> samples =
          obs::load_timeseries(path);
      std::cout << report::render_health_timeline(samples);
      return 0;
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      return 2;
    }
  }
  const std::set<std::string> known = {"all",  "summary", "fig5",
                                      "fig9", "pra",     "wins",
                                      "swarm"};
  if (known.count(table) == 0) {
    usage("unknown --table '" + table +
          "' (all|summary|fig5|fig9|pra|wins|swarm)");
  }
  try {
    const report::Recording recording = report::load_recording(path);
    const auto has_kind = [&](obs::EventKind kind) {
      for (const obs::Event& event : recording.events) {
        if (event.kind == kind) return true;
      }
      return false;
    };
    const bool all = table == "all";
    // `all` renders only the tables with matching events; naming a table
    // renders it unconditionally (empty tables show their headers).
    if (all || table == "summary") {
      std::cout << report::render_summary(recording);
    }
    if (table == "fig5" || (all && has_kind(obs::EventKind::kPra))) {
      std::cout
          << report::render_fig5(
                 report::fig5_robustness_by_policy(
                     std::span<const obs::Event>(recording.events)))
                 .text;
    }
    if (table == "pra" || (all && has_kind(obs::EventKind::kPra))) {
      std::cout << report::render_pra_breakdowns(recording.events);
    }
    if (table == "fig9" || (all && has_kind(obs::EventKind::kMixedSwarm))) {
      for (const auto& series :
           report::encounter_series_from_events(recording.events)) {
        std::cout << report::render_encounter_series(series);
      }
    }
    if (table == "wins" || (all && (has_kind(obs::EventKind::kPeer) ||
                                    has_kind(obs::EventKind::kLeecher)))) {
      std::cout << report::render_win_matrix(recording.events);
    }
    if (table == "swarm" || (all && has_kind(obs::EventKind::kLeecher))) {
      std::cout << report::render_swarm_times(recording.events);
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

int cmd_flame(const util::CliArgs& args) {
  const std::string path = args.positional(0);
  const std::string floor_text = args.get("min-attribution", "");
  reject_unknown_flags(args);
  if (path.empty()) {
    usage("flame needs a collapsed-stack file: dsa_cli flame "
          "<profile.folded>");
  }
  double floor = -1.0;
  if (!floor_text.empty()) {
    try {
      std::size_t used = 0;
      floor = std::stod(floor_text, &used);
      if (used != floor_text.size() || !(floor >= 0.0) || floor > 1.0) {
        throw std::invalid_argument(floor_text);
      }
    } catch (const std::exception&) {
      usage("--min-attribution must be a fraction in [0, 1], got '" +
            floor_text + "'");
    }
  }
  try {
    const obs::FoldedStacks stacks = obs::load_folded(path);
    std::cout << obs::render_flame(stacks);
    if (floor >= 0.0) {
      const obs::FlameSummary summary = obs::summarize_folded(stacks);
      if (summary.attribution() < floor) {
        std::fprintf(stderr,
                     "flame: attribution %.1f%% is below the required "
                     "%.1f%%\n",
                     100.0 * summary.attribution(), 100.0 * floor);
        return 1;
      }
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}

// ---------------------------------------------------------------------------
// `serve` / `query`: the resident query daemon (src/serve) and its client.

// SIGINT/SIGTERM flip this flag; the accept loop polls it so a ctrl-c
// drains in-flight queries instead of dropping them mid-merge.
std::atomic<bool> g_serve_stop{false};

void serve_stop_handler(int) { g_serve_stop.store(true); }

int cmd_serve(const util::CliArgs& args) {
  serve::ServerOptions options;
  options.socket_path = args.get("socket", "results/serve.sock");
  options.threads = static_cast<std::size_t>(
      args.get_int("threads", util::env_int("DSA_THREADS", 0)));
  const int cache_mb = args.get_int("cache-mb", 64);
  const std::string store = args.get("store", "");
  options.verbose = !args.has("quiet");
  reject_unknown_flags(args);
  if (cache_mb < 1) usage("--cache-mb must be >= 1");
  options.cache.memory_budget_bytes =
      static_cast<std::size_t>(cache_mb) * 1024 * 1024;
  if (store.empty()) {
    options.cache.store_path = options.socket_path;
    options.cache.store_path.replace_extension(".cache.jsonl");
  } else {
    options.cache.store_path = store;
  }

  // A daemon should be watchable without the operator remembering
  // DSA_STATUS=on: force the heartbeat sampler on (keeping any interval /
  // directory overrides from the environment) before the run registers.
  obs::TelemetryOptions telemetry = obs::Telemetry::global().options();
  if (!telemetry.enabled) {
    telemetry.enabled = true;
    obs::Telemetry::global().configure(telemetry);
  }

  try {
    serve::Server server(options);
    if (options.verbose) {
      const std::map<std::string, std::uint64_t> counters = server.counters();
      std::printf("serve: listening on %s (%d MB cache, store %s)\n",
                  options.socket_path.string().c_str(), cache_mb,
                  options.cache.store_path.string().c_str());
      std::printf(
          "serve: %llu cached job(s) pre-warmed from the store"
          " (%llu rejected)\n",
          static_cast<unsigned long long>(counters.at("store_loaded")),
          static_cast<unsigned long long>(counters.at("store_rejected")));
      std::printf("serve: query with `dsa_cli query <spec.json> --socket "
                  "%s`; ctrl-c to stop\n",
                  options.socket_path.string().c_str());
      std::fflush(stdout);
    }
    g_serve_stop.store(false);
    std::signal(SIGINT, serve_stop_handler);
    std::signal(SIGTERM, serve_stop_handler);
    server.serve(g_serve_stop);
    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    if (options.verbose) {
      const std::map<std::string, std::uint64_t> counters = server.counters();
      std::printf(
          "serve: stopped after %llu query(ies) (%llu cache hits, %llu "
          "misses, %llu jobs executed)\n",
          static_cast<unsigned long long>(counters.at("queries")),
          static_cast<unsigned long long>(counters.at("cache_hits")),
          static_cast<unsigned long long>(counters.at("cache_misses")),
          static_cast<unsigned long long>(counters.at("jobs_executed")));
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

int cmd_query(const util::CliArgs& args) {
  const std::string spec_path = args.positional(0);
  const std::filesystem::path socket = args.get("socket", "results/serve.sock");
  const bool want_table = args.has("table");
  const std::string out = args.get("out", "");
  const bool quiet = args.has("quiet");
  const bool ping = args.has("ping");
  const bool status = args.has("status");
  const bool shutdown = args.has("shutdown");
  const bool json = args.has("json");
  reject_unknown_flags(args);
  if (static_cast<int>(ping) + static_cast<int>(status) +
          static_cast<int>(shutdown) >
      1) {
    usage("--ping, --status, and --shutdown are mutually exclusive");
  }
  if (spec_path.empty() && !ping && !status && !shutdown) {
    usage("query needs a spec file: dsa_cli query <spec.json> "
          "[--socket PATH]");
  }
  try {
    serve::Client client(socket);
    if (ping) {
      client.ping();
      std::printf("pong from %s\n", socket.string().c_str());
      return 0;
    }
    if (status) {
      const std::map<std::string, std::uint64_t> counters = client.status();
      if (json) {
        std::string line = "{\"type\":\"serve_status\",\"schema\":1";
        line += ",\"socket\":\"" + util::json::escape(socket.string()) + "\"";
        for (const auto& [name, value] : counters) {
          line += ",\"" + util::json::escape(name) +
                  "\":" + std::to_string(value);
        }
        line += "}";
        std::printf("%s\n", line.c_str());
      } else {
        util::TablePrinter table({"counter", "value"});
        for (const auto& [name, value] : counters) {
          table.add_row({name, std::to_string(value)});
        }
        table.print(std::cout);
      }
      return 0;
    }
    if (shutdown) {
      client.shutdown();
      std::printf("serve daemon at %s is shutting down\n",
                  socket.string().c_str());
      return 0;
    }

    std::ifstream spec_file(spec_path);
    if (!spec_file) {
      throw std::runtime_error("cannot read spec file " + spec_path);
    }
    std::stringstream spec_text;
    spec_text << spec_file.rdbuf();

    std::function<void(std::uint64_t, std::uint64_t, std::uint64_t)>
        on_progress;
    if (!quiet) {
      on_progress = [](std::uint64_t done, std::uint64_t total,
                       std::uint64_t cached) {
        std::fprintf(stderr, "\r  %llu/%llu jobs (%llu from cache)",
                     static_cast<unsigned long long>(done),
                     static_cast<unsigned long long>(total),
                     static_cast<unsigned long long>(cached));
        if (done == total) std::fputc('\n', stderr);
      };
    }
    const serve::Response result = client.query(
        spec_text.str(), want_table ? "table" : "csv", on_progress);
    if (!quiet) {
      std::fprintf(
          stderr,
          "query '%s' (%s): %llu jobs (%llu cached, %llu executed) in "
          "%s ms\n",
          result.scenario.c_str(), result.kind.c_str(),
          static_cast<unsigned long long>(result.jobs),
          static_cast<unsigned long long>(result.cached_jobs),
          static_cast<unsigned long long>(result.executed_jobs),
          util::fixed(result.ms, 1).c_str());
    }
    if (out.empty()) {
      std::fputs(result.body.c_str(), stdout);
    } else {
      util::atomic_write(out, result.body);
      if (!quiet) std::fprintf(stderr, "result -> %s\n", out.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}

// ---------------------------------------------------------------------------
// `status` / `top`: read-only monitors over the heartbeat files live runs
// maintain under DSA_STATUS=on (src/obs/telemetry.hpp). Both only read
// those files — they never signal or otherwise touch the monitored
// processes, so attaching a monitor cannot change any result.

std::int64_t unix_now_ms() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string format_duration(double seconds) {
  if (seconds < 0.0) return "--";
  const auto total = static_cast<unsigned long long>(seconds + 0.5);
  char buf[32];
  if (total < 60) {
    std::snprintf(buf, sizeof(buf), "%llus", total);
  } else if (total < 3600) {
    std::snprintf(buf, sizeof(buf), "%llum%02llus", total / 60, total % 60);
  } else {
    std::snprintf(buf, sizeof(buf), "%lluh%02llum", total / 3600,
                  (total % 3600) / 60);
  }
  return buf;
}

std::string progress_bar(std::uint64_t done, std::uint64_t total,
                         std::size_t width) {
  if (total == 0) return std::string(width, '?');
  const std::size_t filled = std::min(
      width, static_cast<std::size_t>(
                 (static_cast<double>(done) / static_cast<double>(total)) *
                 static_cast<double>(width)));
  std::string bar(filled, '#');
  bar.append(width - filled, '.');
  return bar;
}

char shard_strip_char(const std::string& state) {
  if (state == "todo") return '.';
  if (state == "running") return '>';
  if (state == "done") return '#';
  if (state == "failed") return 'x';
  if (state == "resumed") return '=';
  return '?';
}

bool terminal_health(obs::RunHealth health) {
  return health == obs::RunHealth::kDone ||
         health == obs::RunHealth::kFailed || health == obs::RunHealth::kDead;
}

int cmd_status(const util::CliArgs& args) {
  std::string target = args.positional(0);
  const bool json = args.has("json");
  reject_unknown_flags(args);
  if (target.empty()) target = "results";

  const std::vector<std::filesystem::path> files =
      obs::find_status_files(target);
  const std::int64_t now = unix_now_ms();
  bool parse_error = false;
  std::vector<obs::StatusFile> statuses;
  std::vector<obs::RunHealth> healths;
  for (const std::filesystem::path& path : files) {
    try {
      obs::StatusFile status = obs::load_status_file(path);
      healths.push_back(
          obs::classify_status(status, now, obs::pid_alive(status.pid)));
      statuses.push_back(std::move(status));
    } catch (const std::exception& error) {
      std::fprintf(stderr, "error: %s\n", error.what());
      parse_error = true;
    }
  }

  if (json) {
    std::string out = "{\"type\":\"status_report\",\"schema\":1";
    out += ",\"target\":\"" + util::json::escape(target) + "\"";
    out += ",\"generated_unix_ms\":" + std::to_string(now);
    out += ",\"runs\":[";
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      const obs::StatusFile& s = statuses[i];
      if (i != 0) out += ',';
      out += "{\"name\":\"" + util::json::escape(s.name) + "\"";
      out += ",\"kind\":\"" + util::json::escape(s.kind) + "\"";
      out += ",\"health\":\"";
      out += obs::to_string(healths[i]);
      out += "\",\"state\":\"" + util::json::escape(s.state) + "\"";
      out += ",\"phase\":\"" + util::json::escape(s.phase) + "\"";
      out += ",\"pid\":" + std::to_string(s.pid);
      out += ",\"seq\":" + std::to_string(s.seq);
      out += ",\"jobs\":{\"done\":" + std::to_string(s.done);
      out += ",\"total\":" + std::to_string(s.total);
      out += ",\"failed\":" + std::to_string(s.failed) + "}";
      out += ",\"rate_per_sec\":" + util::exact_number(s.rate_per_sec);
      out += ",\"eta_sec\":" + util::exact_number(s.eta_sec);
      out += ",\"rss_kb\":" + std::to_string(s.rss_kb);
      out += ",\"peak_rss_kb\":" + std::to_string(s.peak_rss_kb);
      out += ",\"queue_depth\":" + std::to_string(s.queue_depth);
      out += ",\"uptime_sec\":" + util::exact_number(s.uptime_sec);
      out += ",\"timestamp_unix_ms\":" + std::to_string(s.timestamp_unix_ms);
      out += ",\"interval_ms\":" + std::to_string(s.interval_ms);
      // Cumulative metric counters and gauges from the heartbeat, so CI
      // can assert on feeds like serve.cache_hits without a daemon client.
      out += ",\"counters\":{";
      for (auto it = s.counters.begin(); it != s.counters.end(); ++it) {
        if (it != s.counters.begin()) out += ',';
        out += '"';
        out += util::json::escape(it->first);
        out += "\":";
        out += std::to_string(it->second);
      }
      out += "},\"gauges\":{";
      for (auto it = s.gauges.begin(); it != s.gauges.end(); ++it) {
        if (it != s.gauges.begin()) out += ',';
        out += '"';
        out += util::json::escape(it->first);
        out += "\":";
        out += util::exact_number(it->second);
      }
      out += "}";
      if (!s.spec_fp.empty()) {
        out += ",\"spec_fp\":\"" + util::json::escape(s.spec_fp) + "\"";
      }
      if (!s.output.empty()) {
        out += ",\"output\":\"" + util::json::escape(s.output) + "\"";
      }
      if (!s.last_error.empty()) {
        out += ",\"last_error\":\"" + util::json::escape(s.last_error) + "\"";
      }
      out += ",\"path\":\"" + util::json::escape(s.path.string()) + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  } else if (statuses.empty()) {
    std::fprintf(stderr,
                 "no *.status.json under %s (start a run with DSA_STATUS=on)\n",
                 target.c_str());
  } else {
    util::TablePrinter table({"run", "kind", "health", "phase", "done",
                              "total", "fail", "rate/s", "eta", "rss KB",
                              "pid"});
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      const obs::StatusFile& s = statuses[i];
      table.add_row({s.name, s.kind, obs::to_string(healths[i]), s.phase,
                     std::to_string(s.done), std::to_string(s.total),
                     std::to_string(s.failed), util::fixed(s.rate_per_sec, 2),
                     format_duration(s.eta_sec), std::to_string(s.rss_kb),
                     std::to_string(s.pid)});
    }
    table.print(std::cout);
    for (std::size_t i = 0; i < statuses.size(); ++i) {
      if (!statuses[i].last_error.empty()) {
        std::printf("%s last error: %s\n", statuses[i].name.c_str(),
                    statuses[i].last_error.c_str());
      }
    }
  }

  if (parse_error) return 2;
  if (statuses.empty()) return 1;
  for (const obs::RunHealth health : healths) {
    if (health != obs::RunHealth::kRunning &&
        health != obs::RunHealth::kDone) {
      return 1;
    }
  }
  return 0;
}

// Renders one run as a small block of lines into `out`.
void render_top_run(const obs::StatusFile& s, obs::RunHealth health,
                    std::int64_t now, std::string* out) {
  char line[512];
  const double beat_age =
      static_cast<double>(now - s.timestamp_unix_ms) / 1000.0;
  std::snprintf(line, sizeof(line),
                "%s  [%s]  %s  phase %s  pid %lld  up %s  beat %.1fs ago\n",
                s.name.c_str(), s.kind.c_str(), obs::to_string(health),
                s.phase.empty() ? "-" : s.phase.c_str(),
                static_cast<long long>(s.pid),
                format_duration(s.uptime_sec).c_str(), beat_age);
  *out += line;
  const double pct =
      s.total == 0 ? 0.0
                   : 100.0 * static_cast<double>(s.done) /
                         static_cast<double>(s.total);
  std::snprintf(line, sizeof(line),
                "  [%s] %5.1f%%  %llu/%llu jobs (%llu failed)  %.2f/s  "
                "eta %s\n",
                progress_bar(s.done, s.total, 30).c_str(), pct,
                static_cast<unsigned long long>(s.done),
                static_cast<unsigned long long>(s.total),
                static_cast<unsigned long long>(s.failed), s.rate_per_sec,
                format_duration(s.eta_sec).c_str());
  *out += line;
  std::snprintf(line, sizeof(line),
                "  rss %llu KB (peak %llu)  queue %llu\n",
                static_cast<unsigned long long>(s.rss_kb),
                static_cast<unsigned long long>(s.peak_rss_kb),
                static_cast<unsigned long long>(s.queue_depth));
  *out += line;
  if (!s.shards.empty()) {
    std::string strip;
    strip.reserve(s.shards.size());
    for (const auto& [id, state] : s.shards) {
      (void)id;
      strip.push_back(shard_strip_char(state));
    }
    *out += "  shards: " + strip + "\n";
  } else if (!s.shard_counts.empty()) {
    *out += "  shards:";
    for (const auto& [state, count] : s.shard_counts) {
      std::snprintf(line, sizeof(line), " %llu %s",
                    static_cast<unsigned long long>(count), state.c_str());
      *out += line;
    }
    *out += "\n";
  }
  // Sketch-backed health summaries (count first, then the quantile and
  // moment fields in map order).
  for (const auto& [metric, fields] : s.sketches) {
    std::string row = "  " + metric + ":";
    if (const auto count = fields.find("count"); count != fields.end()) {
      std::snprintf(line, sizeof(line), " n=%.0f", count->second);
      row += line;
    }
    for (const auto& [key, value] : fields) {
      if (key == "count") continue;
      std::snprintf(line, sizeof(line), " %s=%.4g", key.c_str(), value);
      row += line;
    }
    *out += row + "\n";
  }
  if (!s.last_error.empty()) {
    *out += "  last error: " + s.last_error + "\n";
  }
}

int cmd_top(const util::CliArgs& args) {
  std::string target = args.positional(0);
  const auto interval_ms =
      static_cast<std::int64_t>(args.get_int("interval-ms", 1000));
  const auto frame_limit =
      static_cast<std::int64_t>(args.get_int("frames", 0));
  const bool once = args.has("once");
  reject_unknown_flags(args);
  if (target.empty()) target = "results";
  if (interval_ms < 50) usage("--interval-ms must be >= 50");
  if (frame_limit < 0) usage("--frames must be >= 0");

  bool rendered_any = false;
  for (std::int64_t frame = 0;; ++frame) {
    const std::vector<std::filesystem::path> files =
        obs::find_status_files(target);
    const std::int64_t now = unix_now_ms();
    std::string screen;
    bool all_terminal = !files.empty();
    std::size_t shown = 0;
    for (const std::filesystem::path& path : files) {
      obs::StatusFile status;
      try {
        status = obs::load_status_file(path);
      } catch (const std::exception&) {
        // A heartbeat can be torn mid-write by a dying process; skip it
        // this frame and try again on the next one.
        all_terminal = false;
        continue;
      }
      const obs::RunHealth health =
          obs::classify_status(status, now, obs::pid_alive(status.pid));
      if (!terminal_health(health)) all_terminal = false;
      if (shown != 0) screen += "\n";
      render_top_run(status, health, now, &screen);
      ++shown;
    }
    if (shown == 0) {
      screen = "waiting for *.status.json under " + target +
               " (start a run with DSA_STATUS=on)\n";
    } else {
      rendered_any = true;
    }
    if (once) {
      std::fputs(screen.c_str(), stdout);
      return rendered_any ? 0 : 1;
    }
    // Home + clear-to-end redraw keeps the frame flicker-free on any TTY.
    std::printf("\x1b[H\x1b[J%s\n(dsa_cli top: %s, every %lldms; ctrl-c to "
                "detach)\n",
                screen.c_str(), target.c_str(),
                static_cast<long long>(interval_ms));
    std::fflush(stdout);
    if (all_terminal && shown != 0) return 0;
    if (frame_limit > 0 && frame + 1 >= frame_limit) {
      return rendered_any ? 0 : 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}

int cmd_version() {
  const char* sanitize = DSA_BUILD_SANITIZE;
  std::printf("dsa_cli - design space analysis for distributed incentives\n");
  std::printf("  compiler:        %s\n", DSA_BUILD_COMPILER);
  std::printf("  build type:      %s\n", DSA_BUILD_TYPE);
  std::printf("  DSA_NATIVE:      %s\n", DSA_BUILD_NATIVE);
  std::printf("  DSA_SANITIZE:    %s\n",
              sanitize[0] != '\0' ? sanitize : "(none)");
  std::printf("  observability:   %s\n",
              DSA_OBS_COMPILED_IN != 0 ? "compiled in (DSA_TRACE=ON)"
                                       : "compiled out (DSA_TRACE=OFF)");
  std::printf("  live telemetry:  DSA_STATUS=on enables heartbeat + "
              "time-series sampling\n"
              "                   (DSA_STATUS_INTERVAL_MS, DSA_STATUS_DIR; "
              "metric feeds %s)\n",
              DSA_OBS_COMPILED_IN != 0 ? "compiled in" : "compiled out");
  std::printf("  profiler:        DSA_PROF=on enables wall-clock stack "
              "sampling -> collapsed\n"
              "                   stacks (DSA_PROF_HZ default 97, "
              "DSA_PROF_OUT; render with\n"
              "                   `dsa_cli flame`; live-stack depth %zu; "
              "phases %s)\n",
              obs::Profiler::kMaxLiveDepth,
              DSA_OBS_COMPILED_IN != 0 ? "compiled in" : "compiled out");
  std::printf("  sketches:        registry distributions (p50/p90/p99 within "
              "1%% relative error,\n"
              "                   min/max/mean/stddev) feed health timelines "
              "(`dsa_cli report\n"
              "                   --health`)\n");
  std::printf("  serve daemon:    compiled in (dsa_cli serve / query over a "
              "unix socket;\n"
              "                   content-addressed result cache, JSONL "
              "store pre-warm)\n");
  std::printf("  thread default:  %zu (DSA_THREADS or --threads override)\n",
              util::ThreadPool::default_thread_count());
  return 0;
}

int dispatch(const std::string& command, const util::CliArgs& args) {
  if (command == "decode") return cmd_decode(args);
  if (command == "named") return cmd_named(args);
  if (command == "performance") return cmd_performance(args);
  if (command == "encounter") return cmd_encounter(args);
  if (command == "pra") return cmd_pra(args);
  if (command == "sweep") return cmd_sweep(args);
  if (command == "swarm") return cmd_swarm(args);
  if (command == "nash") return cmd_nash(args);
  if (command == "stability") return cmd_stability(args);
  if (command == "evolve") return cmd_evolve(args);
  if (command == "plan") return cmd_plan(args);
  if (command == "run") return cmd_run(args);
  if (command == "explore") return cmd_explore(args);
  if (command == "report") return cmd_report(args);
  if (command == "flame") return cmd_flame(args);
  if (command == "serve") return cmd_serve(args);
  if (command == "query") return cmd_query(args);
  if (command == "status") return cmd_status(args);
  if (command == "top") return cmd_top(args);
  if (command == "help") return cmd_help(args);
  if (command == "version") return cmd_version();
  usage(command.empty() ? "missing command"
                        : "unknown command '" + command + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // DSA_RECORD / DSA_RECORD_STRIDE arm the flight recorder for any
    // command; `dsa_cli record` layers its flags on top and saves the file.
    obs::Recorder::global().configure(
        obs::RecorderOptions::from_environment());
    // DSA_STATUS=on starts the live-telemetry sampler for any command;
    // strict parsing means a misspelled value aborts with a named error.
    obs::Telemetry::global().configure(
        obs::TelemetryOptions::from_environment());
    // DSA_PROF=on starts the wall-clock sampling profiler for any command.
    // Unless DSA_PROF_OUT says otherwise, the collapsed stacks land in
    // results/PROF_<command>.folded.
    obs::FlameOptions prof = obs::FlameOptions::from_environment();
    if (prof.enabled && util::env_string("DSA_PROF_OUT", "").empty() &&
        argc >= 2) {
      prof.out = "results/PROF_" + obs::sanitize_run_name(argv[1]) + ".folded";
    }
    obs::FlameSampler::global().configure(prof);
    const auto flame_epilogue = [&prof] {
      if (!prof.enabled) return;
      const std::uint64_t samples =
          obs::FlameSampler::global().stop_and_write();
      if (samples > 0) {
        std::fprintf(
            stderr, "prof: %llu samples -> %s (render with `dsa_cli flame`)\n",
            static_cast<unsigned long long>(samples),
            prof.out.string().c_str());
      }
    };
    if (argc >= 2 && std::string(argv[1]) == "record") {
      const int rc = cmd_record(argc - 2, argv + 2);
      flame_epilogue();
      return rc;
    }

    const util::CliArgs args = util::CliArgs::parse(argc - 1, argv + 1);
    if (args.subcommand().empty() && args.has("version")) return cmd_version();

    // Global observability flags wrap whichever command runs. Tracing and
    // metrics only read the wall clock and write their own files, so every
    // command's numeric output is identical with or without them.
    const std::string trace_path = args.get("trace", "");
    const std::string metrics_path = args.get("metrics-out", "");
    if (!trace_path.empty()) obs::TraceSink::global().start(trace_path);
    if (!metrics_path.empty()) obs::set_enabled(true);

    // The command name becomes the root phase on the main thread, so every
    // sampled stack (and the phase report) hangs below one root.
    const int rc = [&] {
      obs::ScopedPhase root_phase(args.subcommand());
      return dispatch(args.subcommand(), args);
    }();

    if (!trace_path.empty()) {
      const std::size_t events = obs::TraceSink::global().stop_and_write();
      std::fprintf(stderr, "trace: %zu events -> %s (load in chrome://tracing "
                   "or https://ui.perfetto.dev)\n",
                   events, trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      obs::Registry::global().snapshot().save_jsonl(metrics_path);
      std::fprintf(stderr, "metrics: wrote %s\n", metrics_path.c_str());
    }
    flame_epilogue();
    return rc;
  } catch (const std::exception& error) {
    usage(error.what());
  }
}
