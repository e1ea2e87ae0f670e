// Microbenchmarks (google-benchmark): throughput of the two simulators and
// the PRA engine's building blocks. These calibrate the DSA_* scale knobs —
// the figure benches' wall-clock cost is (simulations) x (time/run) measured
// here.
//
// The round-model benchmarks run the production engine and the test-side
// dense oracle (tests/oracle) side-by-side, and main() first asserts the two
// produce bit-for-bit identical outcomes on a churning mixed population — a
// cheap guard against silent divergence that runs every time the bench does.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "core/pra.hpp"
#include "oracle/dense_engine.hpp"
#include "swarm/swarm_sim.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/simulator.hpp"

namespace {

using namespace dsa;

/// One simulation on the engine a benchmark's `engine` argument names:
/// 0 the production engine, 1 the dense oracle.
swarming::SimulationOutcome simulate_on(
    std::int64_t engine, const std::vector<swarming::ProtocolSpec>& protocols,
    const swarming::SimulationConfig& config,
    const swarming::BandwidthDistribution& bandwidths) {
  const std::vector<double> capacities = swarming::shuffled_capacities(
      protocols.size(), bandwidths, config.seed);
  return engine == 1 ? swarming::oracle::simulate_rounds_dense(
                           protocols, capacities, config, &bandwidths)
                     : swarming::simulate_rounds(protocols, capacities,
                                                 config, &bandwidths);
}

void BM_RoundSimHomogeneous(benchmark::State& state) {
  const auto rounds = static_cast<std::size_t>(state.range(0));
  swarming::SimulationConfig config;
  config.rounds = rounds;
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  const std::vector<swarming::ProtocolSpec> protocols(
      50, swarming::bittorrent_protocol());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        simulate_on(state.range(1), protocols, config, bandwidths)
            .population_mean());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rounds) * 50);
}
BENCHMARK(BM_RoundSimHomogeneous)
    ->ArgNames({"rounds", "engine"})  // engine: 0 sparse, 1 dense oracle
    ->Args({120, 0})
    ->Args({120, 1})
    ->Args({500, 0})
    ->Args({500, 1});

void BM_RoundSimEncounter(benchmark::State& state) {
  swarming::SimulationConfig config;
  config.rounds = static_cast<std::size_t>(state.range(0));
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  std::vector<swarming::ProtocolSpec> protocols(
      25, swarming::bittorrent_protocol());
  protocols.insert(protocols.end(), 25,
                   swarming::loyal_when_needed_protocol());
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        simulate_on(state.range(1), protocols, config, bandwidths)
            .group_mean(0, 25));
  }
}
BENCHMARK(BM_RoundSimEncounter)
    ->ArgNames({"rounds", "engine"})  // engine: 0 sparse, 1 dense oracle
    ->Args({120, 0})
    ->Args({120, 1})
    ->Args({500, 0})
    ->Args({500, 1});

void BM_SwarmDownload(benchmark::State& state) {
  swarm::SwarmConfig config;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    config.seed = seed++;
    benchmark::DoNotOptimize(
        swarm::run_mixed_swarm(swarm::ClientVariant::kBitTorrent,
                               swarm::ClientVariant::kBirds, 25, 50, config));
  }
}
BENCHMARK(BM_SwarmDownload);

void BM_ProtocolCodec(benchmark::State& state) {
  std::uint32_t id = 0;
  for (auto _ : state) {
    const auto spec = swarming::decode_protocol(id);
    benchmark::DoNotOptimize(swarming::encode_protocol(spec));
    id = (id + 1) % swarming::kProtocolCount;
  }
}
BENCHMARK(BM_ProtocolCodec);

/// Runs one churning mixed-population config on the production engine and
/// the dense oracle and aborts on any outcome difference — the contract is
/// bitwise identity, not mere closeness, so compare with == rather than a
/// tolerance.
void assert_engines_match() {
  swarming::SimulationConfig config;
  config.rounds = 200;
  config.churn_rate = 0.02;
  config.intake_factor = 1.5;
  config.seed = 77;
  const auto bandwidths = swarming::BandwidthDistribution::piatek();
  swarming::ProtocolSpec freerider = swarming::bittorrent_protocol();
  freerider.allocation = swarming::AllocationPolicy::kFreeride;
  std::vector<swarming::ProtocolSpec> protocols;
  protocols.insert(protocols.end(), 20, swarming::bittorrent_protocol());
  protocols.insert(protocols.end(), 20,
                   swarming::loyal_when_needed_protocol());
  protocols.insert(protocols.end(), 10, freerider);
  const std::vector<double> capacities =
      bandwidths.stratified_sample(protocols.size());

  const auto sparse =
      swarming::simulate_rounds(protocols, capacities, config, &bandwidths);
  const auto dense = swarming::oracle::simulate_rounds_dense(
      protocols, capacities, config, &bandwidths);
  if (sparse.peer_throughput != dense.peer_throughput ||
      sparse.peers_replaced != dense.peers_replaced) {
    std::fprintf(stderr,
                 "FATAL: the engine diverged from the dense oracle on the "
                 "guard config (seed=%llu)\n",
                 static_cast<unsigned long long>(config.seed));
    std::abort();
  }
  std::fprintf(stderr,
               "[guard] sparse engine and dense oracle outcomes identical\n");
}

}  // namespace

int main(int argc, char** argv) {
  ::dsa::bench::MetricsScope metrics_scope("micro");
  dsa::bench::runtime_banner();
  assert_engines_match();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
