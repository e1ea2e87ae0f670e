// Sec. 4.4 (in-text): performance of the space under churn rates 0.01 and
// 0.1 per round — low-partner-count protocols remain the best performers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "core/pra.hpp"
#include "stats/descriptive.hpp"
#include "swarming/dsa_model.hpp"
#include "swarming/pra_dataset.hpp"
#include "util/env.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

using namespace dsa;
using namespace dsa::swarming;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("churn");
  bench::banner(
      "Sec. 4.4 — homogeneous performance under churn (rates 0.01 and 0.1)",
      "even under churn it is still the protocols with a low number of "
      "partners that perform best");

  // A deterministic 1-in-3 sample of the space keeps this bench minutes-
  // scale; DSA_CHURN_STRIDE=1 sweeps all 3270 protocols.
  const auto stride = static_cast<std::size_t>(
      util::env_int("DSA_CHURN_STRIDE", 3));
  const auto rounds =
      static_cast<std::size_t>(util::env_int("DSA_ROUNDS", 120));
  const auto runs =
      static_cast<std::size_t>(util::env_int("DSA_PERF_RUNS", 2));

  std::vector<std::uint32_t> members;
  for (std::uint32_t id = 0; id < kProtocolCount; id += stride) {
    members.push_back(id);
  }

  const auto bandwidths = BandwidthDistribution::piatek();

  for (double churn : {0.01, 0.1}) {
    SimulationConfig sim;
    sim.rounds = rounds;
    sim.churn_rate = churn;
    const SwarmingModel model(sim, bandwidths);

    std::vector<double> perf(members.size());
    // One lane per core: the workers and this thread.
    util::ThreadPool pool(util::ThreadPool::default_thread_count() - 1);
    pool.parallel_for(members.size(), [&](std::size_t i) {
      double total = 0.0;
      for (std::size_t run = 0; run < runs; ++run) {
        total += model.homogeneous_utility(
            members[i], 50, core::derive_seed(2011, 0xC0, members[i], run));
      }
      perf[i] = total / static_cast<double>(runs);
    });

    // Mean performance per partner count, plus top-10 anatomy.
    double sum_by_k[10] = {};
    std::size_t count_by_k[10] = {};
    std::vector<std::size_t> order(members.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return perf[a] > perf[b]; });
    for (std::size_t i = 0; i < members.size(); ++i) {
      const auto k = decode_protocol(members[i]).partner_slots;
      sum_by_k[k] += perf[i];
      ++count_by_k[k];
    }

    std::printf("\nChurn rate %.2f (%zu protocols sampled, %zu runs each):\n",
                churn, members.size(), runs);
    util::TablePrinter table({"k", "protocols", "mean throughput (KBps)"});
    for (int k = 0; k <= 9; ++k) {
      table.add_row({std::to_string(k), std::to_string(count_by_k[k]),
                     count_by_k[k] ? util::fixed(sum_by_k[k] / count_by_k[k], 1)
                                   : "-"});
    }
    table.print(std::cout);

    double top20_mean_k = 0.0;
    std::printf("  top 10 performers:\n");
    for (std::size_t i = 0; i < 10; ++i) {
      const auto spec = decode_protocol(members[order[i]]);
      std::printf("    %2zu. %7.1f KBps  %s\n", i + 1, perf[order[i]],
                  spec.describe().c_str());
    }
    for (std::size_t i = 0; i < 20; ++i) {
      top20_mean_k += decode_protocol(members[order[i]]).partner_slots;
    }
    top20_mean_k /= 20.0;
    double all_mean_k = 0.0;
    for (std::uint32_t id : members) {
      all_mean_k += decode_protocol(id).partner_slots;
    }
    all_mean_k /= static_cast<double>(members.size());
    std::printf("  mean k of top-20: %.2f vs space mean %.2f\n", top20_mean_k,
                all_mean_k);
    bench::verdict(top20_mean_k < all_mean_k,
                   "low partner counts still dominate the top performers at "
                   "churn " + util::fixed(churn, 2));
  }
  return 0;
}
