// Figure 9: swarm-level competitive encounters on the validation substrate —
// (a) Loyal-When-needed vs BitTorrent, (b) Birds vs BitTorrent, (c) Birds vs
// Loyal-When-needed — at client fractions {0, .1, .25, .5, .75, .9, 1},
// reporting average download times with 95% confidence intervals.
//
// Ported to the flight recorder: the swarm engine records one kMixedSwarm
// header per experiment (tagged with the panel title as its context) plus a
// kLeecher summary per leecher, and dsa_report rebuilds the panel tables
// from those events — the exact code path `dsa_cli report --table fig9`
// uses, so the two outputs are byte-identical (enforced by the recorder
// golden test).
//
// Tables print the *realized* fraction count_a/50 (e.g. 0.26 for the
// nominal 0.25 mix), which the recording reconstructs exactly.
//
// Run-key note: seeds are seed_base + run*131 + count_a with bases
// 1000/2000/3000 and count_a drawn from {0,5,13,25,38,45,50}. No two
// (panel, run, fraction) combinations can collide for any run count —
// 131*k - 1000 or - 2000 would have to land in the difference set of the
// count_a values, and none do — so all three panels share one recording
// without ambiguity.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/recorder.hpp"
#include "report/report.hpp"
#include "swarm/swarm_sim.hpp"
#include "util/env.hpp"

using namespace dsa;
using namespace dsa::swarm;

namespace {

const std::vector<double>& fractions() {
  static const std::vector<double> f{0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0};
  return f;
}

report::EncounterSeries run_panel(const std::string& title, ClientVariant a,
                                  ClientVariant b, std::size_t runs,
                                  std::uint64_t seed_base) {
  SwarmConfig config;  // paper setup: 50 leechers, 5 MB, 128 KBps seeder

  // Tag the panel, run the experiments, and extract the series from the
  // recording.
  obs::Recorder::global().set_context(title);
  for (double fraction : fractions()) {
    const auto count_a =
        static_cast<std::size_t>(std::lround(fraction * 50.0));
    for (std::size_t run = 0; run < runs; ++run) {
      config.seed = seed_base + run * 131 + count_a;
      run_mixed_swarm(a, b, count_a, 50, config);
    }
  }
  const std::vector<obs::Event> events = obs::Recorder::global().snapshot();
  for (auto& series : report::encounter_series_from_events(events)) {
    if (series.title == title) return series;
  }
  throw std::runtime_error("recording produced no series for " + title);
}

}  // namespace

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig9_encounters");
  bench::banner(
      "Fig. 9 — competitive swarm encounters (validation substrate)",
      "(a) Loyal-When-needed never does worse than BitTorrent and its "
      "download time barely depends on the mix; (b) Birds does as well as "
      "or better than BitTorrent; (c) an all-Birds swarm beats an all-"
      "Loyal-When-needed swarm on raw download time, while Loyal-When-"
      "needed is the more robust of the two");

  const auto runs = static_cast<std::size_t>(
      util::env_int("DSA_SWARM_RUNS", 10));

  // The panels are extracted from the recording: arm the recorder unless
  // DSA_OBS=record already did.
  if (obs::Recorder::global().level() == obs::RecordLevel::kOff) {
    obs::Recorder::global().configure(obs::RecordLevel::kRounds);
  }

  const auto fig9a =
      run_panel("Fig. 9(a): Loyal-When-needed vs BitTorrent",
                ClientVariant::kLoyalWhenNeeded, ClientVariant::kBitTorrent,
                runs, 1000);
  std::cout << report::render_encounter_series(fig9a);

  const auto fig9b =
      run_panel("Fig. 9(b): Birds vs BitTorrent", ClientVariant::kBirds,
                ClientVariant::kBitTorrent, runs, 2000);
  std::cout << report::render_encounter_series(fig9b);

  const auto fig9c =
      run_panel("Fig. 9(c): Birds vs Loyal-When-needed", ClientVariant::kBirds,
                ClientVariant::kLoyalWhenNeeded, runs, 3000);
  std::cout << report::render_encounter_series(fig9c);

  // Shape checks. Fig 9(a): Loyal-When-needed never substantially worse
  // than BT in any mixed swarm, and its times are stable across mixes.
  bool loyal_never_worse = true;
  double loyal_min = 1e18, loyal_max = 0.0;
  for (const auto& point : fig9a.points) {
    if (point.has_a && point.has_b &&
        point.mean_a > point.mean_b * 1.10) {
      loyal_never_worse = false;
    }
    if (point.has_a) {
      loyal_min = std::min(loyal_min, point.mean_a);
      loyal_max = std::max(loyal_max, point.mean_a);
    }
  }
  const bool loyal_stable = loyal_max < loyal_min * 1.25;

  std::printf("\n");
  bench::verdict(loyal_never_worse,
                 "Loyal-When-needed never does markedly worse than "
                 "BitTorrent in any mix (Fig. 9a)");
  bench::verdict(loyal_stable,
                 "Loyal-When-needed download times are largely independent "
                 "of swarm composition (spread " +
                     util::fixed(100.0 * (loyal_max / loyal_min - 1.0), 1) +
                     "%)");
  return 0;
}
