// Figure 5: complementary CDF of Robustness per stranger policy — only the
// When-needed policy reaches the very top robustness levels.
//
// Ported to the flight recorder: the dataset layer emits one kPra event per
// protocol and the tables are rendered from that recording by dsa_report —
// the exact code path `dsa_cli report --table fig5` uses, so the two outputs
// are byte-identical (enforced by the recorder golden test).
#include <cstdio>

#include "common.hpp"
#include "obs/recorder.hpp"
#include "report/report.hpp"

using namespace dsa;

int main() {
  ::dsa::bench::MetricsScope metrics_scope("fig5_stranger_ccdf");
  bench::banner(
      "Fig. 5 — CCDF of Robustness per stranger policy",
      "only protocols using the When-needed stranger policy reach the "
      "highest robustness levels (> 0.99 in the paper's exhaustive run)");

  // Arm the recorder (unless DSA_OBS=record already did) before touching
  // the dataset so load-or-compute emits the kPra events this bench renders
  // from.
  if (obs::Recorder::global().level() == obs::RecordLevel::kOff) {
    obs::Recorder::global().configure(obs::RecordLevel::kRounds);
  }
  bench::dataset();
  const std::vector<obs::Event> events = obs::Recorder::global().snapshot();
  const auto by_policy = report::fig5_robustness_by_policy(
      std::span<const obs::Event>(events));

  const report::Fig5Tables tables = report::render_fig5(by_policy);
  std::fputs(tables.text.c_str(), stdout);

  // The paper's separation: When-needed dominates at the very top and
  // Defect is clearly the worst.
  const bool when_needed_tops =
      tables.max_r[1] >= tables.max_r[0] && tables.max_r[1] >= tables.max_r[2];
  const bool defect_worst = tables.mean_r[2] < tables.mean_r[0] &&
                            tables.mean_r[2] < tables.mean_r[1];
  std::printf("\n");
  bench::verdict(when_needed_tops && defect_worst,
                 "When-needed reaches the top robustness levels; Defect has "
                 "the worst robustness profile");
  return 0;
}
