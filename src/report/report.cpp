#include "report/report.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "stats/descriptive.hpp"
#include "stats/histogram.hpp"
#include "swarming/protocol.hpp"
#include "util/json.hpp"
#include "util/table_printer.hpp"

namespace dsa::report {

std::string render_csv_table(const util::CsvTable& table) {
  util::TablePrinter printer(table.header());
  for (std::size_t i = 0; i < table.row_count(); ++i) {
    printer.add_row(table.row(i));
  }
  std::ostringstream out;
  printer.print(out);
  return out.str();
}

namespace {

std::uint64_t parse_run_key(const util::json::Value& value,
                            const std::string& origin) {
  // run is serialized as a decimal string (full 64-bit seeds do not fit a
  // JSON number); accept a plain number too for hand-written fixtures.
  if (value.type == util::json::Value::Type::kString) {
    return std::strtoull(value.text.c_str(), nullptr, 10);
  }
  if (value.type == util::json::Value::Type::kNumber) {
    return static_cast<std::uint64_t>(value.number);
  }
  throw std::runtime_error(origin + ": event 'run' must be a string");
}

}  // namespace

Recording load_recording(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open recording: " + path.string());
  }
  const std::string origin = path.string();
  Recording recording;
  std::string line;
  bool saw_header = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const util::json::Value value = util::json::parse(line, origin);
    if (!saw_header) {
      const auto* type = value.find("type");
      if (type == nullptr || type->text != "recording") {
        throw std::runtime_error(origin +
                                 ": not a recording (missing header line)");
      }
      if (const auto* level = value.find("level")) {
        recording.level = obs::parse_record_level(level->text);
      }
      // Every per-round event kind assumes that every round was recorded.
      const auto* stride = value.find("stride");
      if (stride != nullptr &&
          (stride->type != util::json::Value::Type::kNumber ||
           stride->number != 1.0)) {
        throw std::runtime_error(origin +
                                 ": recording header 'stride' must be 1");
      }
      saw_header = true;
      continue;
    }
    obs::Event event;
    const auto* kind = value.find("kind");
    if (kind == nullptr) {
      throw std::runtime_error(origin + ": event line without 'kind'");
    }
    event.kind = obs::parse_event_kind(kind->text);
    if (const auto* run = value.find("run")) {
      event.run = parse_run_key(*run, origin);
    }
    if (const auto* time = value.find("time")) {
      event.time = static_cast<std::uint32_t>(time->number);
    }
    if (const auto* actor = value.find("actor")) {
      event.actor = static_cast<std::uint32_t>(actor->number);
    }
    if (const auto* peer = value.find("peer")) {
      event.peer = static_cast<std::uint32_t>(peer->number);
    }
    if (const auto* values = value.find("value")) {
      for (std::size_t i = 0; i < values->items.size() && i < 4; ++i) {
        event.value[i] = values->items[i].number;
      }
    }
    if (const auto* label = value.find("label")) event.label = label->text;
    if (const auto* detail = value.find("detail")) event.detail = detail->text;
    recording.events.push_back(std::move(event));
  }
  if (!saw_header) {
    throw std::runtime_error(origin + ": empty recording");
  }
  return recording;
}

// ---------------------------------------------------------------- Fig. 5

std::array<std::vector<double>, 3> fig5_robustness_by_policy(
    std::span<const obs::Event> events) {
  std::array<std::vector<double>, 3> by_policy;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kPra) continue;
    const auto spec = swarming::decode_protocol(event.actor);
    if (spec.stranger_slots == 0) continue;  // the h = 0 singleton
    by_policy[static_cast<std::size_t>(spec.stranger_policy)].push_back(
        event.value[1]);
  }
  return by_policy;
}

std::array<std::vector<double>, 3> fig5_robustness_by_policy(
    std::span<const swarming::PraRecord> records) {
  std::array<std::vector<double>, 3> by_policy;
  for (const auto& rec : records) {
    if (rec.spec.stranger_slots == 0) continue;
    by_policy[static_cast<std::size_t>(rec.spec.stranger_policy)].push_back(
        rec.robustness);
  }
  return by_policy;
}

Fig5Tables render_fig5(const std::array<std::vector<double>, 3>& by_policy) {
  static const char* const kNames[3] = {"Periodic", "WhenNeeded", "Defect"};
  Fig5Tables tables;
  std::ostringstream out;

  out << "\nCCDF series P(R > x):\n";
  util::TablePrinter ccdf_table({"x", "Periodic", "WhenNeeded", "Defect"});
  std::array<std::optional<stats::Ccdf>, 3> ccdfs;
  for (int p = 0; p < 3; ++p) {
    if (!by_policy[p].empty()) ccdfs[p].emplace(by_policy[p]);
  }
  for (int i = 0; i <= 20; ++i) {
    const double x = i / 20.0;
    std::vector<std::string> row{util::fixed(x, 2)};
    for (int p = 0; p < 3; ++p) {
      row.push_back(ccdfs[p] ? util::fixed(ccdfs[p]->at(x), 3) : "-");
    }
    ccdf_table.add_row(std::move(row));
  }
  ccdf_table.print(out);

  out << "\nPer-policy robustness summary:\n";
  util::TablePrinter summary({"policy", "n", "mean", "p90", "max"});
  for (int p = 0; p < 3; ++p) {
    tables.mean_r[p] = stats::mean(by_policy[p]);
    tables.max_r[p] = stats::max_value(by_policy[p]);
    summary.add_row(
        {kNames[p], std::to_string(by_policy[p].size()),
         util::fixed(tables.mean_r[p], 3),
         by_policy[p].empty() ? "-"
                              : util::fixed(
                                    stats::percentile(by_policy[p], 0.9), 3),
         util::fixed(tables.max_r[p], 3)});
  }
  summary.print(out);

  tables.text = std::move(out).str();
  return tables;
}

// ---------------------------------------------------------------- Fig. 9

namespace {

/// Mean group download time over leechers [begin, end), unfinished runs
/// capped — the exact arithmetic of SwarmResult::group_mean_time, summed in
/// ascending leecher order.
double group_mean(const std::vector<double>& times, std::size_t begin,
                  std::size_t end, double cap) {
  double sum = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += times[i] >= 0.0 ? times[i] : cap;
  }
  return sum / static_cast<double>(end - begin);
}

}  // namespace

std::vector<EncounterSeries> encounter_series_from_events(
    std::span<const obs::Event> events) {
  // Per-run leecher completion times, ascending leecher index (the
  // canonical sort order guarantees ascending actor within a run).
  std::unordered_map<std::uint64_t, std::vector<double>> leecher_times;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kLeecher) continue;
    auto& times = leecher_times[event.run];
    if (times.size() != event.actor) {
      throw std::runtime_error(
          "recording has non-contiguous leecher summaries for run " +
          std::to_string(event.run));
    }
    times.push_back(event.value[1]);
  }

  struct Group {
    std::string title, variant_a, variant_b;
    // count_a -> mixed-swarm runs in file order (= run key ascending).
    std::map<std::size_t, std::vector<const obs::Event*>> by_count;
  };
  std::vector<Group> groups;
  std::map<std::pair<std::string, std::string>, std::size_t> group_index;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kMixedSwarm) continue;
    const auto key = std::make_pair(event.detail, event.label);
    auto [it, inserted] = group_index.emplace(key, groups.size());
    if (inserted) {
      Group group;
      group.title = event.detail.empty() ? event.label : event.detail;
      const auto bar = event.label.find('|');
      group.variant_a = event.label.substr(0, bar);
      group.variant_b =
          bar == std::string::npos ? "" : event.label.substr(bar + 1);
      groups.push_back(std::move(group));
    }
    groups[it->second].by_count[static_cast<std::size_t>(event.value[0])]
        .push_back(&event);
  }

  std::vector<EncounterSeries> result;
  for (const Group& group : groups) {
    EncounterSeries series;
    series.title = group.title;
    series.variant_a = group.variant_a;
    series.variant_b = group.variant_b;
    for (const auto& [count_a, runs] : group.by_count) {
      EncounterPoint point;
      point.count_a = count_a;
      std::vector<double> times_a, times_b;
      for (const obs::Event* mixed : runs) {
        const auto total = static_cast<std::size_t>(mixed->value[1]);
        const double cap = mixed->value[2];
        point.fraction = static_cast<double>(count_a) /
                         static_cast<double>(total);
        const auto it = leecher_times.find(mixed->run);
        if (it == leecher_times.end() || it->second.size() != total) {
          throw std::runtime_error(
              "recording lacks leecher summaries for mixed-swarm run " +
              std::to_string(mixed->run));
        }
        if (count_a > 0) {
          times_a.push_back(group_mean(it->second, 0, count_a, cap));
        }
        if (count_a < total) {
          times_b.push_back(group_mean(it->second, count_a, total, cap));
        }
      }
      if (!times_a.empty()) {
        point.has_a = true;
        point.mean_a = stats::mean(times_a);
        point.ci_a = stats::ci95_half_width(times_a);
      }
      if (!times_b.empty()) {
        point.has_b = true;
        point.mean_b = stats::mean(times_b);
        point.ci_b = stats::ci95_half_width(times_b);
      }
      series.points.push_back(point);
    }
    result.push_back(std::move(series));
  }
  return result;
}

std::string render_encounter_series(const EncounterSeries& series) {
  std::ostringstream out;
  out << '\n' << series.title << '\n';
  util::TablePrinter table({"fraction of " + series.variant_a,
                            series.variant_a + " avg time (s)",
                            series.variant_b + " avg time (s)"});
  for (const auto& point : series.points) {
    table.add_row(
        {util::fixed(point.fraction, 2),
         point.has_a ? util::fixed(point.mean_a, 1) + " +/- " +
                           util::fixed(point.ci_a, 1)
                     : "-",
         point.has_b ? util::fixed(point.mean_b, 1) + " +/- " +
                           util::fixed(point.ci_b, 1)
                     : "-"});
  }
  table.print(out);
  return std::move(out).str();
}

// ------------------------------------------------- generic report tables

std::string render_summary(const Recording& recording) {
  std::ostringstream out;
  out << "\nRecording: level=" << obs::to_string(recording.level)
      << " events=" << recording.events.size() << '\n';
  util::TablePrinter table({"kind", "events", "runs"});
  for (int k = 0; k <= static_cast<int>(obs::kLastEventKind); ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    std::size_t count = 0;
    std::vector<std::uint64_t> runs;
    for (const obs::Event& event : recording.events) {
      if (event.kind != kind) continue;
      ++count;
      runs.push_back(event.run);
    }
    if (count == 0) continue;
    std::sort(runs.begin(), runs.end());
    runs.erase(std::unique(runs.begin(), runs.end()), runs.end());
    table.add_row({obs::to_string(kind), std::to_string(count),
                   std::to_string(runs.size())});
  }
  table.print(out);
  return std::move(out).str();
}

namespace {

struct MeanAccumulator {
  double perf = 0.0, robust = 0.0, aggr = 0.0;
  std::size_t n = 0;
  void add(const obs::Event& event) {
    perf += event.value[0];
    robust += event.value[1];
    aggr += event.value[2];
    ++n;
  }
  [[nodiscard]] std::vector<std::string> row(const std::string& name) const {
    const auto d = static_cast<double>(n == 0 ? 1 : n);
    return {name, std::to_string(n), util::fixed(perf / d, 3),
            util::fixed(robust / d, 3), util::fixed(aggr / d, 3)};
  }
};

}  // namespace

std::string render_pra_breakdowns(std::span<const obs::Event> events) {
  std::ostringstream out;

  out << "\nMean PRA by ranking function (Fig. 6):\n";
  {
    std::array<MeanAccumulator, 6> by_ranking;
    for (const obs::Event& event : events) {
      if (event.kind != obs::EventKind::kPra) continue;
      const auto spec = swarming::decode_protocol(event.actor);
      if (spec.partner_slots == 0) continue;  // ranking is inert at k = 0
      by_ranking[static_cast<std::size_t>(spec.ranking)].add(event);
    }
    util::TablePrinter table({"ranking", "n", "perf", "robust", "aggr"});
    for (int r = 0; r < 6; ++r) {
      if (by_ranking[r].n == 0) continue;
      table.add_row(by_ranking[r].row(
          swarming::to_string(static_cast<swarming::RankingFunction>(r))));
    }
    table.print(out);
  }

  out << "\nMean PRA by allocation policy (Fig. 7):\n";
  {
    std::array<MeanAccumulator, 3> by_allocation;
    for (const obs::Event& event : events) {
      if (event.kind != obs::EventKind::kPra) continue;
      const auto spec = swarming::decode_protocol(event.actor);
      by_allocation[static_cast<std::size_t>(spec.allocation)].add(event);
    }
    util::TablePrinter table({"allocation", "n", "perf", "robust", "aggr"});
    for (int a = 0; a < 3; ++a) {
      if (by_allocation[a].n == 0) continue;
      table.add_row(by_allocation[a].row(
          swarming::to_string(static_cast<swarming::AllocationPolicy>(a))));
    }
    table.print(out);
  }
  return std::move(out).str();
}

std::string render_win_matrix(std::span<const obs::Event> events) {
  // Per run: mean outcome per label. Round-model kPeer summaries score by
  // throughput (higher wins); swarm kLeecher summaries score by download
  // time (lower wins; unfinished = +inf-ish sentinel).
  struct RunTally {
    std::map<std::string, std::pair<double, std::size_t>> by_label;
    bool time_based = false;
  };
  std::map<std::uint64_t, RunTally> runs;
  for (const obs::Event& event : events) {
    if (event.kind == obs::EventKind::kPeer) {
      auto& entry = runs[event.run].by_label[event.label];
      entry.first += event.value[1];
      ++entry.second;
    } else if (event.kind == obs::EventKind::kLeecher) {
      RunTally& tally = runs[event.run];
      tally.time_based = true;
      auto& entry = tally.by_label[event.label];
      entry.first += event.value[1] >= 0.0 ? event.value[1] : 1e18;
      ++entry.second;
    }
  }

  struct Cell {
    std::size_t wins_a = 0, wins_b = 0, ties = 0, games = 0;
  };
  std::map<std::pair<std::string, std::string>, Cell> matrix;
  for (const auto& [run, tally] : runs) {
    if (tally.by_label.size() != 2) continue;
    const auto first = tally.by_label.begin();
    const auto second = std::next(first);
    const double mean_a = first->second.first /
                          static_cast<double>(first->second.second);
    const double mean_b = second->second.first /
                          static_cast<double>(second->second.second);
    Cell& cell = matrix[{first->first, second->first}];
    ++cell.games;
    // A strictly better group mean wins the game (Sec. 4.3.2).
    const bool a_wins =
        tally.time_based ? mean_a < mean_b : mean_a > mean_b;
    const bool b_wins =
        tally.time_based ? mean_b < mean_a : mean_b > mean_a;
    if (a_wins) {
      ++cell.wins_a;
    } else if (b_wins) {
      ++cell.wins_b;
    } else {
      ++cell.ties;
    }
  }

  std::ostringstream out;
  out << "\nWin matrix (two-group games):\n";
  util::TablePrinter table({"A", "B", "A wins", "B wins", "ties", "games"});
  for (const auto& [pair, cell] : matrix) {
    table.add_row({pair.first, pair.second, std::to_string(cell.wins_a),
                   std::to_string(cell.wins_b), std::to_string(cell.ties),
                   std::to_string(cell.games)});
  }
  table.print(out);
  return std::move(out).str();
}

std::string render_swarm_times(std::span<const obs::Event> events) {
  struct VariantTimes {
    std::size_t n = 0;
    std::vector<double> completed;
  };
  std::map<std::string, VariantTimes> by_variant;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kLeecher) continue;
    VariantTimes& entry = by_variant[event.label];
    ++entry.n;
    if (event.value[1] >= 0.0) entry.completed.push_back(event.value[1]);
  }

  std::ostringstream out;
  out << "\nDownload times by client variant (Fig. 10):\n";
  util::TablePrinter table(
      {"variant", "n", "completed", "mean (s)", "p90 (s)", "max (s)"});
  for (const auto& [variant, entry] : by_variant) {
    const bool any = !entry.completed.empty();
    table.add_row(
        {variant, std::to_string(entry.n),
         std::to_string(entry.completed.size()),
         any ? util::fixed(stats::mean(entry.completed), 1) : "-",
         any ? util::fixed(stats::percentile(entry.completed, 0.9), 1) : "-",
         any ? util::fixed(stats::max_value(entry.completed), 1) : "-"});
  }
  table.print(out);
  return std::move(out).str();
}

namespace {

std::string fault_peer_name(std::uint32_t actor) {
  // kFault actors use engine indexing: 0 = seeder, leecher l at l + 1.
  return actor == 0 ? "seeder" : "leecher " + std::to_string(actor - 1);
}

}  // namespace

std::string render_fault_timeline(std::span<const obs::Event> events) {
  std::ostringstream out;
  out << "\nFault timeline:\n";
  util::TablePrinter table({"tick", "peer", "event", "detail"});
  std::size_t count = 0;
  for (const obs::Event& event : events) {
    if (event.kind != obs::EventKind::kFault) continue;
    ++count;
    std::string detail;
    if (event.label == "crash") {
      detail = "down " + util::fixed(event.value[0], 0) + " ticks, wiped " +
               util::fixed(event.value[1], 0) + " pieces";
    } else if (event.label == "outage_begin") {
      detail = "until tick " + util::fixed(event.value[0], 0);
    } else if (event.label == "outage_end") {
      detail = "dark for " + util::fixed(event.value[0], 0) + " ticks";
    }
    table.add_row({std::to_string(event.time), fault_peer_name(event.actor),
                   event.label, detail});
  }
  if (count == 0) {
    out << "  (no fault events recorded)\n";
    return std::move(out).str();
  }
  table.print(out);
  return std::move(out).str();
}

std::string render_fault_impact(std::span<const obs::Event> worst,
                                std::span<const obs::Event> baseline) {
  // kLeecher actors are 0-based leecher indices (seeder excluded), so the
  // two runs join directly on the actor.
  struct LeecherRow {
    std::string client;
    double capacity = 0.0;
    double worst_s = -1.0;
    double baseline_s = -1.0;
    bool in_worst = false, in_baseline = false;
  };
  std::map<std::uint32_t, LeecherRow> rows;
  for (const obs::Event& event : worst) {
    if (event.kind != obs::EventKind::kLeecher) continue;
    LeecherRow& row = rows[event.actor];
    row.client = event.label;
    row.capacity = event.value[0];
    row.worst_s = event.value[1];
    row.in_worst = true;
  }
  for (const obs::Event& event : baseline) {
    if (event.kind != obs::EventKind::kLeecher) continue;
    LeecherRow& row = rows[event.actor];
    row.client = event.label;
    row.capacity = event.value[0];
    row.baseline_s = event.value[1];
    row.in_baseline = true;
  }

  std::ostringstream out;
  out << "\nPer-leecher impact (worst schedule vs fault-free baseline):\n";
  if (rows.empty()) {
    out << "  (no leecher summaries recorded)\n";
    return std::move(out).str();
  }
  util::TablePrinter table({"leecher", "client", "capacity", "baseline (s)",
                            "worst (s)", "delta (s)"});
  std::vector<double> deltas;
  for (const auto& [actor, row] : rows) {
    const bool base_done = row.in_baseline && row.baseline_s >= 0.0;
    const bool worst_done = row.in_worst && row.worst_s >= 0.0;
    std::string delta = "-";
    if (base_done && worst_done) {
      deltas.push_back(row.worst_s - row.baseline_s);
      delta = util::fixed(row.worst_s - row.baseline_s, 1);
    }
    table.add_row({std::to_string(actor), row.client,
                   util::fixed(row.capacity, 0),
                   base_done ? util::fixed(row.baseline_s, 1) : "-",
                   worst_done ? util::fixed(row.worst_s, 1) : "-", delta});
  }
  table.print(out);
  if (!deltas.empty()) {
    out << "mean delta over " << deltas.size()
        << " leechers finishing in both runs: "
        << util::fixed(stats::mean(deltas), 1) << " s\n";
  }
  const std::size_t unfinished = [&] {
    std::size_t n = 0;
    for (const auto& [actor, row] : rows) {
      if (row.in_worst && row.worst_s < 0.0) ++n;
    }
    return n;
  }();
  if (unfinished > 0) {
    out << unfinished
        << " leecher(s) never finished under the worst schedule\n";
  }
  return std::move(out).str();
}

std::string render_health_timeline(
    std::span<const obs::StatusSample> samples) {
  // Union of metric names and of each metric's field keys across all
  // samples, so a metric that appears mid-run still gets full columns.
  std::map<std::string, std::set<std::string>> fields_by_metric;
  for (const obs::StatusSample& sample : samples) {
    for (const auto& [metric, fields] : sample.sketches) {
      for (const auto& [key, value] : fields) {
        fields_by_metric[metric].insert(key);
      }
    }
  }

  std::ostringstream out;
  out << "\nSwarm-health timelines (" << samples.size() << " samples):\n";
  if (fields_by_metric.empty()) {
    out << "  (no sketch sections in this time-series; run with\n"
           "   DSA_OBS=status and metric feeds enabled)\n";
    return std::move(out).str();
  }

  for (const auto& [metric, keys] : fields_by_metric) {
    // Stable column order: count, quantiles (map order sorts p50 < p90 <
    // p99 < p999), then the moment fields.
    std::vector<std::string> columns;
    if (keys.count("count") != 0) columns.push_back("count");
    for (const std::string& key : keys) {
      if (!key.empty() && key[0] == 'p') columns.push_back(key);
    }
    for (const char* moment : {"min", "mean", "max", "stddev"}) {
      if (keys.count(moment) != 0) columns.push_back(moment);
    }
    for (const std::string& key : keys) {
      if (std::find(columns.begin(), columns.end(), key) == columns.end()) {
        columns.push_back(key);
      }
    }

    out << "\n" << metric << ":\n";
    std::vector<std::string> header = {"sample", "uptime (s)"};
    header.insert(header.end(), columns.begin(), columns.end());
    util::TablePrinter table(header);
    for (const obs::StatusSample& sample : samples) {
      const auto entry = sample.sketches.find(metric);
      if (entry == sample.sketches.end()) continue;
      std::vector<std::string> row = {std::to_string(sample.seq),
                                      util::fixed(sample.uptime_sec, 1)};
      for (const std::string& column : columns) {
        const auto field = entry->second.find(column);
        if (field == entry->second.end()) {
          row.push_back("-");
        } else if (column == "count") {
          row.push_back(util::fixed(field->second, 0));
        } else {
          row.push_back(util::fixed(field->second, 4));
        }
      }
      table.add_row(std::move(row));
    }
    table.print(out);
  }
  return std::move(out).str();
}

}  // namespace dsa::report
