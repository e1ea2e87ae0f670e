#include "swarming/pra_dataset.hpp"

#include "obs/recorder.hpp"

namespace dsa::swarming {

namespace {

/// One kPra summary event per protocol (run = actor = protocol id, so the
/// canonical event sort equals the dataset's protocol order). Emitted when
/// a dataset is loaded, so a recording carries the exact values a report
/// consumes.
void record_pra_events(const std::vector<PraRecord>& records) {
  obs::RunCapture capture(obs::Recorder::global());
  if (!capture.rounds()) return;
  for (const PraRecord& rec : records) {
    capture.emit({.kind = obs::EventKind::kPra,
                  .run = rec.protocol,
                  .actor = rec.protocol,
                  .value = {{rec.performance, rec.robustness,
                             rec.aggressiveness, rec.raw_performance}},
                  .label = rec.spec.describe()});
  }
}

}  // namespace

const std::vector<std::string>& pra_dataset_columns() {
  static const std::vector<std::string> columns = {
      "protocol", "stranger_policy", "h", "window", "ranking", "k",
      "allocation", "raw_performance", "performance", "robustness",
      "aggressiveness"};
  return columns;
}

util::CsvTable pra_dataset_table(const std::vector<PraRecord>& records) {
  util::CsvTable table(pra_dataset_columns());
  for (const PraRecord& rec : records) {
    table.add_row({
        std::to_string(rec.protocol),
        to_string(rec.spec.stranger_policy),
        std::to_string(rec.spec.stranger_slots),
        to_string(rec.spec.window),
        to_string(rec.spec.ranking),
        std::to_string(rec.spec.partner_slots),
        to_string(rec.spec.allocation),
        util::format_number(rec.raw_performance),
        util::format_number(rec.performance),
        util::format_number(rec.robustness),
        util::format_number(rec.aggressiveness),
    });
  }
  return table;
}

void save_pra_dataset(const std::vector<PraRecord>& records,
                      const std::filesystem::path& path) {
  pra_dataset_table(records).save(path);
}

std::vector<PraRecord> load_pra_dataset(const std::filesystem::path& path) {
  const util::CsvTable table = util::CsvTable::load(path);
  std::vector<PraRecord> records;
  records.reserve(table.row_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    PraRecord rec;
    rec.protocol =
        static_cast<std::uint32_t>(table.number_at(r, "protocol"));
    rec.spec = decode_protocol(rec.protocol);
    rec.raw_performance = table.number_at(r, "raw_performance");
    rec.performance = table.number_at(r, "performance");
    rec.robustness = table.number_at(r, "robustness");
    rec.aggressiveness = table.number_at(r, "aggressiveness");
    records.push_back(rec);
  }
  record_pra_events(records);
  return records;
}

}  // namespace dsa::swarming
