#include "scenario/plan.hpp"

#include <algorithm>

#include "scenario/explore_kind.hpp"
#include "util/fingerprint.hpp"

namespace dsa::scenario {

namespace {

std::string value_to_string(const ParamValue& value) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    return std::to_string(*i);
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return util::exact_number(*d);
  }
  return std::get<std::string>(value);
}

void mix_value(util::Fingerprint& fp, const ParamValue& value) {
  fp.mix(static_cast<std::uint64_t>(value.index()));
  if (const auto* i = std::get_if<std::int64_t>(&value)) {
    fp.mix(static_cast<std::uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&value)) {
    fp.mix_double(*d);
  } else {
    fp.mix(std::get<std::string>(value));
  }
}

std::vector<std::string> job_columns_for(Kind kind) {
  switch (kind) {
    case Kind::kSweep:
      return {"protocol", "raw_performance", "robustness", "aggressiveness"};
    case Kind::kSwarm:
      return {"a", "b", "total", "count_a", "fraction", "intensity", "seed",
              "runs", "mean_time_a_s", "ci95_a_s", "mean_time_b_s",
              "ci95_b_s", "mean_time_all_s", "messages_lost", "crashes",
              "incomplete_runs"};
    case Kind::kEvolution:
      return {"menu", "rounds", "population", "generations",
              "runs_per_generation", "mutation", "seed", "fixated_index",
              "fixated_protocol", "final_shares"};
    case Kind::kEss:
      return {"protocol", "protocol_id", "rounds", "population",
              "mutant_fraction", "runs", "mutant_sample", "seed",
              "stability", "invaders"};
    case Kind::kSearch:
      return {"rounds", "population", "restarts", "steps_per_restart",
              "eval_runs", "opponent_probes", "performance_weight",
              "reference", "seed", "best_protocol", "best_objective",
              "evaluations"};
    case Kind::kExplore:
      // One row per canonical schedule; "schedule" is explore::describe()
      // (';'-joined — CsvTable has no quoting).
      return {"ordinal", "schedule", "depth", "objective", "value",
              "mean_time_s", "max_time_s", "stall_ticks", "incomplete"};
  }
  return {};
}

std::vector<std::string> merged_columns_for(Kind kind) {
  if (kind == Kind::kSweep) {
    // The canonical PRA dataset schema of save_pra_dataset — the merge
    // reproduces it byte-for-byte.
    return {"protocol", "stranger_policy", "h", "window", "ranking", "k",
            "allocation", "raw_performance", "performance", "robustness",
            "aggressiveness"};
  }
  return job_columns_for(kind);
}

void expand_grid_jobs(const ScenarioSpec& spec, std::uint64_t spec_fp,
                      Plan& plan) {
  std::size_t total = 1;
  for (const Axis& axis : spec.axes) total *= axis.values.size();

  // Odometer over the axes, last axis fastest — spec order is table order,
  // so job order never depends on the spec author's key order.
  std::vector<std::size_t> digits(spec.axes.size(), 0);
  for (std::size_t index = 0; index < total; ++index) {
    Job job;
    job.index = index;
    util::Fingerprint fp(spec_fp ^ 0x9bd1f30a7c24e685ULL);
    std::string label;
    for (std::size_t a = 0; a < spec.axes.size(); ++a) {
      const Axis& axis = spec.axes[a];
      const ParamValue& value = axis.values[digits[a]];
      job.params.set(axis.name, value);
      fp.mix(axis.name);
      mix_value(fp, value);
      if (axis.is_grid()) {
        if (!label.empty()) label += ' ';
        label += axis.name + '=' + value_to_string(value);
      }
    }
    job.fingerprint = fp.value();
    job.label = label.empty() ? "job " + std::to_string(index) : label;
    plan.jobs.push_back(std::move(job));
    for (std::size_t a = spec.axes.size(); a-- > 0;) {
      if (++digits[a] < spec.axes[a].values.size()) break;
      digits[a] = 0;
    }
  }
}

void expand_sweep_jobs(const ScenarioSpec& spec, std::uint64_t spec_fp,
                       Plan& plan) {
  ParamSet params;
  for (const Axis& axis : spec.axes) {
    params.set(axis.name, axis.values.front());
  }
  const std::vector<std::uint32_t> selection =
      parse_protocol_selection(params.get_string("protocols"));

  for (std::size_t begin = 0; begin < selection.size();
       begin += spec.chunk) {
    const std::size_t end =
        std::min(begin + spec.chunk, selection.size());
    Job job;
    job.index = plan.jobs.size();
    job.params = params;
    job.protocols.assign(selection.begin() + static_cast<std::ptrdiff_t>(begin),
                         selection.begin() + static_cast<std::ptrdiff_t>(end));
    util::Fingerprint fp(spec_fp ^ 0x9bd1f30a7c24e685ULL);
    for (const Axis& axis : spec.axes) {
      fp.mix(axis.name);
      mix_value(fp, axis.values.front());
    }
    fp.mix(static_cast<std::uint64_t>(job.protocols.size()));
    for (std::uint32_t id : job.protocols) {
      fp.mix(static_cast<std::uint64_t>(id));
    }
    job.fingerprint = fp.value();
    job.label = "protocols " + std::to_string(job.protocols.front()) + ".." +
                std::to_string(job.protocols.back());
    plan.jobs.push_back(std::move(job));
  }
}

/// Shards the schedule space into [begin, end) ordinal chunks. The domain
/// is rebuilt (and cross-validated) here so `dsa_cli plan` rejects a bad
/// explore spec before any job runs.
void expand_explore_jobs(const ScenarioSpec& spec, std::uint64_t spec_fp,
                         Plan& plan) {
  ParamSet params;
  for (const Axis& axis : spec.axes) {
    params.set(axis.name, axis.values.front());
  }
  const ExploreContext ctx = explore_context(params);
  const std::uint64_t space = explore::count_space(ctx.domain);

  for (std::uint64_t begin = 0; begin < space; begin += spec.chunk) {
    const std::uint64_t end =
        std::min<std::uint64_t>(begin + spec.chunk, space);
    Job job;
    job.index = plan.jobs.size();
    job.params = params;
    job.protocols = {static_cast<std::uint32_t>(begin),
                     static_cast<std::uint32_t>(end)};
    util::Fingerprint fp(spec_fp ^ 0x9bd1f30a7c24e685ULL);
    for (const Axis& axis : spec.axes) {
      fp.mix(axis.name);
      mix_value(fp, axis.values.front());
    }
    fp.mix(begin);
    fp.mix(end);
    job.fingerprint = fp.value();
    job.label = "schedules " + std::to_string(begin) + ".." +
                std::to_string(end - 1);
    plan.jobs.push_back(std::move(job));
  }
}

}  // namespace

Plan expand_plan(const ScenarioSpec& spec) {
  Plan plan;
  plan.spec = spec;
  plan.spec_fingerprint = spec.fingerprint();
  plan.job_columns = job_columns_for(spec.kind);
  plan.merged_columns = merged_columns_for(spec.kind);
  if (spec.kind == Kind::kSweep) {
    expand_sweep_jobs(spec, plan.spec_fingerprint, plan);
  } else if (spec.kind == Kind::kExplore) {
    expand_explore_jobs(spec, plan.spec_fingerprint, plan);
  } else {
    expand_grid_jobs(spec, plan.spec_fingerprint, plan);
  }
  return plan;
}

}  // namespace dsa::scenario
