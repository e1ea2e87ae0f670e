// Per-job execution and result merging, extracted from the runner so a
// resident frontend (the `dsa_cli serve` daemon) can execute individual
// jobs and merge rows without going through run_scenario's file-based
// resume machinery.
//
// Everything here is deterministic in the job's parameters alone — never in
// thread scheduling — which is what makes merged output independent of the
// worker count, of resume points, and of whether rows came from a cache.
#pragma once

#include "scenario/manifest.hpp"
#include "scenario/plan.hpp"
#include "util/csv.hpp"

namespace dsa::scenario {

/// Runs one job of `spec` and returns its manifest rows (job_columns
/// order). Jobs are expected to already be running on a worker pool, so
/// execution is single-threaded inside (a nested pool would deadlock the
/// runner's). Throws on simulation errors.
[[nodiscard]] JobRows execute_job(const ScenarioSpec& spec, const Job& job);

/// Merges per-job rows (plan order, one entry per plan job) into the final
/// output table. The sweep kind post-processes rows into the canonical
/// 11-column PRA dataset (normalizing performance against the global best);
/// other kinds concatenate.
[[nodiscard]] util::CsvTable merge_rows(const Plan& plan,
                                        const std::vector<JobRows>& results);

}  // namespace dsa::scenario
