// The three workloads. Each sets up, runs the timed loop, checks outputs
// against a computation made apart from the measured path (or a property
// the model must have), and returns its figures.
#pragma once

#include <filesystem>

#include "harness.hpp"

namespace perfbench {

/// PRA quantification of a seed-chosen, stratified sample of protocols at
/// the committed sweep's scale; one op = one protocol's PRA point.
Outcome run_pra_sweep(const Options& options, RefKernel& ref);

/// Serial piece-level swarms of the Sec. 5 setup over client pairings,
/// minority fractions and fault intensities; one op = one swarm run.
Outcome run_swarm_faults(const Options& options, RefKernel& ref);

/// An in-process query daemon answering a closed-loop client that opens a
/// connection per query; one op = one query. `tmp` holds the daemon's
/// socket and store.
Outcome run_serve_mix(const Options& options, RefKernel& ref,
                      const std::filesystem::path& tmp);

}  // namespace perfbench
