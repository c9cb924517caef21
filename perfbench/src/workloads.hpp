// The four workloads. Each runs in one process: set-up (repeated, median
// reported), an untraced measured pass of whole mix cycles, the output
// checks, and — with tracing on — a traced pass over the same operations
// plus per-layer cost probes. analyze_mix and simulate_replicated run on
// one thread; search_portfolio and serve_mixed on nproc workers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"

namespace perfbench {

Outcome run_analyze(const RunConfig& config);
Outcome run_search(const RunConfig& config);
Outcome run_simulate(const RunConfig& config);
Outcome run_serve(const RunConfig& config);

/// Per-layer metrics of the ungated workloads' traced runs (the gated
/// ones report per_layer_metrics()).
const std::vector<MetricSpec>& search_layer_metrics();
const std::vector<MetricSpec>& serve_layer_metrics();

/// The layer probes of the gated workloads' traced runs (probes.cpp):
/// common.refill_ns_per_draw, dist.sample_ns_per_draw.*, dist.draws,
/// serve.parse_us and serve.handle_us.analyze.
void add_layer_probes(std::uint64_t seed, Metrics& per_layer);

/// Fill `reference` with the answers of every analyze / search instance of
/// the finite input families.
void analyze_reference(Reference& reference);
void search_reference(Reference& reference);

/// Measured passes stop at the first whole cycle past the requested
/// seconds, but never before enough operations for the reported
/// percentile, and never past this wall-clock cap (a traced run replays
/// the pass once more and must still end within three minutes).
inline constexpr double kMaxMeasureSeconds = 60.0;

}  // namespace perfbench
