// §7.7: running time of the tools. The paper reports that generating and
// analyzing instances takes under a second at 100 data sets / events and
// about three minutes at 100,000. This bench times every pipeline of the
// reproduction on the Fig 10 system (m = 420 rows), then sweeps the state
// count of the stationary solve to measure the dense/Gauss–Seidel
// crossover behind GeneralMethodOptions::dense_threshold, timing the
// reachability pass (reach_ms) of each chain beside its solves. The
// slowest row of the tools table is checked against a 10 s bound
// ("runtime_shape_ok" in the JSON); "shape_ok" is solver agreement only.
//
//   ./build/bench_sec77_runtime [--csv] [--quick] [--json PATH]
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "bench_util.hpp"
#include "core/analyzer.hpp"
#include "fixtures.hpp"
#include "markov/throughput.hpp"
#include "maxplus/deterministic.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"

namespace {

using namespace streamflow;
using namespace streamflow::bench;

/// Bound on each row of the §7.7 table. The paper's tools took about three
/// minutes at 100,000 data sets; every row here, 100k-data-set simulations
/// included, must finish within this. The verdict is written as
/// "runtime_shape_ok", apart from the solver-agreement "shape_ok".
constexpr double kRowBoundSeconds = 10.0;

/// A two-stage Overlap chain with finite buffers: a line-shaped, slowly
/// mixing chain, the hard case for Gauss–Seidel.
TimedEventGraph tandem_chain() {
  Platform platform{std::vector<double>{1.0, 0.5}};
  platform.set_bandwidth(0, 1, 2.0);
  return build_tpn(Mapping(Application::uniform(2), std::move(platform),
                           {{0}, {1}}),
                   ExecutionModel::kOverlap);
}

struct SolveTiming {
  double seconds = 0.0;  ///< mean wall time of one solve
  double flow = 0.0;     ///< summed stationary frequencies
  StationarySolveStats solver;
};

/// Times stationary_frequencies on an explored chain with the back-end
/// forced by the threshold, repeating until `budget` seconds have passed.
SolveTiming time_solve(const TimedEventGraph& graph,
                       const TpnMarkovChain& chain,
                       const std::vector<double>& rates, bool dense,
                       double budget) {
  GeneralMethodOptions options;
  options.dense_threshold =
      dense ? std::numeric_limits<std::size_t>::max() : 0;
  SolveTiming timing;
  std::size_t reps = 0;
  Stopwatch sw;
  do {
    const std::vector<double> freq =
        stationary_frequencies(graph, chain, rates, options, &timing.solver);
    timing.flow = 0.0;
    for (double f : freq) timing.flow += f;
    ++reps;
  } while (sw.seconds() < budget);
  timing.seconds = sw.seconds() / static_cast<double>(reps);
  return timing;
}

/// Mean wall time of explore_markings, repeated until `budget` seconds
/// have passed.
double time_reach(const TimedEventGraph& graph,
                  const std::vector<double>& rates,
                  const ReachabilityOptions& reach, double budget) {
  std::size_t reps = 0;
  Stopwatch sw;
  do {
    (void)explore_markings(graph, rates, reach);
    ++reps;
  } while (sw.seconds() < budget);
  return sw.seconds() / static_cast<double>(reps);
}

/// Explores and solves each chain both ways, in ascending state count.
/// Returns the smallest measured state count from which Gauss–Seidel is
/// faster at every larger size of the family (0: no such size).
std::size_t crossover_sweep(const std::string& family,
                            const std::vector<TimedEventGraph>& graphs,
                            const std::vector<ReachabilityOptions>& reach,
                            double budget, double& worst_rel, Table& table,
                            JsonObject& json) {
  std::size_t gs_wins_from = 0;
  JsonObject points;
  for (std::size_t k = 0; k < graphs.size(); ++k) {
    const std::vector<double> rates = rates_from_durations(graphs[k]);
    const TpnMarkovChain chain = explore_markings(graphs[k], rates, reach[k]);
    const double reach_s = time_reach(graphs[k], rates, reach[k], budget);
    const SolveTiming dense = time_solve(graphs[k], chain, rates, true, budget);
    const SolveTiming gs = time_solve(graphs[k], chain, rates, false, budget);
    const double rel = std::fabs(gs.flow - dense.flow) / dense.flow;
    worst_rel = std::max(worst_rel, rel);
    const double speedup = dense.seconds / gs.seconds;
    if (speedup <= 1.0 || gs_wins_from == 0) {
      gs_wins_from = speedup > 1.0 ? chain.num_states : 0;
    }
    table.add_row({family, static_cast<std::int64_t>(chain.num_states),
                   reach_s * 1e3, dense.seconds * 1e3, gs.seconds * 1e3,
                   static_cast<std::int64_t>(gs.solver.sweeps), speedup});
    JsonObject point;
    point.set("states", chain.num_states)
        .set("edges", chain.edges.size())
        .set("reach_ms", reach_s * 1e3)
        .set("dense_ms", dense.seconds * 1e3)
        .set("gauss_seidel_ms", gs.seconds * 1e3)
        .set("sweeps", gs.solver.sweeps)
        .set("residual", gs.solver.residual)
        .set("dense_residual", dense.solver.residual)
        .set("rel_diff", rel);
    points.set("n" + std::to_string(chain.num_states), point);
  }
  json.set(family, JsonObject()
                       .set("points", points)
                       .set("gauss_seidel_wins_from", gs_wins_from));
  return gs_wins_from;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = BenchArgs::parse(argc, argv);

  const Mapping mapping = fig10_system();
  Table table({"tool", "work", "seconds"});
  // The slowest row, checked against kRowBoundSeconds below.
  double slowest_s = 0.0;
  std::string slowest_row;
  const auto add_row = [&](const std::string& tool, const std::string& work,
                           double seconds) {
    table.add_row({tool, work, seconds});
    if (seconds > slowest_s) {
      slowest_s = seconds;
      slowest_row = tool + ", " + work;
    }
  };

  {
    Stopwatch sw;
    const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
    add_row("build_tpn (Overlap)",
            std::to_string(g.num_transitions()) + " transitions",
            sw.seconds());
  }
  {
    Stopwatch sw;
    const auto det =
        deterministic_throughput(mapping, ExecutionModel::kOverlap);
    add_row("deterministic analysis", "rho=" + std::to_string(det.throughput),
            sw.seconds());
  }
  {
    Stopwatch sw;
    const auto exp = exponential_throughput(mapping, ExecutionModel::kOverlap);
    add_row("exponential columns (Thm 3/4)",
            "rho=" + std::to_string(exp.throughput), sw.seconds());
  }
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const StochasticTiming exp_timing = StochasticTiming::exponential(mapping);
  const auto laws = transition_laws(g, exp_timing);
  for (const std::int64_t events :
       {std::int64_t{100}, std::int64_t{10'000},
        args.quick ? std::int64_t{20'000} : std::int64_t{100'000}}) {
    Stopwatch sw;
    TegSimOptions options;
    options.rounds = std::max<std::int64_t>(10, events / mapping.num_paths());
    simulate_teg(g, laws, options);
    add_row("eg_sim (exponential)", std::to_string(events) + " data sets",
            sw.seconds());
  }
  for (const std::int64_t sets :
       {std::int64_t{100}, std::int64_t{10'000},
        args.quick ? std::int64_t{20'000} : std::int64_t{100'000}}) {
    Stopwatch sw;
    PipelineSimOptions options;
    options.data_sets = std::max<std::int64_t>(100, sets);
    options.warmup_fraction = 0.0;
    simulate_pipeline(mapping, ExecutionModel::kOverlap, exp_timing, options);
    add_row("pipeline sim (exponential)", std::to_string(sets) + " data sets",
            sw.seconds());
  }
  emit(table, "§7.7 — running time of the tools", args);

  std::ostringstream slowest;
  slowest.precision(3);
  slowest << slowest_s;
  const bool runtime_ok = slowest_s <= kRowBoundSeconds;
  shape_check(runtime_ok,
              "every analysis and simulation row completes within " +
                  std::to_string(static_cast<int>(kRowBoundSeconds)) +
                  " s (slowest: " + slowest.str() + " s, " + slowest_row +
                  "; paper: < 1 s at 100, ~3 min at 100k on 2009 hardware)");

  // Dense/Gauss–Seidel crossover over heterogeneous pattern chains (the
  // solves behind the column method and the pattern store), from 4 to
  // 1,980 states, with the tandem family for contrast.
  const double budget = args.quick ? 0.02 : 0.1;
  const std::size_t shapes[][2] = {
      {1, 4},  {1, 8},  {2, 3}, {2, 5},  {2, 7}, {2, 9}, {3, 5}, {2, 13},
      {3, 7},  {4, 5},  {3, 8}, {3, 10}, {4, 7}, {5, 6}, {4, 9}};
  std::vector<TimedEventGraph> patterns;
  for (const auto& shape : shapes) {
    patterns.push_back(heterogeneous_pattern(shape[0], shape[1]));
  }
  const std::vector<ReachabilityOptions> pattern_reach(patterns.size());
  std::vector<TimedEventGraph> tandems;
  std::vector<ReachabilityOptions> tandem_reach;
  for (const int capacity : {1, 2, 4, 6, 8, 9, 10, 11, 12, 13, 14, 16}) {
    tandems.push_back(tandem_chain());
    tandem_reach.push_back(ReachabilityOptions{.place_capacity = capacity});
  }
  Table sweep(
      {"family", "states", "reach_ms", "dense_ms", "gs_ms", "gs_sweeps",
       "gs_speedup"});
  JsonObject crossover;
  double worst_rel = 0.0;
  const std::size_t pattern_from = crossover_sweep(
      "pattern", patterns, pattern_reach, budget, worst_rel, sweep, crossover);
  double tandem_rel = 0.0;
  const std::size_t tandem_from = crossover_sweep(
      "tandem", tandems, tandem_reach, budget, tandem_rel, sweep, crossover);
  const std::size_t threshold = GeneralMethodOptions{}.dense_threshold;
  crossover.set("dense_threshold", threshold)
      .set("pattern_worst_rel_diff", worst_rel)
      .set("tandem_worst_rel_diff", tandem_rel);
  emit(sweep, "reachability and stationary solve: dense LU vs Gauss–Seidel",
       args);

  std::ostringstream worst;
  worst << worst_rel;
  const bool agrees = worst_rel < 1e-10;
  shape_check(agrees,
              "Gauss–Seidel agrees with dense LU on every pattern chain to "
              "1e-10 relative (worst " + worst.str() + ")");
  shape_info("Gauss–Seidel is faster on pattern chains from " +
             std::to_string(pattern_from) + " states, on tandem chains from " +
             std::to_string(tandem_from) + " states; dense_threshold = " +
             std::to_string(threshold));
  write_json(args, JsonObject()
                       .set("bench", "sec77_runtime")
                       .set("quick", args.quick)
                       .set("crossover", crossover)
                       .set("shape_ok", agrees)
                       .set("slowest_row_s", slowest_s)
                       .set("row_bound_s", kRowBoundSeconds)
                       .set("runtime_shape_ok", runtime_ok));
  return 0;
}
