#include "core/analyzer.hpp"

#include <algorithm>
#include <limits>

#include "core/analysis_context.hpp"
#include "markov/throughput.hpp"
#include "tpn/builder.hpp"

namespace streamflow {

namespace detail {

ExponentialThroughput general_ctmc_throughput(const Mapping& mapping,
                                              ExecutionModel model,
                                              const ExponentialOptions& options) {
  ExponentialThroughput result;
  result.method_used = ExponentialMethod::kGeneralCtmc;

  TpnBuildOptions build_options;
  build_options.max_rows = options.max_rows;
  const TimedEventGraph graph = build_tpn(mapping, model, build_options);
  const std::vector<double> rates = rates_from_durations(graph);

  GeneralMethodOptions method_options;
  method_options.reachability.max_states = options.max_states;
  method_options.reachability.place_capacity = options.place_capacity;

  const TpnMarkovChain chain =
      explore_markings(graph, rates, method_options.reachability);
  const std::vector<double> freq =
      stationary_frequencies(graph, chain, rates, method_options,
                             &result.solver);
  double min_row_rate = std::numeric_limits<double>::infinity();
  for (const std::size_t t : graph.last_column_transitions()) {
    result.throughput += freq[t];
    min_row_rate = std::min(min_row_rate, freq[t]);
  }
  result.in_order_throughput =
      min_row_rate * static_cast<double>(mapping.num_paths());
  result.ctmc_states = chain.num_states;
  result.capacity_clipped = chain.capacity_clipped;
  return result;
}

}  // namespace detail

ExponentialThroughput exponential_throughput(const Mapping& mapping,
                                             ExecutionModel model,
                                             const ExponentialOptions& options) {
  // Throwaway context: one-shot callers pay nothing for the cache; callers
  // that evaluate many mappings should hold an AnalysisContext instead.
  AnalysisContext context(options);
  return context.exponential(mapping, model);
}

NbueBounds nbue_throughput_bounds(const Mapping& mapping, ExecutionModel model,
                                  const ExponentialOptions& options) {
  NbueBounds bounds;
  bounds.upper = deterministic_throughput(mapping, model).throughput;
  bounds.lower = exponential_throughput(mapping, model, options).throughput;
  return bounds;
}

}  // namespace streamflow
