// The general exponential-case method of Theorem 2, end to end:
// TEG + rates -> reachability CTMC -> stationary distribution -> throughput
// as the stationary firing frequency of a chosen set of transitions.
#pragma once

#include <vector>

#include "linalg/stationary.hpp"
#include "markov/reachability.hpp"
#include "tpn/graph.hpp"

namespace streamflow {

struct GeneralMethodOptions {
  ReachabilityOptions reachability;
  /// Chains up to this state count solve by dense LU; larger ones by
  /// Gauss–Seidel sweeps over the in-edge generator. Set from the crossover
  /// sweep of bench/sec77_runtime (Release, 4-thread AVX-512 host). On
  /// heterogeneous pattern chains Gauss–Seidel is faster at every measured
  /// size, 4 to 1,980 states (1.2x at 4, 6-9x at 105-182, 110-180x at
  /// 1,260). On a line-shaped tandem chain, the slowest-mixing family, dense
  /// LU is faster up to 121 states (0.8x), the two are within run-to-run
  /// noise from 144 to 225 states, and Gauss–Seidel wins from 289 (1.4-1.9x).
  /// The threshold sits at the low end of that band: there a tandem chain
  /// loses little either way, while a pattern chain gains several-fold.
  std::size_t dense_threshold = 160;
  StationaryOptions stationary;
};

struct GeneralMethodResult {
  /// Sum of the stationary firing frequencies of the counted transitions.
  double throughput = 0.0;
  std::size_t num_states = 0;
  /// See TpnMarkovChain::capacity_clipped.
  bool capacity_clipped = false;
  /// The back-end the stationary solve dispatched to (num_states vs
  /// dense_threshold), its sweeps and its normalized residual.
  StationarySolveStats solver;
};

/// Exponential firing rates 1/duration for every transition of the graph.
/// Throws InvalidArgument if any duration is zero (an exponential law with
/// infinite rate is not representable; model the file as a tiny one).
std::vector<double> rates_from_durations(const TimedEventGraph& graph);

/// Stationary firing frequency of each transition: freq[t] = rate[t] *
/// P(t enabled). The long-run output rate of the system is the sum of the
/// frequencies over the last-column transitions (one completed data set per
/// firing).
std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options = {});

/// Overload reusing an already-explored chain (avoids a second reachability
/// pass when the caller needs the chain's metadata too). A non-null `solver`
/// receives the stationary solve's back-end, sweeps and residual.
std::vector<double> stationary_frequencies(
    const TimedEventGraph& graph, const TpnMarkovChain& chain,
    const std::vector<double>& rates, const GeneralMethodOptions& options = {},
    StationarySolveStats* solver = nullptr);

/// Theorem 2's throughput: the summed frequency of `counted` transitions.
GeneralMethodResult exponential_throughput_general(
    const TimedEventGraph& graph, const std::vector<double>& rates,
    const std::vector<std::size_t>& counted,
    const GeneralMethodOptions& options = {});

/// Saturated flow of a pattern chain: the aggregate stationary firing
/// frequency of EVERY transition of the graph. This is the CTMC entry point
/// of the Theorem 3 column method (and of AnalysisContext's pattern cache):
/// a communication pattern's inner throughput is the saturated flow of its
/// folded event graph. Equivalent to exponential_throughput_general with all
/// transitions counted, without materializing the index vector.
GeneralMethodResult saturated_flow(const TimedEventGraph& graph,
                                   const std::vector<double>& rates,
                                   const GeneralMethodOptions& options = {});

}  // namespace streamflow
