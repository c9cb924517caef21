#include "markov/throughput.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>

namespace streamflow {

std::vector<double> rates_from_durations(const TimedEventGraph& graph) {
  std::vector<double> rates;
  rates.reserve(graph.num_transitions());
  for (const Transition& t : graph.transitions()) {
    SF_REQUIRE(t.duration > 0.0,
               "exponential analysis requires positive mean durations");
    rates.push_back(1.0 / t.duration);
  }
  return rates;
}

namespace {

/// The chain's off-diagonal generator grouped by target state, by a
/// counting sort of chain.edges: offset[j + 2] first counts j's in-edges,
/// the prefix sum makes offset[j + 1] the first slot of j, and filling
/// advances it past j's last slot, i.e. to the first slot of j + 1. The
/// spare last entry is then dropped, leaving the n + 1 CSR offsets.
InEdgeGenerator in_edge_generator(const TpnMarkovChain& chain,
                                  const std::vector<double>& rates) {
  const std::size_t n = chain.num_states;
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  if (n > kMax || chain.edges.size() > kMax) {
    throw CapacityExceeded(
        "chain too large for the 32-bit Gauss–Seidel index: " +
        std::to_string(n) + " states, " + std::to_string(chain.edges.size()) +
        " edges");
  }
  InEdgeGenerator q;
  q.offset.assign(n + 2, 0);
  q.exit.assign(n, 0.0);
  for (const CtmcEdge& e : chain.edges) {
    if (e.from == e.to) continue;  // self-loops cancel in the generator
    ++q.offset[e.to + 2];
    q.exit[e.from] += rates[e.transition];
  }
  for (std::size_t j = 2; j < n + 2; ++j) q.offset[j] += q.offset[j - 1];
  q.source.resize(q.offset[n + 1]);
  q.rate.resize(q.offset[n + 1]);
  for (const CtmcEdge& e : chain.edges) {
    if (e.from == e.to) continue;
    const std::uint32_t k = q.offset[e.to + 1]++;
    q.source[k] = static_cast<std::uint32_t>(e.from);
    q.rate[k] = rates[e.transition];
  }
  q.offset.pop_back();
  return q;
}

/// The one stationary solve behind every entry point: dense LU up to
/// dense_threshold states, Gauss–Seidel above it. A non-null `solver`
/// receives the back-end, sweeps and normalized residual.
Vector solve_stationary(const TpnMarkovChain& chain,
                        const std::vector<double>& rates,
                        const GeneralMethodOptions& options,
                        StationarySolveStats* solver) {
  const std::size_t n = chain.num_states;
  if (n <= options.dense_threshold) {
    DenseMatrix q(n, n, 0.0);
    for (const CtmcEdge& e : chain.edges) {
      if (e.from == e.to) continue;  // self-loops cancel in the generator
      q(e.from, e.to) += rates[e.transition];
      q(e.from, e.from) -= rates[e.transition];
    }
    Vector pi = stationary_dense(q);
    if (solver != nullptr) {
      double max_exit = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        max_exit = std::max(max_exit, -q(i, i));
      }
      *solver = StationarySolveStats{};
      if (max_exit > 0.0) {
        solver->residual = stationary_residual(q, pi) / max_exit;
      }
    }
    return pi;
  }
  return stationary_gauss_seidel(in_edge_generator(chain, rates),
                                 options.stationary, solver);
}

}  // namespace

std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options) {
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  return stationary_frequencies(graph, chain, rates, options);
}

std::vector<double> stationary_frequencies(const TimedEventGraph& graph,
                                           const TpnMarkovChain& chain,
                                           const std::vector<double>& rates,
                                           const GeneralMethodOptions& options,
                                           StationarySolveStats* solver) {
  const Vector pi = solve_stationary(chain, rates, options, solver);
  std::vector<double> freq(graph.num_transitions(), 0.0);
  // Each state where t is enabled contributes exactly one outgoing edge for
  // t, so summing pi[from] * rate over edges gives rate * P(enabled).
  for (const CtmcEdge& e : chain.edges) {
    freq[e.transition] += pi[e.from] * rates[e.transition];
  }
  return freq;
}

GeneralMethodResult exponential_throughput_general(
    const TimedEventGraph& graph, const std::vector<double>& rates,
    const std::vector<std::size_t>& counted,
    const GeneralMethodOptions& options) {
  SF_REQUIRE(!counted.empty(), "no transitions selected for counting");
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  GeneralMethodResult result;
  const Vector pi = solve_stationary(chain, rates, options, &result.solver);

  std::vector<char> is_counted(graph.num_transitions(), 0);
  for (std::size_t t : counted) {
    SF_REQUIRE(t < graph.num_transitions(), "counted transition out of range");
    is_counted[t] = 1;
  }
  result.num_states = chain.num_states;
  result.capacity_clipped = chain.capacity_clipped;
  for (const CtmcEdge& e : chain.edges) {
    if (is_counted[e.transition])
      result.throughput += pi[e.from] * rates[e.transition];
  }
  return result;
}

GeneralMethodResult saturated_flow(const TimedEventGraph& graph,
                                   const std::vector<double>& rates,
                                   const GeneralMethodOptions& options) {
  SF_REQUIRE(graph.num_transitions() > 0, "empty event graph");
  const TpnMarkovChain chain =
      explore_markings(graph, rates, options.reachability);
  GeneralMethodResult result;
  const Vector pi = solve_stationary(chain, rates, options, &result.solver);
  result.num_states = chain.num_states;
  result.capacity_clipped = chain.capacity_clipped;
  for (const CtmcEdge& e : chain.edges) {
    result.throughput += pi[e.from] * rates[e.transition];
  }
  return result;
}

}  // namespace streamflow
