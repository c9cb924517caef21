#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "markov/throughput.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"

namespace streamflow {
namespace {

TEST(Reachability, SingleSelfLoopTransition) {
  // One transition with a marked self-loop: a single state, one self-edge.
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 2.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.finalize();
  const auto chain = explore_markings(g, {0.5});
  EXPECT_EQ(chain.num_states, 1u);
  ASSERT_EQ(chain.edges.size(), 1u);
  EXPECT_EQ(chain.edges[0].from, chain.edges[0].to);
}

TEST(Reachability, TwoTransitionRing) {
  // 0 -> 1 -> 0 ring with one token: two states (token at either place).
  TimedEventGraph g(2, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_transition(Transition{.row = 1, .duration = 1.0});
  g.add_place(Place{0, 1, PlaceKind::kResource, 1});
  g.add_place(Place{1, 0, PlaceKind::kResource, 0});
  g.finalize();
  const auto chain = explore_markings(g, {1.0, 2.0});
  EXPECT_EQ(chain.num_states, 2u);
  EXPECT_EQ(chain.edges.size(), 2u);
  EXPECT_FALSE(chain.capacity_clipped);
}

TEST(Reachability, StrictTpnIsOneSafe) {
  const Mapping mapping = testing::replicated_chain_mapping(1, 2, 1);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  ReachabilityOptions options;
  options.place_capacity = 1;  // must never clip: the Strict net is 1-safe
  const auto chain =
      explore_markings(g, rates_from_durations(g), options);
  EXPECT_FALSE(chain.capacity_clipped);
  EXPECT_GT(chain.num_states, 1u);
}

TEST(Reachability, OverlapTpnNeedsBuffers) {
  // A fast first stage accumulates tokens ahead of a slow second stage:
  // with capacity 1 the chain clips, and raising the capacity grows the
  // state space.
  const Mapping mapping = testing::chain_mapping({0.1, 10.0}, {0.1});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  ReachabilityOptions tight;
  tight.place_capacity = 1;
  const auto clipped = explore_markings(g, rates, tight);
  EXPECT_TRUE(clipped.capacity_clipped);
  ReachabilityOptions loose;
  loose.place_capacity = 6;
  const auto wide = explore_markings(g, rates, loose);
  EXPECT_GT(wide.num_states, clipped.num_states);
}

TEST(Reachability, StateCapIsEnforced) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  ReachabilityOptions options;
  options.max_states = 10;
  EXPECT_THROW(explore_markings(g, rates_from_durations(g), options),
               CapacityExceeded);
}

TEST(Reachability, RejectsBadRates) {
  TimedEventGraph g(1, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.finalize();
  EXPECT_THROW(explore_markings(g, {0.0}), InvalidArgument);
  EXPECT_THROW(explore_markings(g, {1.0, 1.0}), InvalidArgument);
}

TEST(GeneralMethod, SingleServerRateIsLambda) {
  // One processor with exponential service at rate lambda, always busy:
  // throughput = lambda.
  const Mapping mapping = testing::chain_mapping({4.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto r = exponential_throughput_general(
      g, rates_from_durations(g), g.last_column_transitions());
  EXPECT_NEAR(r.throughput, 0.25, 1e-12);
}

TEST(GeneralMethod, TandemTwoServersIsSaturationMin) {
  // Saturated M -> M tandem with unbounded buffer: output rate min(a, b).
  // With a finite buffer the rate is slightly below min(a, b) and grows
  // with the buffer size.
  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  double previous = 0.0;
  for (int capacity : {1, 2, 4, 8, 16}) {
    GeneralMethodOptions options;
    options.reachability.place_capacity = capacity;
    const auto r = exponential_throughput_general(
        g, rates, g.last_column_transitions(), options);
    EXPECT_GE(r.throughput, previous - 1e-12);
    EXPECT_LE(r.throughput, 0.5 + 1e-9);
    previous = r.throughput;
  }
  EXPECT_NEAR(previous, 0.5, 0.02);  // converging to min(1, 1/2)
}

TEST(GeneralMethod, StationaryBackendCrossoverAtDenseThreshold) {
  // The default crossover is pinned: chains up to 160 states solve dense
  // (measured by bench/sec77_runtime's crossover sweep).
  GeneralMethodOptions defaults;
  EXPECT_EQ(defaults.dense_threshold, 160u);

  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  const auto rates = rates_from_durations(g);
  GeneralMethodOptions dense;
  dense.reachability.place_capacity = 4;
  const auto a = exponential_throughput_general(
      g, rates, g.last_column_transitions(), dense);
  ASSERT_GT(a.num_states, 1u);
  ASSERT_LE(a.num_states, dense.dense_threshold);
  EXPECT_EQ(a.solver.backend, StationaryBackend::kDense);
  EXPECT_EQ(a.solver.sweeps, 0u);  // direct solve: no sweeps
  // Normalized by the max exit rate (~1000 here): || pi Q ||_1 < 1e-10.
  EXPECT_LT(a.solver.residual, 1e-13);

  // Drop the threshold below the state count: the SAME chain now takes the
  // Gauss–Seidel path, reports it, and agrees on the throughput.
  GeneralMethodOptions sparse = dense;
  sparse.dense_threshold = a.num_states - 1;
  const auto b = exponential_throughput_general(
      g, rates, g.last_column_transitions(), sparse);
  EXPECT_EQ(b.solver.backend, StationaryBackend::kGaussSeidel);
  EXPECT_GT(b.solver.sweeps, 0u);
  EXPECT_LT(b.solver.residual, sparse.stationary.tolerance);
  // The sweep stops on the normalized residual || pi Q ||_1 / max exit rate
  // < 1e-12. The pi error is that residual times the chain's conditioning,
  // which is poor here (exit rates span 0.5 to 1000), so compare a few
  // orders above it.
  EXPECT_NEAR(b.throughput, a.throughput, 1e-7);

  // saturated_flow (the pattern-cache entry point) dispatches identically —
  // it is NOT dense-only.
  const auto sf_dense = saturated_flow(g, rates, dense);
  EXPECT_EQ(sf_dense.solver.backend, StationaryBackend::kDense);
  const auto sf_sparse = saturated_flow(g, rates, sparse);
  EXPECT_EQ(sf_sparse.solver.backend, StationaryBackend::kGaussSeidel);
  EXPECT_GT(sf_sparse.solver.sweeps, 0u);
  EXPECT_NEAR(sf_sparse.throughput, sf_dense.throughput, 1e-7);

  // stationary_frequencies reports the same solve through its out-param.
  const auto chain = explore_markings(g, rates, sparse.reachability);
  StationarySolveStats solver;
  const auto freq = stationary_frequencies(g, chain, rates, sparse, &solver);
  EXPECT_EQ(solver.backend, StationaryBackend::kGaussSeidel);
  EXPECT_EQ(solver.sweeps, b.solver.sweeps);
  EXPECT_EQ(solver.residual, b.solver.residual);
  double counted = 0.0;
  for (std::size_t t : g.last_column_transitions()) counted += freq[t];
  EXPECT_EQ(counted, b.throughput);
}

TEST(GeneralMethod, GaussSeidelMatchesDenseOnHeterogeneousPattern) {
  // A heterogeneous 5 x 6 pattern: 1,260 states, well above the default
  // dense_threshold. Gauss–Seidel agrees with a forced dense LU solve.
  std::vector<double> times;
  for (std::size_t k = 0; k < 30; ++k)
    times.push_back(0.5 + 0.1 * static_cast<double>((k * 7) % 11));
  const Mapping mapping =
      testing::single_comm_mapping_heterogeneous(5, 6, times);
  const TimedEventGraph teg = build_pattern_teg(comm_patterns(mapping, 0)[0]);
  const auto rates = rates_from_durations(teg);
  const GeneralMethodOptions defaults;
  const auto gs = saturated_flow(teg, rates, defaults);
  ASSERT_EQ(gs.num_states, 1260u);
  EXPECT_EQ(gs.solver.backend, StationaryBackend::kGaussSeidel);
  EXPECT_LT(gs.solver.residual, defaults.stationary.tolerance);
  GeneralMethodOptions forced_dense;
  forced_dense.dense_threshold = gs.num_states;
  const auto lu = saturated_flow(teg, rates, forced_dense);
  EXPECT_EQ(lu.solver.backend, StationaryBackend::kDense);
  EXPECT_LT(lu.solver.residual, defaults.stationary.tolerance);
  EXPECT_NEAR(gs.throughput, lu.throughput, 1e-10 * lu.throughput);
}

TEST(GeneralMethod, GaussSeidelSweepCapThrowsWithProgress) {
  // One sweep cannot reach 1e-12 on a tandem chain; the error names the
  // sweeps done and the residual reached.
  const Mapping mapping = testing::chain_mapping({1.0, 2.0}, {1e-3});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  GeneralMethodOptions options;
  options.reachability.place_capacity = 4;
  options.dense_threshold = 0;
  options.stationary.max_iterations = 1;
  try {
    (void)exponential_throughput_general(g, rates_from_durations(g),
                                         g.last_column_transitions(), options);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("sweeps: 1,"), std::string::npos) << message;
    EXPECT_NE(message.find("residual reached: "), std::string::npos)
        << message;
  }
}

TEST(GeneralMethod, FrequenciesAreRowUniform) {
  // In steady state every transition of a strongly coupled pattern fires at
  // the same frequency (the round-robin equalizes rows).
  const Mapping mapping = testing::single_comm_mapping(2, 3, 1.0, 0.5);
  const auto patterns = comm_patterns(mapping, 0);
  const TimedEventGraph teg = build_pattern_teg(patterns[0]);
  const auto freq =
      stationary_frequencies(teg, rates_from_durations(teg));
  for (double f : freq) EXPECT_NEAR(f, freq[0], 1e-9);
}

}  // namespace
}  // namespace streamflow
