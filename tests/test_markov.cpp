#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <string>
#include <tuple>

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

TEST(Reachability, RejectsInitialTokensAboveAByte) {
  // A marking holds one byte per place: 256 tokens used to wrap to 0 and
  // 300 to 44, exploring the wrong chain without an error.
  for (int tokens : {256, 300}) {
    TimedEventGraph g(2, 1);
    g.add_transition(Transition{.duration = 1.0});
    g.add_transition(Transition{.row = 1, .duration = 1.0});
    g.add_place(Place{0, 1, PlaceKind::kFlow, tokens});
    g.add_place(Place{1, 0, PlaceKind::kFlow, 0});
    g.finalize();
    EXPECT_THROW(explore_markings(g, {1.0, 1.0}), InvalidArgument) << tokens;
  }
  // 255 tokens fit: on a two-place ring at capacity 255 every split of
  // them is a state.
  TimedEventGraph g(2, 1);
  g.add_transition(Transition{.duration = 1.0});
  g.add_transition(Transition{.row = 1, .duration = 1.0});
  g.add_place(Place{0, 1, PlaceKind::kFlow, 255});
  g.add_place(Place{1, 0, PlaceKind::kFlow, 0});
  g.finalize();
  ReachabilityOptions options;
  options.place_capacity = 255;
  const auto chain = explore_markings(g, {1.0, 1.0}, options);
  EXPECT_EQ(chain.num_states, 256u);
  EXPECT_FALSE(chain.capacity_clipped);
}

TEST(Reachability, StateCapBoundary) {
  // A cap equal to the reachable state count is enough; one below it
  // throws when the last new marking is discovered.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kStrict);
  const auto rates = rates_from_durations(g);
  const std::size_t reachable = explore_markings(g, rates).num_states;
  ASSERT_GT(reachable, 1u);
  ReachabilityOptions exact;
  exact.max_states = reachable;
  EXPECT_EQ(explore_markings(g, rates, exact).num_states, reachable);
  ReachabilityOptions short_by_one;
  short_by_one.max_states = reachable - 1;
  try {
    (void)explore_markings(g, rates, short_by_one);
    FAIL() << "expected CapacityExceeded";
  } catch (const CapacityExceeded& error) {
    EXPECT_EQ(std::string(error.what()),
              "marking exploration exceeded max_states=" +
                  std::to_string(reachable - 1) +
                  "; use the column decomposition or raise the cap");
  }
}

/// The reference explorer: a std::map of markings and a std::deque BFS
/// frontier, with the same firing and capacity rules as explore_markings.
struct ReferenceChain {
  std::size_t num_states = 0;
  std::vector<std::tuple<std::size_t, std::size_t, std::size_t>> edges;
  bool capacity_clipped = false;
};

ReferenceChain reference_explore(const TimedEventGraph& g, int capacity) {
  using Marking = std::vector<int>;
  Marking initial;
  for (const Place& p : g.places()) initial.push_back(p.initial_tokens);
  std::map<Marking, std::size_t> index{{initial, 0}};
  std::deque<Marking> frontier{initial};
  ReferenceChain chain;
  chain.num_states = 1;
  for (std::size_t from = 0; !frontier.empty(); ++from) {
    const Marking m = frontier.front();
    frontier.pop_front();
    for (std::size_t t = 0; t < g.num_transitions(); ++t) {
      bool enabled = true;
      for (std::size_t pid : g.input_places(t)) enabled &= m[pid] > 0;
      if (!enabled) continue;
      for (std::size_t pid : g.output_places(t)) {
        const Place& p = g.place(pid);
        if (p.from == p.to || m[pid] < capacity) continue;
        EXPECT_EQ(p.kind, PlaceKind::kFlow) << "resource place overflowed";
        chain.capacity_clipped = true;
        enabled = false;
        break;
      }
      if (!enabled) continue;
      Marking next = m;
      for (std::size_t pid : g.input_places(t)) --next[pid];
      for (std::size_t pid : g.output_places(t)) ++next[pid];
      const auto [it, inserted] = index.emplace(next, chain.num_states);
      if (inserted) {
        ++chain.num_states;
        frontier.push_back(next);
      }
      chain.edges.emplace_back(from, it->second, t);
    }
  }
  return chain;
}

/// Explores `g` and expects the reference's states, clipping flag and edge
/// list, in order; returns the explored chain.
TpnMarkovChain explore_like_reference(const TimedEventGraph& g, int capacity) {
  ReachabilityOptions options;
  options.place_capacity = capacity;
  auto chain = explore_markings(g, rates_from_durations(g), options);
  const ReferenceChain expected = reference_explore(g, capacity);
  EXPECT_EQ(chain.num_states, expected.num_states);
  EXPECT_EQ(chain.capacity_clipped, expected.capacity_clipped);
  EXPECT_EQ(chain.edges.size(), expected.edges.size());
  for (std::size_t k = 0;
       k < std::min(chain.edges.size(), expected.edges.size()); ++k) {
    const CtmcEdge& e = chain.edges[k];
    EXPECT_EQ(std::make_tuple(std::size_t{e.from}, std::size_t{e.to},
                              std::size_t{e.transition}),
              expected.edges[k])
        << "edge " << k;
  }
  return chain;
}

TEST(Reachability, MatchesReferenceOnHeterogeneousPattern) {
  std::vector<double> times;
  for (std::size_t k = 0; k < 20; ++k)
    times.push_back(0.5 + 0.1 * static_cast<double>((k * 7) % 11));
  const Mapping mapping =
      testing::single_comm_mapping_heterogeneous(4, 5, times);
  const TimedEventGraph teg = build_pattern_teg(comm_patterns(mapping, 0)[0]);
  EXPECT_GT(explore_like_reference(teg, 8).num_states, 100u);
}

TEST(Reachability, MatchesReferenceOnClippedOverlapNet) {
  const Mapping mapping = testing::chain_mapping({0.1, 10.0, 0.5}, {0.1, 1.0});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  for (int capacity : {2, 4}) {
    SCOPED_TRACE(capacity);
    EXPECT_TRUE(explore_like_reference(g, capacity).capacity_clipped);
  }
}

TEST(Reachability, MatchesReferenceOnStrictNet) {
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2);
  const auto chain =
      explore_like_reference(build_tpn(mapping, ExecutionModel::kStrict), 8);
  EXPECT_GT(chain.num_states, 100u);
  EXPECT_FALSE(chain.capacity_clipped);
}

TEST(Reachability, MatchesReferenceWithPaddedMarkings) {
  // Nine places (three marked self-loops, then a 6-ring of flow places), so
  // each stored marking carries seven bytes of padding and its last real
  // byte, a ring place, varies; capacity 2 clips.
  TimedEventGraph g(1, 6);
  for (std::size_t t = 0; t < 6; ++t)
    g.add_transition(Transition{
        .column = t, .duration = 1.0 + 0.25 * static_cast<double>(t)});
  for (std::size_t t = 0; t < 6; t += 2)
    g.add_place(Place{t, t, PlaceKind::kResource, 1});
  const int tokens[6] = {2, 0, 1, 0, 0, 0};
  for (std::size_t t = 0; t < 6; ++t)
    g.add_place(Place{t, (t + 1) % 6, PlaceKind::kFlow, tokens[t]});
  g.finalize();
  ASSERT_EQ(g.num_places() % 8, 1u);
  EXPECT_TRUE(explore_like_reference(g, 2).capacity_clipped);
}

TEST(Reachability, MatchesReferenceWithTwoWordEnabledSets) {
  // 70 transitions, so each state's enabled set spans two 64-bit words: a
  // 70-ring of flow places holding two tokens, one of them about to cross
  // from transition 63 into 64, with a marked self-loop on every third
  // transition. Capacity 1 clips when the tokens meet.
  constexpr std::size_t kRing = 70;
  TimedEventGraph g(1, kRing);
  for (std::size_t t = 0; t < kRing; ++t)
    g.add_transition(Transition{
        .column = t, .duration = 1.0 + 0.125 * static_cast<double>(t % 5)});
  for (std::size_t t = 0; t < kRing; t += 3)
    g.add_place(Place{t, t, PlaceKind::kResource, 1});
  for (std::size_t t = 0; t < kRing; ++t) {
    const int tokens = (t == 10 || t == 62) ? 1 : 0;
    g.add_place(Place{t, (t + 1) % kRing, PlaceKind::kFlow, tokens});
  }
  g.finalize();
  ASSERT_GT(g.num_transitions(), 64u);
  const auto chain = explore_like_reference(g, 1);
  EXPECT_TRUE(chain.capacity_clipped);
  EXPECT_GT(chain.num_states, 1000u);
  EXPECT_TRUE(
      std::any_of(chain.edges.begin(), chain.edges.end(),
                  [](const CtmcEdge& e) { return e.transition >= 64; }));
}

TEST(Reachability, ResourcePlaceOverflowThrows) {
  // Transition 0 is always enabled (a marked self-loop) and feeds a
  // resource place that transition 1 drains. Breadth-first exploration
  // reaches the marking where the place holds `place_capacity` tokens, and
  // firing transition 0 there would break 1-safety.
  TimedEventGraph g(1, 2);
  g.add_transition(Transition{.duration = 1.0});
  g.add_transition(Transition{.column = 1, .duration = 1.0});
  g.add_place(Place{0, 0, PlaceKind::kResource, 1});
  g.add_place(Place{0, 1, PlaceKind::kResource, 0});
  g.finalize();
  for (int capacity : {1, 8}) {
    SCOPED_TRACE(capacity);
    ReachabilityOptions options;
    options.place_capacity = capacity;
    try {
      (void)explore_markings(g, {1.0, 1.0}, options);
      FAIL() << "expected CapacityExceeded";
    } catch (const CapacityExceeded& error) {
      EXPECT_EQ(std::string(error.what()),
                "resource place exceeded capacity: the event graph violates "
                "the expected 1-safety of serialization chains");
    }
  }
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
