#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "common/simd_fill.hpp"
#include "common/stats.hpp"
#include "core/analyzer.hpp"
#include "maxplus/deterministic.hpp"
#include "model/random_instance.hpp"
#include "sim/pipeline_sim.hpp"
#include "sim/teg_sim.hpp"
#include "test_helpers.hpp"
#include "tpn/builder.hpp"

namespace streamflow {
namespace {

class PipelineVsMcrTest : public ::testing::TestWithParam<std::uint64_t> {};

// The direct pipeline simulator with constant times must reproduce the
// analytical deterministic throughput (it is an independent implementation
// of the same semantics).
TEST_P(PipelineVsMcrTest, DeterministicPipelineMatchesAnalysis) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 4;
  instance.num_processors = 10;
  instance.max_paths = 40;
  const Mapping mapping = random_instance(instance, prng);
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const double analytic = deterministic_throughput(mapping, model).throughput;
    PipelineSimOptions options;
    options.data_sets = 20'000;
    const auto sim = simulate_pipeline(mapping, model, det, options);
    EXPECT_LT(relative_difference(analytic, sim.throughput), 5e-3)
        << mapping.to_string() << " " << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, PipelineVsMcrTest,
                         ::testing::Range<std::uint64_t>(500, 510));

class FidelityTest : public ::testing::TestWithParam<std::uint64_t> {};

// §7.4 fidelity: the TPN-based simulator and the direct pipeline simulator
// agree under exponential times (independent implementations, same model).
TEST_P(FidelityTest, TegSimAgreesWithPipelineSim) {
  Prng prng(GetParam());
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 8;
  instance.max_paths = 24;
  const Mapping mapping = random_instance(instance, prng);
  const StochasticTiming timing = StochasticTiming::exponential(mapping);
  for (const ExecutionModel model :
       {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
    const TimedEventGraph g = build_tpn(mapping, model);
    TegSimOptions teg_options;
    teg_options.rounds = 3000;
    const auto teg = simulate_teg(g, transition_laws(g, timing), teg_options);
    PipelineSimOptions pipe_options;
    pipe_options.data_sets = 60'000;
    pipe_options.seed = GetParam() + 1;
    const auto pipe = simulate_pipeline(mapping, model, timing, pipe_options);
    EXPECT_LT(relative_difference(teg.throughput, pipe.throughput), 0.05)
        << mapping.to_string() << " " << to_string(model);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMappings, FidelityTest,
                         ::testing::Range<std::uint64_t>(600, 607));

TEST(PipelineSim, StrictNeverFasterThanOverlap) {
  Prng prng(888);
  RandomInstanceOptions instance;
  instance.num_stages = 3;
  instance.num_processors = 8;
  instance.max_paths = 24;
  for (int trial = 0; trial < 5; ++trial) {
    const Mapping mapping = random_instance(instance, prng);
    const StochasticTiming timing = StochasticTiming::exponential(mapping);
    PipelineSimOptions options;
    options.data_sets = 30'000;
    const auto overlap =
        simulate_pipeline(mapping, ExecutionModel::kOverlap, timing, options);
    const auto strict =
        simulate_pipeline(mapping, ExecutionModel::kStrict, timing, options);
    EXPECT_LE(strict.throughput, overlap.throughput * 1.02)
        << mapping.to_string();
  }
}

TEST(PipelineSim, BandwidthEfficiencyScalesCommBoundThroughput) {
  // A communication-bound chain: halving the effective bandwidth halves the
  // throughput.
  const Mapping mapping = testing::chain_mapping({0.01, 0.01}, {1.0});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  PipelineSimOptions fast;
  fast.data_sets = 5'000;
  const auto full = simulate_pipeline(mapping, ExecutionModel::kOverlap, det,
                                      fast);
  PipelineSimOptions slow = fast;
  slow.bandwidth_efficiency = 0.5;
  const auto half = simulate_pipeline(mapping, ExecutionModel::kOverlap, det,
                                      slow);
  EXPECT_NEAR(half.throughput / full.throughput, 0.5, 0.01);
}

TEST(PipelineSim, WarmupZeroReproducesTotalTimeProtocol) {
  const Mapping mapping = testing::chain_mapping({1.0, 1.0}, {0.5});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  PipelineSimOptions options;
  options.data_sets = 100;
  options.warmup_fraction = 0.0;
  const auto sim =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, options);
  EXPECT_EQ(sim.completed, 100);
  EXPECT_DOUBLE_EQ(sim.elapsed, sim.makespan);
  // Finite-horizon throughput is below the steady-state value (ramp-up).
  EXPECT_LT(sim.throughput, 1.0);
  EXPECT_GT(sim.throughput, 0.9);
}

TEST(PipelineSim, AssociatedOrderingOfTheorem8) {
  // Theorem 8: rho(det means) >= rho(associated) >= rho(iid with the same
  // marginals). In §6.2's model (works and sizes independent across
  // columns, scope = kPerStage) each data set materializes only one
  // resource per column, so the associated case coincides with the
  // independent one and the ordering holds with equality on the right.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);

  PipelineSimOptions options;
  options.data_sets = 120'000;

  const double det =
      deterministic_throughput(mapping, ExecutionModel::kStrict).throughput;
  const auto associated = simulate_pipeline_associated(
      mapping, ExecutionModel::kStrict, *size_law, options,
      AssociationScope::kPerStage);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kStrict, iid, options);

  EXPECT_GE(det * 1.01, associated.throughput);
  EXPECT_LT(relative_difference(associated.throughput, independent.throughput),
            0.03);
}

TEST(PipelineSim, PathWideCorrelationHurtsStrictThroughput) {
  // Extension beyond §6.2: when ONE size drives a data set's every time
  // along the path, each row's service block becomes icx-larger (perfectly
  // correlated sums have the largest variance), and the Strict throughput
  // drops below the independent case.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);
  PipelineSimOptions options;
  options.data_sets = 120'000;
  const auto path_wide = simulate_pipeline_associated(
      mapping, ExecutionModel::kStrict, *size_law, options,
      AssociationScope::kPerDataSet);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kStrict, iid, options);
  EXPECT_LT(path_wide.throughput, independent.throughput);
}

TEST(PipelineSim, PerStageAssociationDegeneratesToIndependent) {
  // With one independent multiplier per (stage, data set), each data set
  // touches one processor per stage and one link per file, so the
  // "association" is distributionally identical to the independent case.
  const Mapping mapping = testing::replicated_chain_mapping(2, 3, 2, 4.0, 2.0);
  const auto size_law = make_exponential_mean(1.0);
  PipelineSimOptions options;
  options.data_sets = 120'000;
  const auto per_stage = simulate_pipeline_associated(
      mapping, ExecutionModel::kOverlap, *size_law, options,
      AssociationScope::kPerStage);
  const StochasticTiming iid =
      StochasticTiming::scaled(mapping, *size_law->with_mean(4.0));
  const auto independent =
      simulate_pipeline(mapping, ExecutionModel::kOverlap, iid, options);
  EXPECT_LT(relative_difference(per_stage.throughput, independent.throughput),
            0.03);
}

TEST(PipelineSim, OptionValidation) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const StochasticTiming det = StochasticTiming::deterministic(mapping);
  PipelineSimOptions bad;
  bad.data_sets = 1;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, bad),
      InvalidArgument);
  bad = {};
  bad.warmup_fraction = 1.0;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, bad),
      InvalidArgument);
  bad = {};
  bad.bandwidth_efficiency = 0.0;
  EXPECT_THROW(
      simulate_pipeline(mapping, ExecutionModel::kOverlap, det, bad),
      InvalidArgument);
}

TEST(TegSim, OptionValidation) {
  const Mapping mapping = testing::chain_mapping({1.0}, {});
  const TimedEventGraph g = build_tpn(mapping, ExecutionModel::kOverlap);
  TegSimOptions bad;
  bad.rounds = 2;
  EXPECT_THROW(simulate_teg_deterministic(g, bad), InvalidArgument);
  bad = {};
  bad.warmup_fraction = -0.5;
  EXPECT_THROW(simulate_teg_deterministic(g, bad), InvalidArgument);
}

// --- reference simulators ------------------------------------------------
//
// The straightforward forms of both simulators, kept here as references:
// the TEG round loop walks the graph (input_places, place) every firing,
// and the pipeline recurrence indexes its history rings and round-robin
// phases with % and looks every link law up in StochasticTiming per draw.
// The simulators must reproduce them bit for bit, with the same substream
// seeding and the same advance of the injected stream. The references use
// 1024-raw blocks, so they refill through the SIMD lanes where the
// simulators' short blocks step the scalar state.

constexpr std::size_t kReferenceBlock = 1024;

std::vector<std::size_t> reference_topo_order(const TimedEventGraph& graph) {
  std::vector<std::size_t> indegree(graph.num_transitions(), 0);
  for (const Place& p : graph.places()) {
    if (p.initial_tokens == 0) ++indegree[p.to];
  }
  std::vector<std::size_t> order;
  std::vector<std::size_t> queue;
  for (std::size_t t = 0; t < graph.num_transitions(); ++t)
    if (indegree[t] == 0) queue.push_back(t);
  while (!queue.empty()) {
    const std::size_t t = queue.back();
    queue.pop_back();
    order.push_back(t);
    for (std::size_t pid : graph.output_places(t)) {
      const Place& p = graph.place(pid);
      if (p.initial_tokens > 0) continue;
      if (--indegree[p.to] == 0) queue.push_back(p.to);
    }
  }
  return order;
}

TegSimResult reference_teg(const TimedEventGraph& graph,
                           const std::vector<DistributionPtr>& laws,
                           Prng& prng, const TegSimOptions& options) {
  std::function<double(std::size_t)> draw;
  std::vector<BatchSampler> samplers;
  if (options.sampling == SamplingMode::kScalarCompat) {
    draw = [&](std::size_t t) { return laws[t]->sample(prng); };
  } else {
    const Prng root = prng;
    (void)prng();
    for (std::size_t t = 0; t < laws.size(); ++t)
      samplers.emplace_back(laws[t], root.split(t), options.refill_isa,
                            kReferenceBlock);
    draw = [&](std::size_t t) { return samplers[t].next(); };
  }
  const std::vector<std::size_t> order = reference_topo_order(graph);
  std::vector<double> prev(graph.num_transitions(), 0.0);
  std::vector<double> curr(graph.num_transitions(), 0.0);
  const std::vector<std::size_t> last_col = graph.last_column_transitions();
  const std::int64_t warmup_rounds = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.rounds));
  std::vector<double> window_start(last_col.size(), 0.0);
  for (std::int64_t k = 1; k <= options.rounds; ++k) {
    for (const std::size_t t : order) {
      double ready = 0.0;
      for (const std::size_t pid : graph.input_places(t)) {
        const Place& p = graph.place(pid);
        ready = std::max(ready,
                         p.initial_tokens > 0 ? prev[p.from] : curr[p.from]);
      }
      curr[t] = ready + draw(t);
    }
    if (k == warmup_rounds) {
      for (std::size_t i = 0; i < last_col.size(); ++i)
        window_start[i] = curr[last_col[i]];
    }
    prev.swap(curr);
  }
  TegSimResult result;
  const std::int64_t measured_rounds =
      options.rounds - std::max<std::int64_t>(warmup_rounds, 0);
  double min_row_rate = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < last_col.size(); ++i) {
    const double end = prev[last_col[i]];
    const double rate =
        static_cast<double>(measured_rounds) / (end - window_start[i]);
    result.throughput += rate;
    min_row_rate = std::min(min_row_rate, rate);
    result.horizon = std::max(result.horizon, end);
  }
  result.in_order_throughput =
      min_row_rate * static_cast<double>(last_col.size());
  return result;
}

/// Draws of the reference pipeline: comp(i, n) and comm(i, n) for stage i
/// and file F_i of data set n.
struct ReferenceTimes {
  std::function<double(std::size_t, std::int64_t)> comp;
  std::function<double(std::size_t, std::int64_t)> comm;
};

std::size_t round_robin(const std::vector<std::size_t>& team, std::int64_t n) {
  return team[static_cast<std::size_t>(
      n % static_cast<std::int64_t>(team.size()))];
}

PipelineSimResult reference_pipeline_run(const Mapping& mapping,
                                         ExecutionModel model,
                                         const ReferenceTimes& times,
                                         const PipelineSimOptions& options) {
  const std::size_t n_stages = mapping.num_stages();
  std::vector<std::int64_t> r(n_stages);
  for (std::size_t i = 0; i < n_stages; ++i)
    r[i] = static_cast<std::int64_t>(mapping.replication(i));
  // done[i][n mod window] for computations (i < N) and transfers (N + i).
  std::vector<std::vector<double>> done(2 * n_stages);
  for (std::size_t i = 0; i < n_stages; ++i) {
    done[i].assign(static_cast<std::size_t>(r[i]) + 1, 0.0);
    if (i + 1 < n_stages) {
      done[n_stages + i].assign(
          static_cast<std::size_t>(std::max(r[i], r[i + 1])) + 1, 0.0);
    }
  }
  const auto get = [&](std::size_t k, std::int64_t n, std::int64_t back) {
    const std::int64_t idx = n - back;
    if (idx < 0) return 0.0;
    return done[k][static_cast<std::size_t>(idx) % done[k].size()];
  };
  const auto set = [&](std::size_t k, std::int64_t n, double value) {
    done[k][static_cast<std::size_t>(n) % done[k].size()] = value;
  };
  const std::size_t x = n_stages;  // offset of the transfer series
  const std::int64_t warmup = static_cast<std::int64_t>(
      options.warmup_fraction * static_cast<double>(options.data_sets));
  const std::int64_t r_last = r[n_stages - 1];
  std::vector<double> member_start(static_cast<std::size_t>(r_last), 0.0);
  std::vector<double> member_end(static_cast<std::size_t>(r_last), 0.0);
  std::vector<std::int64_t> member_count(static_cast<std::size_t>(r_last), 0);
  PipelineSimResult result;
  double latency_sum = 0.0;
  std::int64_t latency_count = 0;
  for (std::int64_t n = 0; n < options.data_sets; ++n) {
    double first_start = 0.0;
    for (std::size_t i = 0; i < n_stages; ++i) {
      double ready = i > 0 ? get(x + i - 1, n, 0) : 0.0;
      if (model == ExecutionModel::kOverlap) {
        ready = std::max(ready, get(i, n, r[i]));
      } else if (i == 0) {
        ready = std::max(ready, n_stages > 1 ? get(x, n, r[0])
                                             : get(0, n, r[0]));
      }
      if (i == 0) first_start = ready;
      set(i, n, ready + times.comp(i, n));
      if (i + 1 < n_stages) {
        double xfer_ready = get(i, n, 0);
        if (model == ExecutionModel::kOverlap) {
          xfer_ready = std::max(xfer_ready, get(x + i, n, r[i]));
          xfer_ready = std::max(xfer_ready, get(x + i, n, r[i + 1]));
        } else {
          xfer_ready = std::max(xfer_ready, i + 2 < n_stages
                                                ? get(x + i + 1, n, r[i + 1])
                                                : get(i + 1, n, r[i + 1]));
        }
        set(x + i, n,
            xfer_ready + times.comm(i, n) / options.bandwidth_efficiency);
      }
    }
    const double completion = get(n_stages - 1, n, 0);
    const auto member = static_cast<std::size_t>(n % r_last);
    if (n < warmup) {
      member_start[member] = completion;
    } else {
      member_end[member] = completion;
      ++member_count[member];
      latency_sum += completion - first_start;
      result.max_latency =
          std::max(result.max_latency, completion - first_start);
      ++latency_count;
    }
    result.makespan = std::max(result.makespan, completion);
  }
  double min_member_rate = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < static_cast<std::size_t>(r_last); ++k) {
    const double rate = static_cast<double>(member_count[k]) /
                        (member_end[k] - member_start[k]);
    result.throughput += rate;
    min_member_rate = std::min(min_member_rate, rate);
  }
  result.in_order_throughput = min_member_rate * static_cast<double>(r_last);
  result.mean_latency = latency_sum / static_cast<double>(latency_count);
  return result;
}

PipelineSimResult reference_pipeline(const Mapping& mapping,
                                     ExecutionModel model,
                                     const StochasticTiming& timing,
                                     Prng& prng,
                                     const PipelineSimOptions& options) {
  ReferenceTimes times;
  if (options.sampling == SamplingMode::kScalarCompat) {
    times.comp = [&](std::size_t i, std::int64_t n) {
      return timing.comp(round_robin(mapping.team(i), n))->sample(prng);
    };
    times.comm = [&](std::size_t i, std::int64_t n) {
      return timing
          .comm(round_robin(mapping.team(i), n),
                round_robin(mapping.team(i + 1), n))
          ->sample(prng);
    };
    return reference_pipeline_run(mapping, model, times, options);
  }
  const Prng root = prng;
  (void)prng();
  std::vector<std::size_t> offset;
  std::vector<BatchSampler> comp;
  std::size_t stream = 0;
  for (std::size_t i = 0; i < mapping.num_stages(); ++i) {
    offset.push_back(comp.size());
    for (const std::size_t p : mapping.team(i))
      comp.emplace_back(timing.comp(p), root.split(stream++),
                        options.refill_isa, kReferenceBlock);
  }
  std::vector<BufferedPrng> links;
  for (std::size_t i = 0; i + 1 < mapping.num_stages(); ++i)
    links.emplace_back(root.split(stream++), options.refill_isa,
                       kReferenceBlock);
  times.comp = [&](std::size_t i, std::int64_t n) {
    const auto member = static_cast<std::size_t>(
        n % static_cast<std::int64_t>(mapping.team(i).size()));
    return comp[offset[i] + member].next();
  };
  times.comm = [&](std::size_t i, std::int64_t n) {
    return timing
        .comm(round_robin(mapping.team(i), n),
              round_robin(mapping.team(i + 1), n))
        ->sample(links[i]);
  };
  return reference_pipeline_run(mapping, model, times, options);
}

PipelineSimResult reference_associated(const Mapping& mapping,
                                       ExecutionModel model,
                                       const Distribution& size_law,
                                       Prng& prng,
                                       const PipelineSimOptions& options,
                                       AssociationScope scope) {
  const DistributionPtr unit_law = size_law.with_mean(1.0);
  const std::size_t n_stages = mapping.num_stages();
  std::vector<double> work(n_stages, 1.0);
  std::vector<double> size(n_stages - 1, 1.0);
  std::vector<BatchSampler> slots;
  if (options.sampling == SamplingMode::kBatched) {
    const Prng root = prng;
    (void)prng();
    const std::size_t n_slots =
        scope == AssociationScope::kPerDataSet ? 1 : work.size() + size.size();
    for (std::size_t k = 0; k < n_slots; ++k)
      slots.emplace_back(unit_law, root.split(k), options.refill_isa,
                         kReferenceBlock);
  }
  std::int64_t drawn_for = -1;
  const auto refresh = [&](std::int64_t n) {
    if (drawn_for == n) return;
    drawn_for = n;
    std::size_t slot = 0;
    const auto draw = [&] {
      return slots.empty() ? unit_law->sample(prng) : slots[slot++].next();
    };
    if (scope == AssociationScope::kPerDataSet) {
      const double shared = draw();
      std::fill(work.begin(), work.end(), shared);
      std::fill(size.begin(), size.end(), shared);
      return;
    }
    for (double& w : work) w = draw();
    for (double& s : size) s = draw();
  };
  ReferenceTimes times;
  times.comp = [&](std::size_t i, std::int64_t n) {
    refresh(n);
    return work[i] * mapping.comp_time(round_robin(mapping.team(i), n));
  };
  times.comm = [&](std::size_t i, std::int64_t n) {
    refresh(n);
    return size[i] * mapping.comm_time(round_robin(mapping.team(i), n),
                                       round_robin(mapping.team(i + 1), n));
  };
  return reference_pipeline_run(mapping, model, times, options);
}

/// Five heterogeneous stages on consecutive teams of the given sizes, with
/// seeded works, file sizes, speeds and bandwidths.
Mapping layered_mapping(const std::vector<std::size_t>& sizes,
                        std::uint64_t seed) {
  Prng prng(seed);
  std::vector<double> works;
  std::vector<double> files;
  for (std::size_t i = 0; i < sizes.size(); ++i)
    works.push_back(1.0 + 3.0 * prng.uniform01());
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i)
    files.push_back(1.0 + prng.uniform01());
  std::size_t total = 0;
  std::vector<std::vector<std::size_t>> teams;
  for (const std::size_t size : sizes) {
    teams.emplace_back();
    for (std::size_t k = 0; k < size; ++k) teams.back().push_back(total++);
  }
  std::vector<double> speeds(total);
  for (double& speed : speeds) speed = 0.5 + 2.0 * prng.uniform01();
  Platform platform(speeds);
  for (std::size_t p = 0; p < total; ++p)
    for (std::size_t q = p + 1; q < total; ++q)
      platform.set_bandwidth(p, q, 0.5 + 2.0 * prng.uniform01());
  return Mapping(Application(works, files), platform, teams);
}

struct ReferenceCase {
  const char* name;
  Mapping mapping;
  /// TEG rounds to run: 100 give every case short, scalar-stepped blocks;
  /// 600 give the small case lane-filled ones.
  std::vector<std::int64_t> teg_rounds;
};

/// The 540-transition {2,4,3,5,2} instance of the replicated-simulation
/// benchmark and a small one (a 3-way team feeding a 2-way team).
std::vector<ReferenceCase> reference_cases() {
  std::vector<ReferenceCase> cases;
  cases.push_back({"2-4-3-5-2", layered_mapping({2, 4, 3, 5, 2}, 31), {100}});
  cases.push_back({"1-3-2", layered_mapping({1, 3, 2}, 7), {100, 600}});
  return cases;
}

/// The refill kernels a mode can use: every available one when batched;
/// scalar-compat draws from the injected Prng, so one pass covers it.
std::vector<simd::Isa> isas_for(SamplingMode mode) {
  return mode == SamplingMode::kBatched
             ? simd::available_isas()
             : std::vector<simd::Isa>{simd::Isa::kScalar};
}

std::string label(const ReferenceCase& c, ExecutionModel model,
                  SamplingMode mode, simd::Isa isa) {
  return std::string(c.name) + " " + to_string(model) + " " +
         (mode == SamplingMode::kBatched ? "batched " : "compat ") +
         simd::isa_name(isa);
}

TEST(ReferenceSim, TegRoundPlanMatchesGraphWalk) {
  const std::vector<ReferenceCase> cases = reference_cases();
  EXPECT_EQ(build_tpn(cases[0].mapping, ExecutionModel::kOverlap)
                .num_transitions(),
            540u);
  for (const ReferenceCase& c : cases) {
    const StochasticTiming timing =
        StochasticTiming::scaled(c.mapping, *make_gamma(2.0, 0.5));
    for (const ExecutionModel model :
         {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
      const TimedEventGraph graph = build_tpn(c.mapping, model);
      const std::vector<DistributionPtr> laws = transition_laws(graph, timing);
      for (const SamplingMode mode :
           {SamplingMode::kBatched, SamplingMode::kScalarCompat}) {
        for (const simd::Isa isa : isas_for(mode)) {
          for (const std::int64_t rounds : c.teg_rounds) {
            SCOPED_TRACE(label(c, model, mode, isa) + " rounds " +
                         std::to_string(rounds));
            TegSimOptions options;
            options.rounds = rounds;
            options.sampling = mode;
            options.refill_isa = isa;
            Prng prng(5);
            Prng reference_prng(5);
            const TegSimResult got = simulate_teg(graph, laws, prng, options);
            const TegSimResult want =
                reference_teg(graph, laws, reference_prng, options);
            EXPECT_EQ(got.throughput, want.throughput);
            EXPECT_EQ(got.in_order_throughput, want.in_order_throughput);
            EXPECT_EQ(got.horizon, want.horizon);
            EXPECT_EQ(prng.state(), reference_prng.state());
          }
        }
      }
    }
  }
}

void expect_same(const PipelineSimResult& got, const PipelineSimResult& want) {
  EXPECT_EQ(got.throughput, want.throughput);
  EXPECT_EQ(got.in_order_throughput, want.in_order_throughput);
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.mean_latency, want.mean_latency);
  EXPECT_EQ(got.max_latency, want.max_latency);
}

TEST(ReferenceSim, PipelineRecurrenceMatchesModuloForm) {
  for (const ReferenceCase& c : reference_cases()) {
    const StochasticTiming timing =
        StochasticTiming::scaled(c.mapping, *make_weibull(1.5, 1.0));
    for (const ExecutionModel model :
         {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
      for (const SamplingMode mode :
           {SamplingMode::kBatched, SamplingMode::kScalarCompat}) {
        for (const simd::Isa isa : isas_for(mode)) {
          // 200 data sets give short, scalar-stepped blocks; 2000 give
          // lane-filled ones.
          for (const std::int64_t data_sets : {200, 2000}) {
            SCOPED_TRACE(label(c, model, mode, isa) + " data sets " +
                         std::to_string(data_sets));
            PipelineSimOptions options;
            options.data_sets = data_sets;
            options.bandwidth_efficiency = 0.92;
            options.sampling = mode;
            options.refill_isa = isa;
            Prng prng(9);
            Prng reference_prng(9);
            expect_same(
                simulate_pipeline(c.mapping, model, timing, prng, options),
                reference_pipeline(c.mapping, model, timing, reference_prng,
                                   options));
            EXPECT_EQ(prng.state(), reference_prng.state());
          }
        }
      }
    }
  }
}

TEST(ReferenceSim, AssociatedPipelineMatchesModuloForm) {
  const DistributionPtr size_law = make_gamma(2.0, 1.0);
  for (const ReferenceCase& c : reference_cases()) {
    for (const AssociationScope scope :
         {AssociationScope::kPerDataSet, AssociationScope::kPerStage}) {
      for (const ExecutionModel model :
           {ExecutionModel::kOverlap, ExecutionModel::kStrict}) {
        for (const SamplingMode mode :
             {SamplingMode::kBatched, SamplingMode::kScalarCompat}) {
          SCOPED_TRACE(label(c, model, mode, simd::Isa::kAuto) +
                       (scope == AssociationScope::kPerStage ? " per-stage"
                                                             : " per-set"));
          PipelineSimOptions options;
          options.data_sets = 2000;
          options.sampling = mode;
          Prng prng(21);
          Prng reference_prng(21);
          expect_same(simulate_pipeline_associated(c.mapping, model,
                                                   *size_law, prng, options,
                                                   scope),
                      reference_associated(c.mapping, model, *size_law,
                                           reference_prng, options, scope));
          EXPECT_EQ(prng.state(), reference_prng.state());
        }
      }
    }
  }
}

}  // namespace
}  // namespace streamflow
