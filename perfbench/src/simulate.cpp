// simulate_replicated: R replications on one worker of both simulators
// (run_replicated_pipeline / run_replicated_teg), as CLI
// `simulate --replications R` does, over seeded 5-stage, 16-processor
// instances and laws of both sampler families.
//
// The traced pass runs the same experiments through the engine's
// ExperimentRunner with a replication body that calls the simulator and
// records one span per replication, so engine fan-out and simulator time
// separate; the replicated means must match the untraced run exactly.
#include <deque>
#include <optional>

#include "checks.hpp"
#include "common/prng.hpp"
#include "core/analyzer.hpp"
#include "dist/distribution.hpp"
#include "engine/sim_replication.hpp"
#include "inputs.hpp"
#include "tpn/builder.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

struct Op {
  std::size_t variant = 0;
  std::size_t case_index = 0;
};

/// Replications run on one worker: on a shared host the speed a parallel
/// pool gets swings too much between runs for a gate (see README.md).
constexpr std::size_t kThreads = 1;

/// The cases of one mix cycle, by index into simulate_cases(). Sorted by
/// cost the cases run exp pipeline < gauss pipeline < exp TEG < weibull
/// pipeline < gamma pipeline < gamma TEG; the exp TEG case (index 4) runs
/// three times, so the median run of a cycle (rank 4 of 8) falls inside
/// its cluster rather than on the edge between two cases.
constexpr std::size_t kCycle[] = {0, 4, 1, 3, 4, 2, 4, 5};

/// Successive mix cycles: the cases of kCycle, variants from one balanced
/// stream per case.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) {
    for (std::size_t k = 0; k < simulate_cases().size(); ++k) {
      streams_.emplace_back(seed, 200 + k);
    }
  }

  std::vector<Op> next_cycle() {
    std::vector<Op> ops;
    for (const std::size_t k : kCycle) ops.push_back(Op{streams_[k].next(), k});
    return ops;
  }

 private:
  std::vector<VariantStream> streams_;
};

/// One instance variant with everything its experiments need. Timings keep
/// a pointer to their mapping, so variants live in a deque (stable
/// addresses).
struct Variant {
  explicit Variant(std::size_t v)
      : mapping(simulate_instance(v)),
        graph(build_tpn(mapping, ExecutionModel::kOverlap)) {
    exp_analytic =
        exponential_throughput(mapping, ExecutionModel::kOverlap).throughput;
    det_analytic =
        deterministic_throughput(mapping, ExecutionModel::kOverlap).throughput;
    for (const SimulateCase& c : simulate_cases()) {
      const DistributionPtr law = parse_distribution(c.law);
      timings.push_back(StochasticTiming::scaled(mapping, *law));
      laws.push_back(transition_laws(graph, timings.back()));
    }
  }
  Mapping mapping;
  TimedEventGraph graph;
  double exp_analytic = 0.0;
  double det_analytic = 0.0;
  std::vector<StochasticTiming> timings;  // by case
  std::vector<std::vector<DistributionPtr>> laws;  // by case (TEG)
};

struct Prepared {
  std::deque<Variant> variants;
};

PipelineSimOptions pipeline_options() {
  PipelineSimOptions options;
  options.data_sets = kSimDataSets;
  return options;
}

TegSimOptions teg_options(const TimedEventGraph& graph) {
  TegSimOptions options;
  options.rounds = kSimDataSets / graph.num_rows();
  return options;
}

ExperimentOptions experiment(const Op& op, std::size_t threads) {
  ExperimentOptions options;
  options.replications = kSimReplications;
  options.threads = threads;
  options.seed = simulate_seed(op.variant, op.case_index);
  return options;
}

double datasets_of(const Variant& v, const Op& op) {
  const double per_replication =
      simulate_cases()[op.case_index].teg
          ? static_cast<double>(teg_options(v.graph).rounds * v.graph.num_rows())
          : static_cast<double>(kSimDataSets);
  return per_replication * static_cast<double>(kSimReplications);
}

ReplicatedResult run_op(const Variant& v, const Op& op, std::size_t threads) {
  if (simulate_cases()[op.case_index].teg) {
    return run_replicated_teg(v.graph, v.laws[op.case_index],
                              teg_options(v.graph), experiment(op, threads));
  }
  return run_replicated_pipeline(v.mapping, ExecutionModel::kOverlap,
                                 v.timings[op.case_index], pipeline_options(),
                                 experiment(op, threads));
}

/// The same experiment through ExperimentRunner with a timed body: one
/// span per replication under the engine span. Returns the mean
/// throughput.
double traced_op(const Variant& v, const Op& op, std::size_t threads,
                 Tracer& tracer, long request, std::vector<double>& seconds) {
  const bool teg = simulate_cases()[op.case_index].teg;
  const long root = tracer.begin("engine", "replicate", -1, request);
  seconds.assign(kSimReplications, 0.0);
  const ExperimentRunner runner(experiment(op, threads));
  const PipelineSimOptions pipeline = pipeline_options();
  const TegSimOptions teg_sim = teg_options(v.graph);
  const ReplicatedResult result = runner.run(
      {"throughput"}, [&](Prng& prng, std::size_t replication) {
        const double t0 = now_s();
        const double throughput =
            teg ? simulate_teg(v.graph, v.laws[op.case_index], prng, teg_sim)
                      .throughput
                : simulate_pipeline(v.mapping, ExecutionModel::kOverlap,
                                    v.timings[op.case_index], prng, pipeline)
                      .throughput;
        const double t1 = now_s();
        seconds[replication] = t1 - t0;
        tracer.record("sim", teg ? "teg" : "pipeline", t0, t1, root, request);
        return std::vector<double>{throughput};
      });
  tracer.end(root);
  return result.metric("throughput").mean;
}

Prepared prepare() {
  Prepared prepared;
  for (std::size_t v = 0; v < kVariants; ++v) prepared.variants.emplace_back(v);
  // Warm-up: one single-threaded replication of every case pays lazy
  // set-up (the refill kernels' jump tables) before the measured pass.
  const Variant& v = prepared.variants.front();
  ExperimentOptions warm;
  warm.replications = 1;
  warm.threads = 1;
  PipelineSimOptions pipeline;
  pipeline.data_sets = 20'000;
  TegSimOptions teg;
  teg.rounds = 20'000 / v.graph.num_rows();
  for (std::size_t k = 0; k < simulate_cases().size(); ++k) {
    if (simulate_cases()[k].teg) {
      (void)run_replicated_teg(v.graph, v.laws[k], teg, warm);
    } else {
      (void)run_replicated_pipeline(v.mapping, ExecutionModel::kOverlap,
                                    v.timings[k], pipeline, warm);
    }
  }
  return prepared;
}

}  // namespace

Outcome run_simulate(const RunConfig& config) {
  std::optional<Prepared> prepared;
  const double setup_s = timed_setup([&] { prepared.emplace(prepare()); });
  const std::vector<SimulateCase>& cases = simulate_cases();
  const std::size_t threads = kThreads;

  std::vector<Op> ops;
  std::vector<MetricSummary> results;  // throughput summary per op
  Timings timings;
  std::size_t cycles = 0;
  const std::size_t min_ops = 2 * min_samples_for(0.5);
  Mix mix(config.seed);
  const double start = now_s();
  for (;;) {
    const double elapsed = now_s() - start;
    if ((elapsed >= config.seconds && ops.size() >= min_ops &&
         cycles >= kMinCycles) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    for (const Op& op : mix.next_cycle()) {
      const Variant& v = prepared->variants[op.variant];
      const double t0 = now_s();
      results.push_back(run_op(v, op, threads).metric("throughput"));
      timings.add(datasets_of(v, op), now_s() - t0);
      ops.push_back(op);
    }
    ++cycles;
  }
  const double wall = timings.total_wall();

  Outcome outcome;
  outcome.attempted = ops.size();
  std::vector<bool> failed(ops.size(), false);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    const Variant& v = prepared->variants[ops[k].variant];
    const SimulateCase& c = cases[ops[k].case_index];
    const MetricSummary& throughput = results[k];
    const bool exponential_law = std::string(c.law).rfind("exp:", 0) == 0;
    if (!simulate_ok(throughput.mean, throughput.ci95_halfwidth, v.exp_analytic,
                     v.det_analytic, exponential_law,
                     v.timings[ops[k].case_index].all_nbue())) {
      failed[k] = true;
      note("check failed: simulate " + std::string(c.law) +
           (c.teg ? " teg" : " pipeline") + " variant " +
           std::to_string(ops[k].variant) + ": mean " +
           std::to_string(throughput.mean) + " +- " +
           std::to_string(throughput.ci95_halfwidth) + ", analytic exp " +
           std::to_string(v.exp_analytic) + ", det " +
           std::to_string(v.det_analytic));
    }
  }

  const Figures figures = normalised_figures(timings, "data sets/s");
  outcome.end_to_end["ops_per_s"] = figures.ops_per_s;
  outcome.end_to_end["p50_ms"] = figures.p50.value * 1e3;
  outcome.end_to_end["setup_s"] = setup_s;
  outcome.end_to_end["peak_rss_mb"] = peak_rss_mb();

  if (config.trace) {
    Tracer tracer;
    Tally tally;
    std::vector<double> imbalance;
    double busy = 0.0;
    const double traced_start = now_s();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Variant& v = prepared->variants[ops[k].variant];
      std::vector<double> seconds;
      const double mean_throughput = traced_op(v, ops[k], threads, tracer,
                                               static_cast<long>(k), seconds);
      if (mean_throughput != results[k].mean) {
        failed[k] = true;
        note("traced replay diverged from the untraced experiment on op " +
             std::to_string(k));
      }
      double sum = 0.0;
      double max = 0.0;
      for (double s : seconds) {
        sum += s;
        max = std::max(max, s);
      }
      busy += sum;
      imbalance.push_back(max / (sum / static_cast<double>(seconds.size())));
      tally.datasets += datasets_of(v, ops[k]);
    }
    const double traced_wall = now_s() - traced_start;

    Metrics& m = outcome.per_layer;
    add_layer_metrics(tracer, tally, m);
    add_trace_accounting(tracer, wall, traced_wall, threads, m);
    add_layer_probes(config.seed, m);
    // Engine figures: detail lines (with one worker the pool's efficiency
    // says nothing).
    m["engine.replication_busy_s"] = busy;
    m["engine.replication_imbalance"] = mean(imbalance);
    tracer.write_chrome_json(config.out_dir + "/trace_simulate_replicated.json");
  }
  for (bool f : failed) outcome.failed += f ? 1 : 0;
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace perfbench
