// analyze_mix: one thread, cold analyses — deterministic_throughput plus
// exponential throughput on a fresh context, as CLI and serve `analyze` do.
//
// The traced pass replays each analysis through the public functions of
// every layer (tpn → markov → stationary solve, young's closed form,
// maxplus) and hands the solved pattern rates to a fresh PatternStore, so
// that the final store-backed AnalysisContext::exponential call is left
// with the core work alone: decomposition, store lookups and the flow
// recursion.
#include <algorithm>
#include <optional>

#include "checks.hpp"
#include "core/analysis_context.hpp"
#include "core/pattern_store.hpp"
#include "inputs.hpp"
#include "markov/throughput.hpp"
#include "tpn/builder.hpp"
#include "tpn/columns.hpp"
#include "workloads.hpp"
#include "young/pattern_analysis.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

struct Op {
  std::size_t cls = 0;
  std::size_t variant = 0;
};

struct Answer {
  double det = 0.0;
  double exp = 0.0;
};

/// Successive mix cycles: classes interleaved, each class drawing its
/// variants from its own balanced stream.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) {
    for (std::size_t k = 0; k < analyze_classes().size(); ++k) {
      streams_.emplace_back(seed, k);
    }
  }

  std::vector<Op> next_cycle() {
    const std::vector<AnalyzeClass>& classes = analyze_classes();
    std::vector<std::size_t> left;
    std::size_t count = 0;
    for (const AnalyzeClass& c : classes) {
      left.push_back(c.per_cycle);
      count += c.per_cycle;
    }
    std::vector<Op> ops;
    while (ops.size() < count) {
      for (std::size_t k = 0; k < classes.size(); ++k) {
        if (left[k] == 0) continue;
        --left[k];
        ops.push_back(Op{k, streams_[k].next()});
      }
    }
    return ops;
  }

 private:
  std::vector<VariantStream> streams_;
};

Answer analyze(const Mapping& mapping, const AnalyzeClass& c) {
  Answer answer;
  answer.det = deterministic_throughput(mapping, c.model).throughput;
  AnalysisContext context(analyze_options(c));
  answer.exp = context.exponential(mapping, c.model).throughput;
  return answer;
}

/// Theorem 2's chain of one event graph through markov/throughput's public
/// entry points: explore_markings, then the stationary_frequencies
/// overload that reuses the explored chain (the dense-or-iterative
/// dispatch is the library's own). The solve is timed as linalg.dense or
/// linalg.iter by the chain's size against dense_threshold.
std::vector<double> solve_chain(const TimedEventGraph& graph,
                                const std::vector<double>& rates,
                                const GeneralMethodOptions& method,
                                Tracer& tracer, long parent, long op,
                                Tally& tally) {
  TpnMarkovChain chain;
  {
    Scope span(tracer, "markov", "reach", parent, op);
    chain = explore_markings(graph, rates, method.reachability);
  }
  tally.states += static_cast<double>(chain.num_states);
  tally.edges += static_cast<double>(chain.edges.size());
  const bool dense = chain.num_states <= method.dense_threshold;
  (dense ? tally.dense_solves : tally.iter_solves) += 1;
  Scope span(tracer, "linalg", dense ? "dense" : "iter", parent, op);
  return stationary_frequencies(graph, chain, rates, method);
}

/// The traced replay of analyze(): one span per layer call. The general
/// CTMC path makes the same calls as the library's and gives the same
/// answer bit for bit; the column path sums a pattern's stationary
/// frequencies per transition where saturated_flow sums them per edge.
Answer traced_analyze(const Mapping& mapping, const AnalyzeClass& c,
                      Tracer& tracer, long op, Tally& tally) {
  const ExponentialOptions options = analyze_options(c);
  Answer answer;
  const long root = tracer.begin("core", "analyze", -1, op);
  {
    Scope span(tracer, "maxplus", "det", root, op);
    answer.det = deterministic_throughput(mapping, c.model).throughput;
  }
  const long exp_span = tracer.begin("core", "exponential", root, op);
  GeneralMethodOptions method;
  method.reachability.max_states = options.max_states;
  if (c.method == ExponentialMethod::kColumns) {
    PatternStore store;
    for (std::size_t f = 0; f + 1 < mapping.num_stages(); ++f) {
      std::vector<CommPattern> patterns;
      {
        Scope span(tracer, "tpn", "columns", exp_span, op);
        patterns = comm_patterns(mapping, f);
      }
      tally.patterns += static_cast<double>(patterns.size());
      for (const CommPattern& pattern : patterns) {
        if (pattern.homogeneous()) {
          Scope span(tracer, "young", "closed_form", exp_span, op);
          (void)pattern_flow_exponential_homogeneous(
              pattern.u, pattern.v, 1.0 / pattern.durations.front());
          tally.closed_form += 1;
          continue;
        }
        const PatternSignature signature = pattern_signature(pattern);
        if (store.lookup(signature)) continue;
        const long build = tracer.begin("tpn", "build", exp_span, op);
        const TimedEventGraph graph = build_pattern_teg(pattern);
        tracer.end(build);
        tally.transitions += static_cast<double>(graph.num_transitions());
        const std::vector<double> rates = rates_from_durations(graph);
        double flow = 0.0;
        for (double f : solve_chain(graph, rates, method, tracer, exp_span, op,
                                    tally)) {
          flow += f;
        }
        store.publish(signature, flow);
      }
    }
    // Every heterogeneous pattern is now a store hit: what remains of this
    // call is the core layer's own work.
    AnalysisContext context(options);
    context.set_pattern_store(&store);
    answer.exp = context.exponential(mapping, c.model).throughput;
  } else {
    TpnBuildOptions build;
    build.max_rows = options.max_rows;
    const long build_span = tracer.begin("tpn", "build", exp_span, op);
    const TimedEventGraph graph = build_tpn(mapping, c.model, build);
    tracer.end(build_span);
    tally.transitions += static_cast<double>(graph.num_transitions());
    const std::vector<double> rates = rates_from_durations(graph);
    method.reachability.place_capacity = options.place_capacity;
    const std::vector<double> freq =
        solve_chain(graph, rates, method, tracer, exp_span, op, tally);
    for (const std::size_t t : graph.last_column_transitions()) {
      answer.exp += freq[t];
    }
  }
  tracer.end(exp_span);
  tracer.end(root);
  return answer;
}

struct Prepared {
  std::vector<std::vector<Mapping>> instances;  // [class][variant]
};

Prepared prepare() {
  Prepared prepared;
  for (const AnalyzeClass& c : analyze_classes()) {
    std::vector<Mapping> variants;
    for (std::size_t v = 0; v < kVariants; ++v) {
      variants.push_back(analyze_instance(c, v));
    }
    prepared.instances.push_back(std::move(variants));
  }
  // Warm-up: one cold analysis of each pattern-chain class pays the
  // process's first-call costs (and gives set-up enough fixed work to be
  // timed steadily).
  for (std::size_t k = 0; k < 3; ++k) {
    (void)analyze(prepared.instances[k][0], analyze_classes()[k]);
  }
  return prepared;
}

}  // namespace

void analyze_reference(Reference& reference) {
  const std::vector<AnalyzeClass>& classes = analyze_classes();
  for (const AnalyzeClass& c : classes) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      const Answer answer = analyze(analyze_instance(c, v), c);
      reference.set("analyze", c.name, v, answer.det, answer.exp);
    }
  }
}

Outcome run_analyze(const RunConfig& config) {
  const Reference reference = Reference::load(config.reference_path);
  std::optional<Prepared> prepared;
  const double setup_s = timed_setup([&] { prepared.emplace(prepare()); });
  const std::vector<AnalyzeClass>& classes = analyze_classes();

  // Untraced measured pass: whole cycles until the time is up.
  std::vector<Op> ops;
  std::vector<Answer> answers;
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
      const double t0 = now_s();
      answers.push_back(
          analyze(prepared->instances[op.cls][op.variant], classes[op.cls]));
      timings.add(1.0, now_s() - t0);
      ops.push_back(op);
    }
    ++cycles;
  }
  const double wall = timings.total_wall();

  Outcome outcome;
  outcome.attempted = ops.size();
  std::vector<bool> failed(ops.size(), false);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    double ref_det = 0.0;
    double ref_exp = 0.0;
    const AnalyzeClass& c = classes[ops[k].cls];
    if (!reference.find("analyze", c.name, ops[k].variant, ref_det, ref_exp) ||
        !analyze_ok(answers[k].det, answers[k].exp, ref_det, ref_exp)) {
      failed[k] = true;
      note("check failed: analyze " + std::string(c.name) + " variant " +
           std::to_string(ops[k].variant));
    }
  }
  note(describe("analyze latency, wall", percentile(timings.wall, 0.9)));
  const Figures figures = normalised_figures(timings, "analyses/s");
  outcome.end_to_end["ops_per_s"] = figures.ops_per_s;
  outcome.end_to_end["p50_ms"] = figures.p50.value * 1e3;
  outcome.end_to_end["setup_s"] = setup_s;
  outcome.end_to_end["peak_rss_mb"] = peak_rss_mb();

  if (config.trace) {
    Tracer tracer;
    Tally tally;
    const double traced_start = now_s();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const AnalyzeClass& c = classes[ops[k].cls];
      const Answer traced =
          traced_analyze(prepared->instances[ops[k].cls][ops[k].variant], c,
                         tracer, static_cast<long>(k), tally);
      // Exact where the replay makes the library's own calls; the column
      // path differs from saturated_flow in summation order only.
      const double exp_tol =
          c.method == ExponentialMethod::kColumns ? kReplayRelTol : 0.0;
      if (traced.det != answers[k].det ||
          !within_relative(traced.exp, answers[k].exp, exp_tol)) {
        failed[k] = true;
        note("traced replay diverged from the untraced answer on op " +
             std::to_string(k));
      }
    }
    const double traced_wall = now_s() - traced_start;
    Metrics& m = outcome.per_layer;
    add_layer_metrics(tracer, tally, m);
    add_trace_accounting(tracer, wall, traced_wall, 1, m);
    add_layer_probes(config.seed, m);
    tracer.write_chrome_json(config.out_dir + "/trace_analyze_mix.json");
  }
  for (bool f : failed) outcome.failed += f ? 1 : 0;
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace perfbench
