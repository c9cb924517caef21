// search_portfolio: parallel_optimize_mapping with greedy restarts at
// threads = nproc, exponential objective, max-plus pruning and a fresh
// shared PatternStore per search, as CLI `search --prune maxplus
// --shared-store` does.
//
// The traced pass re-runs each portfolio from outside the engine: starts
// drawn serially exactly as the sequential-compat seeding draws them, then
// restarts claimed by nproc workers — one warm AnalysisContext per worker,
// all attached to one store — through the public single-restart API, with
// one span per restart. The serial in-order reduction must reproduce the
// untraced score.
#include <atomic>
#include <cmath>
#include <exception>
#include <optional>

#include "checks.hpp"
#include "common/prng.hpp"
#include "core/analysis_context.hpp"
#include "core/pattern_store.hpp"
#include "engine/parallel_search.hpp"
#include "engine/thread_pool.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

struct Op {
  std::size_t cls = 0;
  std::size_t variant = 0;
};

/// Successive mix cycles: per_cycle searches of each class, variants from
/// one balanced stream per class.
class Mix {
 public:
  explicit Mix(std::uint64_t seed) {
    for (std::size_t k = 0; k < search_classes().size(); ++k) {
      streams_.emplace_back(seed, 100 + k);
    }
  }

  std::vector<Op> next_cycle() {
    std::vector<Op> ops;
    const std::vector<SearchClass>& classes = search_classes();
    for (std::size_t k = 0; k < classes.size(); ++k) {
      for (std::size_t r = 0; r < classes[k].per_cycle; ++r) {
        ops.push_back(Op{k, streams_[k].next()});
      }
    }
    return ops;
  }

 private:
  std::vector<VariantStream> streams_;
};

ParallelSearchResult run_portfolio(const Mapping& instance,
                                   const MappingSearchOptions& search,
                                   std::size_t threads) {
  PatternStore store;
  ParallelSearchOptions options;
  options.search = search;
  options.threads = threads;
  options.pattern_store = &store;
  return parallel_optimize_mapping(instance.instance(), options);
}

std::size_t probes_of(const ParallelSearchResult& r) {
  return r.moves_solved + r.moves_pruned_mct + r.moves_pruned_maxplus;
}

/// What the traced replay of one portfolio produced.
struct Replay {
  double score = 0.0;
  std::size_t probes = 0;
  std::size_t solved = 0;
  std::size_t pruned_mct = 0;
  std::size_t pruned_maxplus = 0;
  std::size_t pattern_requests = 0;
  PatternStoreStats store;
  std::vector<double> restart_seconds;
};

Replay traced_portfolio(const Mapping& mapping,
                        const MappingSearchOptions& search,
                        std::size_t workers, Tracer& tracer, long op) {
  const InstancePtr& instance = mapping.instance();
  const long root = tracer.begin("engine", "portfolio", -1, op);
  validate_mapping_search(instance, search);
  const std::size_t restarts = std::max<std::size_t>(search.restarts, 1);
  std::vector<StageAssignment> starts;
  Prng base(search.seed);
  for (std::size_t k = 1; k < restarts; ++k) {
    starts.push_back(draw_restart_assignment(instance->application,
                                             instance->platform, base));
  }
  PatternStore store;
  std::vector<RestartResult> rows(restarts);
  std::vector<double> seconds(restarts, 0.0);
  std::vector<std::exception_ptr> errors(restarts);
  std::atomic<std::size_t> next{0};
  const std::size_t threads = std::min(workers, restarts);
  {
    ThreadPool pool(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.submit([&] {
        AnalysisContext context;
        context.set_pattern_store(&store);
        for (;;) {
          const std::size_t k = next.fetch_add(1);
          if (k >= restarts) return;
          const double t0 = now_s();
          try {
            rows[k] = k == 0 ? run_greedy_restart(instance, search, context)
                             : run_random_restart(instance, starts[k - 1],
                                                  search, context);
          } catch (...) {
            errors[k] = std::current_exception();
          }
          const double t1 = now_s();
          seconds[k] = t1 - t0;
          tracer.record("core", "restart", t0, t1, root, op);
        }
      });
    }
    pool.wait();
  }
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  std::size_t best = 0;
  Replay replay;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (k > 0 && rows[k].feasible && rows[k].score > rows[best].score) best = k;
    replay.solved += rows[k].moves_solved;
    replay.pruned_mct += rows[k].moves_pruned_mct;
    replay.pruned_maxplus += rows[k].moves_pruned_maxplus;
    replay.pattern_requests += rows[k].pattern_requests;
  }
  tracer.end(root);
  replay.score = rows[best].score;
  replay.probes = replay.solved + replay.pruned_mct + replay.pruned_maxplus;
  replay.store = store.stats();
  replay.restart_seconds = std::move(seconds);
  return replay;
}

/// The migrate/swap neighbourhood of a base mapping, bounded on large
/// platforms: migrations of the first 16 processors to every stage (or
/// off the mapping) and swaps among the first 16.
std::vector<MappingMove> neighbourhood(const Mapping& base) {
  const std::size_t n = base.num_stages();
  const std::size_t limit = std::min<std::size_t>(base.num_processors(), 16);
  std::vector<MappingMove> moves;
  for (std::size_t p = 0; p < limit; ++p) {
    for (std::size_t i = 0; i <= n; ++i) {
      const std::size_t target = i == n ? Mapping::kUnused : i;
      if (target != base.stage_of(p)) {
        moves.push_back(MappingMove::migrate(p, target));
      }
    }
  }
  for (std::size_t p = 0; p < limit; ++p) {
    for (std::size_t q = p + 1; q < limit; ++q) {
      if (base.stage_of(p) != base.stage_of(q)) {
        moves.push_back(MappingMove::swap(p, q));
      }
    }
  }
  return moves;
}

/// Per-outcome probe costs: replays the neighbourhood of a searched
/// mapping through AnalysisContext::probe_move with the base score as the
/// adoption threshold (one warm-up pass, then a timed pass), and times the
/// tier-2 screen — deterministic_throughput of each feasible candidate.
struct ProbeCosts {
  std::vector<double> solved_us;
  std::vector<double> pruned_mct_us;
  std::vector<double> pruned_maxplus_us;
  std::vector<double> screen_us;
};

void probe_costs(const Mapping& base, const MappingSearchOptions& search,
                 ProbeCosts& costs) {
  AnalysisContext context;
  const double threshold = context.set_base(base, search);
  const std::vector<MappingMove> moves = neighbourhood(base);
  for (const MappingMove& move : moves) (void)context.probe_move(move, threshold);
  for (const MappingMove& move : moves) {
    const AnalysisCacheStats before = context.stats();
    const double t0 = now_s();
    const AnalysisContext::MoveProbe probe = context.probe_move(move, threshold);
    const double us = (now_s() - t0) * 1e6;
    const AnalysisCacheStats& after = context.stats();
    if (probe.outcome == AnalysisContext::MoveProbe::Outcome::kScored) {
      costs.solved_us.push_back(us);
    } else if (after.moves_pruned_maxplus > before.moves_pruned_maxplus) {
      costs.pruned_maxplus_us.push_back(us);
    } else if (after.moves_pruned_mct > before.moves_pruned_mct) {
      costs.pruned_mct_us.push_back(us);
    }
  }
  const InstancePtr& instance = base.instance();
  StageAssignment assignment(base.num_processors());
  for (std::size_t p = 0; p < assignment.size(); ++p) {
    assignment[p] = base.stage_of(p);
  }
  for (const MappingMove& move : moves) {
    StageAssignment candidate = assignment;
    if (move.kind == MappingMove::Kind::kMigrate) {
      candidate[move.p] = move.target;
    } else {
      std::swap(candidate[move.p], candidate[move.q]);
    }
    const std::optional<Mapping> mapping =
        realize_assignment(instance, candidate, search.max_paths);
    if (!mapping) continue;
    const double t0 = now_s();
    (void)deterministic_throughput(*mapping, search.model);
    costs.screen_us.push_back((now_s() - t0) * 1e6);
  }
}

struct Prepared {
  std::vector<std::vector<Mapping>> instances;  // [class][variant]
};

Prepared prepare() {
  Prepared prepared;
  for (std::size_t c = 0; c < search_classes().size(); ++c) {
    std::vector<Mapping> variants;
    for (std::size_t v = 0; v < kVariants; ++v) {
      variants.push_back(search_instance(c, v));
    }
    prepared.instances.push_back(std::move(variants));
  }
  // Warm-up: a one-restart, one-thread search of each class pays the
  // process's first-call costs.
  for (std::size_t c = 0; c < search_classes().size(); ++c) {
    MappingSearchOptions warm = search_options(c);
    warm.restarts = 1;
    (void)run_portfolio(prepared.instances[c][0], warm, 1);
  }
  return prepared;
}

}  // namespace

const std::vector<MetricSpec>& search_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m{
        {"core.probes", "count", "higher"},
        {"core.moves_solved", "count", "lower"},
        {"core.pruned_mct", "count", "higher"},
        {"core.pruned_maxplus", "count", "higher"},
        {"core.prune_rate", "ratio", "higher"},
        {"core.pattern_requests", "count", "lower"},
        {"core.store_hit_rate", "ratio", "higher"},
        {"core.probe_solved_us", "us", "lower"},
        {"core.probe_pruned_mct_us", "us", "lower"},
        {"core.probe_pruned_maxplus_us", "us", "lower"},
        {"maxplus.screen_us", "us", "lower"},
        {"engine.search_speedup", "ratio", "higher"},
        {"engine.parallel_efficiency", "ratio", "higher"},
        {"engine.restart_busy_s", "s", "lower"},
        {"engine.restart_imbalance", "ratio", "lower"},
    };
    with_trace_accounting(m);
    return m;
  }();
  return kMetrics;
}

void search_reference(Reference& reference) {
  for (std::size_t c = 0; c < search_classes().size(); ++c) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      const ParallelSearchResult r =
          run_portfolio(search_instance(c, v), search_options(c), nproc());
      reference.set("search", search_classes()[c].name, v, r.throughput);
    }
  }
}

Outcome run_search(const RunConfig& config) {
  const Reference reference = Reference::load(config.reference_path);
  std::optional<Prepared> prepared;
  const double setup_s = timed_setup([&] { prepared.emplace(prepare()); });
  const std::vector<SearchClass>& classes = search_classes();
  const std::size_t threads = nproc();

  std::vector<Op> ops;
  std::vector<ParallelSearchResult> results;
  Timings timings;
  std::size_t cycles = 0;
  const std::size_t min_ops = 2 * min_samples_for(0.5);
  Mix mix(config.seed);
  std::size_t first_cycle = 0;
  const double start = now_s();
  for (;;) {
    const double elapsed = now_s() - start;
    if ((elapsed >= config.seconds && ops.size() >= min_ops &&
         cycles >= kMinCycles) ||
        elapsed >= kMaxMeasureSeconds) {
      break;
    }
    const std::vector<Op> cycle = mix.next_cycle();
    if (first_cycle == 0) first_cycle = cycle.size();
    for (const Op& op : cycle) {
      const double t0 = now_s();
      results.push_back(run_portfolio(prepared->instances[op.cls][op.variant],
                                      search_options(op.cls),
                                      threads));
      timings.add(static_cast<double>(probes_of(results.back())),
                  now_s() - t0);
      // Keep per-op memory flat: the per-restart rows are not needed.
      std::vector<RestartResult>().swap(results.back().trace);
      ops.push_back(op);
    }
    ++cycles;
  }
  const double wall = timings.total_wall();
  const std::vector<double>& latencies = timings.wall;

  Outcome outcome;
  outcome.attempted = ops.size();
  std::vector<bool> failed(ops.size(), false);
  for (std::size_t k = 0; k < ops.size(); ++k) {
    double ref_score = 0.0;
    double unused = 0.0;
    const char* name = classes[ops[k].cls].name;
    if (!reference.find("search", name, ops[k].variant, ref_score, unused) ||
        !search_ok(results[k].throughput, ref_score)) {
      failed[k] = true;
      note("check failed: search " + std::string(name) + " variant " +
           std::to_string(ops[k].variant) + " score below the reference");
    }
  }
  // The first cycle again at one thread: the result must not depend on the
  // thread count. Its timings give the portfolio's speed-up.
  double serial_s = 0.0;
  double parallel_s = 0.0;
  for (std::size_t k = 0; k < first_cycle && k < ops.size(); ++k) {
    const double t0 = now_s();
    const ParallelSearchResult serial =
        run_portfolio(prepared->instances[ops[k].cls][ops[k].variant],
                      search_options(ops[k].cls), 1);
    serial_s += now_s() - t0;
    parallel_s += latencies[k];
    if (serial.throughput != results[k].throughput ||
        serial.evaluations != results[k].evaluations ||
        serial.best_restart != results[k].best_restart) {
      failed[k] = true;
      note("check failed: search result differs between 1 and " +
           std::to_string(threads) + " threads on op " + std::to_string(k));
    }
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    for (std::size_t v = 0; v < kVariants; ++v) {
      std::vector<double> of_variant;
      for (std::size_t k = 0; k < ops.size(); ++k) {
        if (ops[k].cls == c && ops[k].variant == v) of_variant.push_back(latencies[k]);
      }
      if (!of_variant.empty()) {
        note(std::string("search ") + classes[c].name + " variant " +
             std::to_string(v) + ": median " +
             std::to_string(median(of_variant) * 1e3) + " ms over " +
             std::to_string(of_variant.size()));
      }
    }
  }
  note(describe("search latency, wall", percentile(latencies, 0.75)));
  const Figures figures = normalised_figures(timings, "probes/s");
  outcome.end_to_end["ops_per_s"] = figures.ops_per_s;
  outcome.end_to_end["p50_ms"] = figures.p50.value * 1e3;
  outcome.end_to_end["setup_s"] = setup_s;
  outcome.end_to_end["peak_rss_mb"] = peak_rss_mb();

  if (config.trace) {
    Tracer tracer;
    Replay total;
    std::vector<double> busy;
    std::vector<double> imbalance;
    std::size_t store_hits = 0;
    std::size_t store_lookups = 0;
    const double traced_start = now_s();
    for (std::size_t k = 0; k < ops.size(); ++k) {
      const Replay replay = traced_portfolio(
          prepared->instances[ops[k].cls][ops[k].variant],
          search_options(ops[k].cls), threads, tracer,
          static_cast<long>(k));
      if (!within_relative(replay.score, results[k].throughput,
                           kSearchRelTol) ||
          replay.probes != probes_of(results[k])) {
        failed[k] = true;
        note("traced replay diverged from the untraced search on op " +
             std::to_string(k));
      }
      total.probes += replay.probes;
      total.solved += replay.solved;
      total.pruned_mct += replay.pruned_mct;
      total.pruned_maxplus += replay.pruned_maxplus;
      total.pattern_requests += replay.pattern_requests;
      store_hits += replay.store.hits;
      store_lookups += replay.store.hits + replay.store.misses;
      double sum = 0.0;
      double max = 0.0;
      for (double s : replay.restart_seconds) {
        sum += s;
        max = std::max(max, s);
      }
      busy.push_back(sum);
      imbalance.push_back(
          max / (sum / static_cast<double>(replay.restart_seconds.size())));
    }
    const double traced_wall = now_s() - traced_start;

    ProbeCosts costs;
    for (std::size_t k = 0; k < first_cycle && k < ops.size(); ++k) {
      if (k > 0 && ops[k].cls == ops[k - 1].cls) continue;
      probe_costs(results[k].mapping, search_options(ops[k].cls),
                  costs);
    }

    Metrics& m = outcome.per_layer;
    const double probes_total = static_cast<double>(total.probes);
    m["core.probes"] = probes_total;
    m["core.moves_solved"] = static_cast<double>(total.solved);
    m["core.pruned_mct"] = static_cast<double>(total.pruned_mct);
    m["core.pruned_maxplus"] = static_cast<double>(total.pruned_maxplus);
    m["core.prune_rate"] =
        probes_total > 0
            ? static_cast<double>(total.pruned_mct + total.pruned_maxplus) /
                  probes_total
            : std::nan("");
    m["core.pattern_requests"] = static_cast<double>(total.pattern_requests);
    m["core.store_hit_rate"] =
        store_lookups > 0 ? static_cast<double>(store_hits) /
                                static_cast<double>(store_lookups)
                          : std::nan("");
    m["core.probe_solved_us"] = mean(costs.solved_us);
    m["core.probe_pruned_mct_us"] = mean(costs.pruned_mct_us);
    m["core.probe_pruned_maxplus_us"] = mean(costs.pruned_maxplus_us);
    m["maxplus.screen_us"] = mean(costs.screen_us);
    m["engine.search_speedup"] =
        parallel_s > 0 ? serial_s / parallel_s : std::nan("");
    m["engine.parallel_efficiency"] =
        m["engine.search_speedup"] / static_cast<double>(threads);
    double busy_total = 0.0;
    for (double b : busy) busy_total += b;
    m["engine.restart_busy_s"] = busy_total;
    m["engine.restart_imbalance"] = mean(imbalance);
    add_trace_accounting(tracer, wall, traced_wall, threads, m);
    tracer.write_chrome_json(config.out_dir + "/trace_search_portfolio.json");
  }
  for (bool f : failed) outcome.failed += f ? 1 : 0;
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace perfbench
