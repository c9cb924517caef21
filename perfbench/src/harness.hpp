// Shared machinery of the benchmark program: clocks, the percentile rule,
// the span tracer, the host block, the metric catalog and the result line.
//
// Every timing here is taken from outside the library: src/ has no clock
// (its wall-clock lint rule), so spans wrap the calls the benchmark makes
// into each module's public functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the monotonic clock.
double now_s();

/// One percentile of a sample, under the reporting rule: a percentile is
/// reported only when at least ten samples lie strictly beyond it
/// (nearest-rank definition), so p50 needs 20 samples and p99 needs 1000.
struct Percentile {
  double q = 0.0;
  double value = 0.0;
  std::size_t count = 0;   ///< sample count
  std::size_t beyond = 0;  ///< samples ranked above the percentile
  bool supported = false;  ///< beyond >= kMinBeyond
};
inline constexpr std::size_t kMinBeyond = 10;
/// Smallest sample count at which percentile `q` is reportable.
std::size_t min_samples_for(double q);
Percentile percentile(std::vector<double> samples, double q);
double median(std::vector<double> samples);
/// Cycles a measured pass runs at least.
inline constexpr std::size_t kMinCycles = 8;

/// Host gauge. The shared virtual hosts the benchmark runs on change speed
/// by tens of percent over tens of seconds as neighbours load the shared
/// caches and memory; the drift between two runs is as large as the one
/// within a run, so no statistic over a run can remove it. The gauge is a
/// fixed kernel of the benchmark's own (kGaugeReads dependent-free random
/// reads over an 8 MiB table, which slows with the caches the workloads
/// use), run right after every measured operation. An operation's
/// normalised time is its wall time x kGaugeNominalS / that gauge reading:
/// the time it would have taken on a host where the gauge takes
/// kGaugeNominalS. Code changes move normalised time as they move wall
/// time; the gauge does not depend on the library.
inline constexpr std::size_t kGaugeReads = 400'000;
inline constexpr double kGaugeNominalS = 0.003;
/// Runs the gauge once; returns its wall seconds.
double gauge_s();

/// The operations of a measured pass, in order, each with the gauge
/// reading taken right after it.
struct Timings {
  std::vector<double> work;   ///< work units of operation k
  std::vector<double> wall;   ///< wall seconds of operation k
  std::vector<double> gauge;  ///< gauge seconds right after operation k
  /// Records an operation and runs the gauge.
  void add(double op_work, double op_wall_s) {
    record(op_work, op_wall_s, gauge_s());
  }
  void record(double op_work, double op_wall_s, double gauge_wall_s) {
    work.push_back(op_work);
    wall.push_back(op_wall_s);
    gauge.push_back(gauge_wall_s);
  }
  double normalised(std::size_t k) const {
    return wall[k] * kGaugeNominalS / gauge[k];
  }
  /// Summed wall time of the operations (gauge runs excluded).
  double total_wall() const;
};

/// The end-to-end figures of a measured pass, in normalised time:
/// `ops_per_s` is total work over total normalised time, `p50` the median
/// normalised operation time under the percentile rule. Prints the same
/// figures in wall time and the gauge readings as detail lines.
struct Figures {
  double ops_per_s = 0.0;
  Percentile p50;
};
Figures normalised_figures(const Timings& timings, const char* work_label);
/// Mean of a sample; NaN for an empty one, so a figure nothing measured
/// fails the run (result_json) instead of reading as 0.
double mean(const std::vector<double>& samples);

/// Span recorder of the traced run. Spans are kept in memory (thread-safe
/// appends, so replications and restarts on worker threads can record) and
/// written out once the run ends.
class Tracer {
 public:
  struct Span {
    std::string layer;  ///< a src/ module name: core, markov, linalg, ...
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;      ///< index of the enclosing span, -1 for a root
    long request = -1;     ///< operation / request id the span belongs to
    std::size_t thread = 0;
  };

  /// Opens a span and returns its id.
  long begin(const std::string& layer, const std::string& name, long parent,
             long request);
  void end(long id);
  /// Records an already-measured span.
  long record(const std::string& layer, const std::string& name, double start,
              double end, long parent, long request);

  std::vector<Span> spans() const;

  /// Self time per layer: each span's duration minus the part of its
  /// interval covered by the union of its children's intervals.
  std::map<std::string, double> layer_self_seconds() const;
  /// Summed durations of every span with this (layer, name).
  double total_seconds(const std::string& layer, const std::string& name) const;
  /// Summed self times (duration minus the union of the children) of every
  /// span with this (layer, name).
  double self_seconds(const std::string& layer, const std::string& name) const;

  /// Chrome trace-event JSON (Perfetto / chrome://tracing).
  void write_chrome_json(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span: open for the lifetime of the object.
class Scope {
 public:
  Scope(Tracer& tracer, const char* layer, const char* name, long parent,
        long request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  long id_;
};

/// The layers of the library (src/ modules) a traced run attributes time
/// to. `fuzz` is a test harness and is not measured.
const std::vector<std::string>& layers();

/// std::thread::hardware_concurrency(), at least 1: the worker count of
/// the parallel workloads and the thread count of the host block.
std::size_t nproc();

/// Host block printed with every result, so scaling figures can be read
/// against the machine.
struct HostBlock {
  std::size_t nproc = 1;
  double spin_1_s = 0.0;       ///< fixed spin kernel on one thread
  double spin_n_s = 0.0;       ///< the same kernel on each of nproc threads
  double parallel_ceiling = 1.0;  ///< nproc * spin_1_s / spin_n_s
  std::string isa;
  std::string build_type;
  std::string compiler;
};
HostBlock measure_host();
std::string host_json(const HostBlock& host);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// One metric of BENCHMARK.json.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "higher" or "lower"
};
const std::vector<MetricSpec>& end_to_end_metrics();
/// The per-layer metrics of the gated workloads: every one of them is
/// measured by every traced run of analyze_mix and simulate_replicated.
const std::vector<MetricSpec>& per_layer_metrics();
/// Appends the metrics every traced run reports: share.<layer>,
/// share.unattributed, trace.overhead_s, trace.overhead_ratio, host.nproc
/// and host.parallel_ceiling.
void with_trace_accounting(std::vector<MetricSpec>& metrics);

/// The catalog as JSON: {"end_to_end": [...], "per_layer": [...]}, each
/// entry {"name", "unit", "better"} — what BENCHMARK.json must list.
std::string catalog_json();

/// Metric values of one run, keyed by name.
using Metrics = std::map<std::string, double>;

/// What one workload run produced.
struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;  ///< every check passed
  Metrics end_to_end;
  Metrics per_layer;
};

/// The result line: exactly {correct, attempted, failed, metrics}, where
/// metrics holds every metric of `catalog`, each with its unit. Throws
/// std::runtime_error when the run left a catalogued metric unset or
/// non-finite, so a broken layer fails the run instead of reading as a
/// number. Values outside the catalog are printed as `layer` detail lines.
std::string result_json(const Outcome& outcome, bool trace,
                        const std::vector<MetricSpec>& catalog);

/// Everything a workload needs from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference_path;  ///< stored reference values
  std::string out_dir;         ///< where the trace file is written
};

/// Shared accounting of a traced pass: per-layer shares of the untraced
/// wall time, the unattributed remainder and the tracing overhead.
/// `threads` is the worker count the workload runs on; shares are of the
/// thread-time available during the untraced pass (wall x threads).
void add_trace_accounting(const Tracer& tracer, double untraced_wall_s,
                          double traced_wall_s, std::size_t threads,
                          Metrics& per_layer);

/// Work counters of a traced pass, incremented where the benchmark makes
/// the call they count. A layer the pass never calls keeps its counters at
/// 0, which is then what was measured.
struct Tally {
  double transitions = 0;   ///< event-graph transitions built
  double patterns = 0;      ///< communication patterns decomposed
  double states = 0;        ///< CTMC states explored
  double edges = 0;         ///< CTMC edges explored
  double dense_solves = 0;  ///< stationary solves at or below dense_threshold
  double iter_solves = 0;   ///< stationary solves above it
  double closed_form = 0;   ///< Theorem 4 closed-form patterns
  double datasets = 0;      ///< simulated data sets
};

/// The span- and counter-based per-layer metrics of a gated workload's
/// traced pass: summed span durations by (layer, name), the core layer's
/// self time inside exponential analyses, and the tallies.
void add_layer_metrics(const Tracer& tracer, const Tally& tally,
                       Metrics& per_layer);

/// Keeps the host busy for `seconds` on the calling thread. Virtual CPUs
/// that were idle run slow for a moment after they wake up; set-up is
/// timed after this, so it does not measure the wake-up.
void wake_cpu(double seconds = 0.5);

/// Prints one human-readable detail line (standard output, before the
/// result line).
void note(const std::string& line);
/// Detail line for the set-up repeats: count, min, median, max.
std::string describe_setup(std::vector<double> seconds);
/// Detail line for a percentile, with its sample count.
std::string describe(const std::string& label, const Percentile& p);

/// Sets up a workload `repeats` times, each followed by the gauge, and
/// returns the median normalised duration; `setup` is called once per
/// repeat and must leave its result in place.
template <typename Fn>
double timed_setup(Fn&& setup, int repeats = 9) {
  wake_cpu();
  std::vector<double> times;
  std::vector<double> normalised;
  for (int r = 0; r < repeats; ++r) {
    const double t0 = now_s();
    setup();
    times.push_back(now_s() - t0);
    normalised.push_back(times.back() * kGaugeNominalS / gauge_s());
  }
  note(describe_setup(times));
  return median(normalised);
}

}  // namespace perfbench
