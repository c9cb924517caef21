#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/simd_fill.hpp"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t min_samples_for(double q) {
  // Smallest n with n - ceil(q n) >= kMinBeyond.
  std::size_t n = kMinBeyond;
  while (n - static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))) <
         kMinBeyond) {
    ++n;
  }
  return n;
}

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.q = q;
  p.count = samples.size();
  if (samples.empty()) return p;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q n samples at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  p.value = samples[rank - 1];
  p.beyond = samples.size() - rank;
  p.supported = p.beyond >= kMinBeyond;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double gauge_s() {
  // The table and the generator state persist, so every reading does the
  // same work on a table that is already mapped.
  static std::vector<double> table(std::size_t{1} << 20, 1.0);
  static std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  const std::size_t mask = table.size() - 1;
  double sum = 0.0;
  const double t0 = now_s();
  for (std::size_t i = 0; i < kGaugeReads; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    sum += table[state & mask];
  }
  const double t1 = now_s();
  volatile double sink = sum;
  (void)sink;
  return t1 - t0;
}

double Timings::total_wall() const {
  double total = 0.0;
  for (double s : wall) total += s;
  return total;
}

Figures normalised_figures(const Timings& timings, const char* work_label) {
  Figures figures;
  double work = 0.0;
  double normalised_total = 0.0;
  std::vector<double> normalised;
  for (std::size_t k = 0; k < timings.wall.size(); ++k) {
    work += timings.work[k];
    normalised.push_back(timings.normalised(k));
    normalised_total += normalised.back();
  }
  figures.ops_per_s = work / normalised_total;
  figures.p50 = percentile(normalised, 0.5);

  std::vector<double> gauge = timings.gauge;
  std::sort(gauge.begin(), gauge.end());
  char buffer[320];
  std::snprintf(buffer, sizeof(buffer),
                "%s: %.6g normalised, %.6g wall; gauge %.4g ms median "
                "(min %.4g, max %.4g) over %zu readings",
                work_label, figures.ops_per_s, work / timings.total_wall(),
                median(gauge) * 1e3, gauge.front() * 1e3, gauge.back() * 1e3,
                gauge.size());
  note(buffer);
  note(describe("operation time, wall", percentile(timings.wall, 0.5)));
  note(describe("operation time, normalised", figures.p50));
  return figures;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::nan("");
  double sum = 0.0;
  for (double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

// ---- Tracer -----------------------------------------------------------------

namespace {

std::size_t thread_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t index = next.fetch_add(1);
  return index;
}

}  // namespace

long Tracer::begin(const std::string& layer, const std::string& name,
                   long parent, long request) {
  const double start = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, name, start, start, parent, request,
                        thread_index()});
  return static_cast<long>(spans_.size()) - 1;
}

void Tracer::end(long id) {
  const double end = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

long Tracer::record(const std::string& layer, const std::string& name,
                    double start, double end, long parent, long request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{layer, name, start, end, parent, request,
                        thread_index()});
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

namespace {

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals.
std::vector<double> span_self_seconds(const std::vector<Tracer::Span>& all) {
  std::vector<std::vector<std::size_t>> children(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].parent >= 0) {
      children[static_cast<std::size_t>(all[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(all.size(), 0.0);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Tracer::Span& span = all[i];
    // Children may overlap (replications and restarts run on worker
    // threads), so subtract the union of their intervals, clipped to the
    // parent.
    std::vector<std::pair<double, double>> intervals;
    for (std::size_t c : children[i]) {
      const double a = std::max(all[c].start, span.start);
      const double b = std::min(all[c].end, span.end);
      if (b > a) intervals.emplace_back(a, b);
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_start = 0.0;
    double run_end = -1.0;
    bool open = false;
    for (const auto& [a, b] : intervals) {
      if (!open || a > run_end) {
        if (open) covered += run_end - run_start;
        run_start = a;
        run_end = b;
        open = true;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, (span.end - span.start) - covered);
  }
  return self;
}

}  // namespace

std::map<std::string, double> Tracer::layer_self_seconds() const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = span_self_seconds(all);
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) by_layer[all[i].layer] += self[i];
  return by_layer;
}

double Tracer::total_seconds(const std::string& layer,
                             const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans()) {
    if (span.layer == layer && span.name == name) total += span.end - span.start;
  }
  return total;
}

double Tracer::self_seconds(const std::string& layer,
                            const std::string& name) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = span_self_seconds(all);
  double total = 0.0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].layer == layer && all[i].name == name) total += self[i];
  }
  return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace file " << path << "\n";
    return;
  }
  const double origin = all.empty() ? 0.0 : all.front().start;
  out << "{\"traceEvents\":[";
  char buffer[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%zu,"
                  "\"args\":{\"span\":%zu,\"parent\":%ld,\"request\":%ld}}",
                  i == 0 ? "" : ",\n", s.layer.c_str(), s.name.c_str(),
                  s.layer.c_str(), (s.start - origin) * 1e6,
                  (s.end - s.start) * 1e6, s.thread, i, s.parent, s.request);
    out << buffer;
  }
  out << "]}\n";
}

Scope::Scope(Tracer& tracer, const char* layer, const char* name, long parent,
             long request)
    : tracer_(tracer), id_(tracer.begin(layer, name, parent, request)) {}

Scope::~Scope() { tracer_.end(id_); }

const std::vector<std::string>& layers() {
  static const std::vector<std::string> kLayers{
      "model", "tpn",  "markov", "linalg", "young", "maxplus",
      "core",  "engine", "dist", "common", "sim",   "serve"};
  return kLayers;
}

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

// ---- Host block ---------------------------------------------------------------

namespace {

/// Fixed integer spin kernel: a dependent LCG chain the compiler cannot
/// shorten. Returns the final state so the work is observable.
std::uint64_t spin(std::uint64_t iterations, std::uint64_t state) {
  for (std::uint64_t i = 0; i < iterations; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    state ^= state >> 29;
  }
  return state;
}

constexpr std::uint64_t kSpinIterations = 100'000'000;

}  // namespace

HostBlock measure_host() {
  HostBlock host;
  host.nproc = nproc();
  std::atomic<std::uint64_t> sink{0};
  double t0 = now_s();
  sink += spin(kSpinIterations, 1);
  host.spin_1_s = now_s() - t0;
  t0 = now_s();
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < host.nproc; ++t) {
      threads.emplace_back([&sink, t] { sink += spin(kSpinIterations, t + 2); });
    }
    for (std::thread& thread : threads) thread.join();
  }
  host.spin_n_s = now_s() - t0;
  host.parallel_ceiling = static_cast<double>(host.nproc) * host.spin_1_s /
                          host.spin_n_s;
  host.isa = streamflow::simd::isa_name(streamflow::simd::best_isa());
  host.build_type = PERFBENCH_BUILD_TYPE;
  host.compiler = PERFBENCH_COMPILER;
  return host;
}

std::string host_json(const HostBlock& host) {
  std::ostringstream os;
  os.precision(6);
  os << "{\"nproc\":" << host.nproc << ",\"spin_1_s\":" << host.spin_1_s
     << ",\"spin_n_s\":" << host.spin_n_s
     << ",\"parallel_ceiling\":" << host.parallel_ceiling << ",\"isa\":\""
     << host.isa << "\",\"build_type\":\"" << host.build_type
     << "\",\"compiler\":\"" << host.compiler << "\"}";
  return os.str();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- Metric catalog -------------------------------------------------------------

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics{
      {"ops_per_s", "1/s", "higher"},
      {"p50_ms", "ms", "lower"},
      {"setup_s", "s", "lower"},
      {"peak_rss_mb", "MB", "lower"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> m{
        // Spans and tallies of the traced pass (analyze_mix's layers, then
        // simulate_replicated's).
        {"tpn.build_s", "s", "lower"},
        {"tpn.transitions", "count", "lower"},
        {"tpn.columns_s", "s", "lower"},
        {"tpn.patterns", "count", "lower"},
        {"markov.reach_s", "s", "lower"},
        {"markov.states", "count", "lower"},
        {"markov.edges", "count", "lower"},
        {"linalg.dense_s", "s", "lower"},
        {"linalg.dense_solves", "count", "lower"},
        {"linalg.iter_s", "s", "lower"},
        {"linalg.iter_solves", "count", "lower"},
        {"young.closed_form", "count", "higher"},
        {"maxplus.det_s", "s", "lower"},
        {"core.compose_s", "s", "lower"},
        {"sim.pipeline_s", "s", "lower"},
        {"sim.teg_s", "s", "lower"},
        {"sim.datasets", "count", "higher"},
        // Layer probes, run after the traced pass of both gated workloads.
        {"common.refill_ns_per_draw", "ns", "lower"},
        {"dist.sample_ns_per_draw.exp", "ns", "lower"},
        {"dist.sample_ns_per_draw.weibull", "ns", "lower"},
        {"dist.sample_ns_per_draw.gamma", "ns", "lower"},
        {"dist.sample_ns_per_draw.gauss", "ns", "lower"},
        {"dist.draws", "count", "higher"},
        {"serve.parse_us", "us", "lower"},
        {"serve.handle_us.analyze", "us", "lower"},
    };
    with_trace_accounting(m);
    return m;
  }();
  return kMetrics;
}

void with_trace_accounting(std::vector<MetricSpec>& metrics) {
  static const std::vector<std::string> share_names = [] {
    std::vector<std::string> names;
    for (const std::string& layer : layers()) names.push_back("share." + layer);
    return names;
  }();
  for (const std::string& name : share_names) {
    metrics.push_back({name.c_str(), "ratio", "lower"});
  }
  metrics.push_back({"share.unattributed", "ratio", "lower"});
  metrics.push_back({"trace.overhead_s", "s", "lower"});
  metrics.push_back({"trace.overhead_ratio", "ratio", "lower"});
  metrics.push_back({"host.nproc", "count", "higher"});
  metrics.push_back({"host.parallel_ceiling", "ratio", "higher"});
}

std::string catalog_json() {
  std::ostringstream os;
  const auto list = [&os](const std::vector<MetricSpec>& specs) {
    os << "[";
    for (std::size_t i = 0; i < specs.size(); ++i) {
      os << (i == 0 ? "" : ", ") << "{\"name\": \"" << specs[i].name
         << "\", \"unit\": \"" << specs[i].unit << "\", \"better\": \""
         << specs[i].better << "\"}";
    }
    os << "]";
  };
  os << "{\"end_to_end\": ";
  list(end_to_end_metrics());
  os << ", \"per_layer\": ";
  list(per_layer_metrics());
  os << "}";
  return os.str();
}

std::string result_json(const Outcome& outcome, bool trace,
                        const std::vector<MetricSpec>& catalog) {
  const Metrics& values = trace ? outcome.per_layer : outcome.end_to_end;
  for (const auto& [name, value] : values) {
    const bool listed =
        std::any_of(catalog.begin(), catalog.end(),
                    [&name](const MetricSpec& m) { return name == m.name; });
    if (!listed) note("layer " + name + " = " + std::to_string(value));
  }
  std::ostringstream os;
  os << "{\"correct\": " << (outcome.correct ? "true" : "false")
     << ", \"attempted\": " << outcome.attempted
     << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  char number[64];
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const auto it = values.find(catalog[i].name);
    if (it == values.end()) {
      throw std::runtime_error(std::string("metric ") + catalog[i].name +
                               " was not measured");
    }
    if (!std::isfinite(it->second)) {
      throw std::runtime_error(std::string("metric ") + catalog[i].name +
                               " is not finite");
    }
    std::snprintf(number, sizeof(number), "%.17g", it->second);
    os << (i == 0 ? "" : ", ") << "\"" << catalog[i].name
       << "\": {\"value\": " << number << ", \"unit\": \"" << catalog[i].unit
       << "\"}";
  }
  os << "}}";
  return os.str();
}

void add_layer_metrics(const Tracer& tracer, const Tally& tally,
                       Metrics& per_layer) {
  Metrics& m = per_layer;
  m["tpn.build_s"] = tracer.total_seconds("tpn", "build");
  m["tpn.transitions"] = tally.transitions;
  m["tpn.columns_s"] = tracer.total_seconds("tpn", "columns");
  m["tpn.patterns"] = tally.patterns;
  m["markov.reach_s"] = tracer.total_seconds("markov", "reach");
  m["markov.states"] = tally.states;
  m["markov.edges"] = tally.edges;
  m["linalg.dense_s"] = tracer.total_seconds("linalg", "dense");
  m["linalg.dense_solves"] = tally.dense_solves;
  m["linalg.iter_s"] = tracer.total_seconds("linalg", "iter");
  m["linalg.iter_solves"] = tally.iter_solves;
  m["young.closed_form"] = tally.closed_form;
  m["maxplus.det_s"] = tracer.total_seconds("maxplus", "det");
  m["core.compose_s"] = tracer.self_seconds("core", "exponential");
  m["sim.pipeline_s"] = tracer.total_seconds("sim", "pipeline");
  m["sim.teg_s"] = tracer.total_seconds("sim", "teg");
  m["sim.datasets"] = tally.datasets;
}

void wake_cpu(double seconds) {
  std::uint64_t state = 1;
  const double until = now_s() + seconds;
  while (now_s() < until) {
    for (int i = 0; i < 1000; ++i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  }
  volatile std::uint64_t sink = state;
  (void)sink;
}

void add_trace_accounting(const Tracer& tracer, double untraced_wall_s,
                          double traced_wall_s, std::size_t threads,
                          Metrics& per_layer) {
  const std::map<std::string, double> self = tracer.layer_self_seconds();
  const double capacity = untraced_wall_s * static_cast<double>(threads);
  double attributed = 0.0;
  for (const std::string& layer : layers()) {
    const auto it = self.find(layer);
    const double share = it == self.end() ? 0.0 : it->second / capacity;
    per_layer["share." + layer] = share;
    attributed += share;
  }
  per_layer["share.unattributed"] = 1.0 - attributed;
  per_layer["trace.overhead_s"] = traced_wall_s - untraced_wall_s;
  per_layer["trace.overhead_ratio"] = traced_wall_s / untraced_wall_s - 1.0;
}

void note(const std::string& line) { std::cout << line << "\n"; }

std::string describe_setup(std::vector<double> seconds) {
  std::sort(seconds.begin(), seconds.end());
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "set-up: %zu repeats, min %.6g s, median %.6g s, max %.6g s",
                seconds.size(), seconds.front(), median(seconds),
                seconds.back());
  return buffer;
}

std::string describe(const std::string& label, const Percentile& p) {
  char buffer[256];
  const int pct = static_cast<int>(std::lround(p.q * 100.0));
  if (p.supported) {
    std::snprintf(buffer, sizeof(buffer), "%s p%d = %.4f ms (n = %zu, %zu beyond)",
                  label.c_str(), pct, p.value * 1e3, p.count, p.beyond);
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "%s p%d not reported: n = %zu leaves %zu samples beyond "
                  "(needs %zu)",
                  label.c_str(), pct, p.count, p.beyond, kMinBeyond);
  }
  return buffer;
}

}  // namespace perfbench
