// Self-test of the benchmark's own machinery: the percentile rule, the
// span accounting, and every output check firing on a planted wrong
// answer. Exits non-zero on the first failed expectation.
//
//   .bench_build/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "harness.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool condition, const char* what) {
  if (!condition) {
    std::printf("FAIL %s\n", what);
    ++failures;
  }
}

void percentile_rule() {
  expect(min_samples_for(0.5) == 20, "p50 needs 20 samples");
  expect(min_samples_for(0.99) == 1000, "p99 needs 1000 samples");
  expect(min_samples_for(0.9) == 100, "p90 needs 100 samples");

  std::vector<double> sixty(60);
  for (std::size_t i = 0; i < sixty.size(); ++i) sixty[i] = double(i + 1);
  const Percentile p99 = percentile(sixty, 0.99);
  expect(!p99.supported, "no p99 over 60 samples");
  expect(p99.count == 60, "percentile keeps its sample count");
  const Percentile p50 = percentile(sixty, 0.5);
  expect(p50.supported && p50.value == 30.0 && p50.beyond == 30,
         "nearest-rank p50 of 1..60 is 30 with 30 beyond");

  std::vector<double> nineteen(19, 1.0);
  expect(!percentile(nineteen, 0.5).supported, "no p50 over 19 samples");
  std::vector<double> thousand(1000);
  for (std::size_t i = 0; i < thousand.size(); ++i) thousand[i] = double(i);
  const Percentile q = percentile(thousand, 0.99);
  expect(q.supported && q.beyond == 10 && q.value == 989.0,
         "p99 of 1000 samples leaves exactly ten beyond");
  expect(percentile({}, 0.5).count == 0 && !percentile({}, 0.5).supported,
         "empty sample reports nothing");
}

void self_time() {
  Tracer tracer;
  const long root = tracer.record("core", "analyze", 0.0, 10.0, -1, 0);
  tracer.record("linalg", "iter", 1.0, 4.0, root, 0);
  // Two overlapping children (worker threads) cover [5, 8] once.
  tracer.record("sim", "pipeline", 5.0, 7.0, root, 0);
  tracer.record("sim", "pipeline", 6.0, 8.0, root, 0);
  const auto self = tracer.layer_self_seconds();
  expect(std::fabs(self.at("core") - 4.0) < 1e-12,
         "parent self time subtracts the union of its children");
  expect(std::fabs(self.at("sim") - 4.0) < 1e-12, "child self times add up");

  expect(std::fabs(tracer.self_seconds("core", "analyze") - 4.0) < 1e-12,
         "self time by (layer, name)");

  Tally tally;
  tally.states = 5;
  Metrics layer;
  add_layer_metrics(tracer, tally, layer);
  expect(layer["linalg.iter_s"] == 3.0 && layer["sim.pipeline_s"] == 4.0,
         "layer seconds sum the spans of each (layer, name)");
  expect(layer["markov.states"] == 5.0 && layer["sim.datasets"] == 0.0,
         "layer counts come from the tally");
  expect(layer.count("core.compose_s") == 1 && layer["core.compose_s"] == 0.0,
         "core.compose_s is the self time of core.exponential spans only");
  for (const MetricSpec& spec : per_layer_metrics()) {
    const std::string name = spec.name;
    const bool from_probes = name.rfind("common.", 0) == 0 ||
                             name.rfind("dist.", 0) == 0 ||
                             name.rfind("serve.", 0) == 0;
    const bool from_accounting = name.rfind("share.", 0) == 0 ||
                                 name.rfind("trace.", 0) == 0 ||
                                 name.rfind("host.", 0) == 0;
    if (!from_probes && !from_accounting) {
      expect(layer.count(name) == 1, "add_layer_metrics sets every span and "
                                     "tally metric of the catalog");
    }
  }

  Metrics m;
  add_trace_accounting(tracer, 10.0, 12.0, 1, m);
  expect(std::fabs(m["share.core"] - 0.4) < 1e-12, "share of untraced wall");
  expect(std::fabs(m["share.unattributed"] - (1.0 - 1.1)) < 1e-12,
         "unattributed remainder is one minus the shares");
  expect(std::fabs(m["trace.overhead_s"] - 2.0) < 1e-12,
         "overhead is traced minus untraced wall");
}

void normalised_time() {
  // Forty operations of 2 work units, each taking 1 s of wall time; the
  // gauge read twice its nominal time after the first twenty (a host at
  // half speed) and nominal after the rest.
  Timings timings;
  for (int k = 0; k < 40; ++k) {
    timings.record(2.0, 1.0, (k < 20 ? 2.0 : 1.0) * kGaugeNominalS);
  }
  expect(timings.normalised(0) == 0.5 && timings.normalised(39) == 1.0,
         "normalised time is wall time scaled by nominal over gauge");
  expect(timings.total_wall() == 40.0, "total wall excludes the gauge");
  const Figures f = normalised_figures(timings, "selftest");
  expect(std::fabs(f.ops_per_s - 80.0 / 30.0) < 1e-12,
         "throughput is total work over total normalised time");
  expect(f.p50.count == 40 && f.p50.supported && f.p50.value == 0.5,
         "p50 is over normalised times, under the rule");

  // Too few operations for a p50: the figure is marked unsupported.
  Timings few;
  for (int k = 0; k < 10; ++k) few.record(1.0, 1.0, kGaugeNominalS);
  expect(!normalised_figures(few, "selftest").p50.supported,
         "a pass too short for the rule reports no p50");

  // The gauge itself does fixed work and reads a positive time.
  expect(gauge_s() > 0.0, "the gauge reads a positive time");
}

void planted_wrong_answers() {
  // analyze: agreement with the stored reference, and rho_exp <= rho_det.
  expect(analyze_ok(0.5, 0.4, 0.5, 0.4), "analyze accepts the reference");
  expect(analyze_ok(0.5 * (1 + 1e-9), 0.4, 0.5, 0.4),
         "analyze tolerates solver-level differences");
  expect(!analyze_ok(0.5, 0.4, 0.5, 0.4 * 1.001),
         "analyze rejects a perturbed exponential reference");
  expect(!analyze_ok(0.5 * 1.001, 0.4, 0.5, 0.4),
         "analyze rejects a perturbed deterministic answer");
  expect(!analyze_ok(0.4, 0.5, 0.4, 0.5), "analyze rejects rho_exp > rho_det");
  expect(!analyze_ok(NAN, 0.4, 0.5, 0.4), "analyze rejects NaN");

  // search: never below the reference score.
  expect(search_ok(0.7, 0.7) && search_ok(0.71, 0.7), "search accepts >= ref");
  expect(!search_ok(0.69, 0.7), "search rejects a lower score");

  // simulate: exponential laws within the band around rho_exp; N.B.U.E.
  // laws inside the widened sandwich.
  const double ci95 = 0.01;  // band = 0.01 * 3.29 / 1.96 ~ 0.0168
  expect(simulate_ok(0.81, ci95, 0.80, 0.85, true, true),
         "simulate accepts an exponential mean inside the band");
  expect(!simulate_ok(0.83, ci95, 0.80, 0.85, true, true),
         "simulate rejects an exponential mean outside the band");
  expect(!simulate_ok(0.81, ci95, 0.78, 0.85, true, true),
         "simulate rejects a perturbed analytic value");
  expect(simulate_ok(0.84, ci95, 0.80, 0.85, false, true),
         "simulate accepts an N.B.U.E. mean inside the sandwich");
  expect(!simulate_ok(0.88, ci95, 0.80, 0.85, false, true),
         "simulate rejects an N.B.U.E. mean above rho_det");
  expect(!simulate_ok(0.76, ci95, 0.80, 0.85, false, true),
         "simulate rejects an N.B.U.E. mean below rho_exp");
  expect(simulate_ok(0.95, ci95, 0.80, 0.85, false, false),
         "simulate only needs a finite mean outside both families");
  expect(!simulate_ok(0.0, ci95, 0.80, 0.85, false, false),
         "simulate rejects a zero mean");

  // serve: ok:true and byte-equal to the storeless answer.
  const std::string good = "{\"id\":3,\"ok\":true,\"result\":{\"x\":1}}";
  expect(serve_ok(good, good), "serve accepts the reference bytes");
  expect(!serve_ok(good, "{\"id\":3,\"ok\":true,\"result\":{\"x\":2}}"),
         "serve rejects a perturbed reference");
  const std::string error = "{\"id\":3,\"ok\":false,\"error\":\"x\"}";
  expect(!serve_ok(error, error), "serve rejects ok:false even when equal");
}

bool throws(const Outcome& outcome, bool trace,
            const std::vector<MetricSpec>& catalog) {
  try {
    (void)result_json(outcome, trace, catalog);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

void result_line() {
  const std::vector<MetricSpec> catalog{{"a_s", "s", "lower"},
                                        {"b", "count", "higher"}};
  Outcome outcome;
  outcome.attempted = 3;
  outcome.end_to_end = {{"a_s", 0.25}, {"b", 0.0}};
  const std::string line = result_json(outcome, false, catalog);
  expect(line ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
             "\"b\": {\"value\": 0, \"unit\": \"count\"}}}",
         "result line holds every catalogued metric with its unit");
  Outcome missing = outcome;
  missing.end_to_end.erase("b");
  expect(throws(missing, false, catalog), "an unset metric fails the run");
  Outcome nan = outcome;
  nan.end_to_end["a_s"] = std::nan("");
  expect(throws(nan, false, catalog), "a NaN metric fails the run");
  Outcome inf = outcome;
  inf.end_to_end["b"] = INFINITY;
  expect(throws(inf, false, catalog), "an infinite metric fails the run");
  expect(std::isnan(mean({})), "the mean of nothing is not a number");
  expect(throws(outcome, true, catalog),
         "a traced run reports its per-layer metrics, not the end-to-end ones");
}

void reference_round_trip(const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "perfbench_selftest_ref.txt";
  Reference reference;
  reference.set("analyze", "col5x6", 3, 0.1 + 0.2, 1.0 / 3.0);
  reference.save(path.string());
  const Reference loaded = Reference::load(path.string());
  double a = 0.0;
  double b = 0.0;
  expect(loaded.find("analyze", "col5x6", 3, a, b) && a == 0.1 + 0.2 &&
             b == 1.0 / 3.0,
         "reference round-trips doubles exactly");
  expect(!loaded.find("analyze", "col5x6", 4, a, b), "missing entry is absent");
  std::filesystem::remove(path);
}

}  // namespace

int main(int, char** argv) {
  percentile_rule();
  self_time();
  normalised_time();
  planted_wrong_answers();
  result_line();
  // Temporary file next to the binary, inside the build directory.
  reference_round_trip(std::filesystem::absolute(argv[0]).parent_path());
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
