// perfbench — the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--reference FILE] [--out-dir DIR]
//   perfbench --write-reference FILE
//   perfbench --list-metrics
//
// Workloads: analyze_mix, search_portfolio, simulate_replicated,
// serve_mixed (see perfbench/README.md). The last line of standard output
// is the result object; detail lines and the host block come before it.
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference FILE] [--out-dir DIR]\n"
            << "       perfbench --write-reference FILE\n"
            << "       perfbench --list-metrics\n";
  return 2;
}

int run(int argc, char** argv) {
  RunConfig config;
  config.reference_path = "perfbench/reference.txt";
  config.out_dir = ".bench_build/perfbench-out";
  std::string write_path;
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    std::cout << catalog_json() << std::endl;
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      config.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      config.trace = value == "1";
    } else if (flag == "--reference") {
      config.reference_path = value;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else if (flag == "--write-reference") {
      write_path = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }

  if (!write_path.empty()) {
    Reference reference;
    analyze_reference(reference);
    search_reference(reference);
    reference.save(write_path);
    std::cerr << "perfbench: reference written to " << write_path << "\n";
    return 0;
  }

  // The gated workloads (BENCHMARK.json's) report the catalog's per-layer
  // metrics when traced; the others report their own.
  struct Workload {
    const char* name;
    Outcome (*run)(const RunConfig&);
    const std::vector<MetricSpec>& (*layer_metrics)();
  };
  static const Workload kWorkloads[] = {
      {"analyze_mix", run_analyze, per_layer_metrics},
      {"simulate_replicated", run_simulate, per_layer_metrics},
      {"search_portfolio", run_search, search_layer_metrics},
      {"serve_mixed", run_serve, serve_layer_metrics},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    return usage("unknown workload '" + config.workload + "'");
  }
  if (!(config.seconds > 0.0)) return usage("--seconds must be positive");
  if (config.trace) std::filesystem::create_directories(config.out_dir);

  note("workload " + config.workload + ", seed " + std::to_string(config.seed) +
       ", " + std::to_string(config.seconds) + " s, trace " +
       (config.trace ? "on" : "off"));
  Outcome outcome = workload->run(config);
  const HostBlock host = measure_host();
  outcome.per_layer["host.nproc"] = static_cast<double>(host.nproc);
  outcome.per_layer["host.parallel_ceiling"] = host.parallel_ceiling;
  note("host " + host_json(host));
  std::cout << result_json(outcome, config.trace,
                           config.trace ? workload->layer_metrics()
                                        : end_to_end_metrics())
            << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
