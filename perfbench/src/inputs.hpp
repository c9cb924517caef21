// Seeded inputs of the four workloads.
//
// Every instance belongs to a finite family: a fixed base instance per
// class, perturbed by one of kVariants variants (speeds and bandwidths
// scaled by independent factors within +-3%). The perturbation keeps the
// structure — team sizes, pattern shapes, CTMC state counts — and so the
// cost of each class nearly constant, which keeps the figures steady
// across seeds; the finite family lets the benchmark store a reference
// answer for every instance it can be asked to analyze or search. The
// seed argument only chooses which variants each cycle of a run draws (and,
// for serve, the request mix), so a run's inputs are a pure function of
// (workload, seed).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/analyzer.hpp"
#include "core/heuristics.hpp"
#include "model/mapping.hpp"

namespace perfbench {

inline constexpr std::size_t kVariants = 8;

/// A seeded, balanced sequence of variant indices: successive seeded
/// permutations of 0..kVariants-1, so every variant appears equally often
/// in any long run and the mix of a run depends on its seed only through
/// order and the last, partial permutation.
class VariantStream {
 public:
  VariantStream(std::uint64_t seed, std::uint64_t salt);
  std::size_t next();

 private:
  std::uint64_t state_;
  std::vector<std::size_t> block_;
  std::size_t pos_;
};

// ---- analyze_mix ------------------------------------------------------------

/// One class of cold analyses. The classes straddle the 1200-state
/// dense_threshold of markov/throughput.
struct AnalyzeClass {
  const char* name;
  std::vector<std::size_t> teams;  ///< team sizes, stage by stage
  streamflow::ExecutionModel model;
  streamflow::ExponentialMethod method;
  int place_capacity;
  std::size_t per_cycle;  ///< analyses of this class in one mix cycle
};
const std::vector<AnalyzeClass>& analyze_classes();
streamflow::Mapping analyze_instance(const AnalyzeClass& c,
                                     std::size_t variant);
streamflow::ExponentialOptions analyze_options(const AnalyzeClass& c);

// ---- search_portfolio ---------------------------------------------------------

/// One class of portfolio searches (greedy restarts, exponential objective,
/// max-plus pruning).
struct SearchClass {
  const char* name;
  std::size_t restarts;
  std::int64_t max_paths;
  std::size_t per_cycle;
};
const std::vector<SearchClass>& search_classes();
streamflow::Mapping search_instance(std::size_t class_index,
                                    std::size_t variant);
streamflow::MappingSearchOptions search_options(std::size_t class_index);

// ---- simulate_replicated --------------------------------------------------------

/// One replicated-simulation configuration: a law on one simulator.
struct SimulateCase {
  const char* law;  ///< parse_distribution spec
  bool teg;         ///< run_replicated_teg (else run_replicated_pipeline)
};
const std::vector<SimulateCase>& simulate_cases();
streamflow::Mapping simulate_instance(std::size_t variant);
inline constexpr std::size_t kSimReplications = 16;
inline constexpr std::int64_t kSimDataSets = 16'000;  ///< per replication
/// Experiment seed of one (variant, case): fixed, so every check of the
/// simulate workload belongs to a finite set.
std::uint64_t simulate_seed(std::size_t variant, std::size_t case_index);

// ---- serve_mixed ------------------------------------------------------------------

/// The distinct request lines of serve_mixed: analyze over an instance
/// pool, small simulate requests, small search requests with max-plus
/// pruning.
struct ServePool {
  std::vector<std::string> lines;  ///< request lines, newline not included
  std::vector<std::string> ops;    ///< analyze, search or simulate
};
ServePool serve_pool();
/// The seeded request stream, as indices into the pool: analyze requests
/// follow a skewed (Zipf) popularity over a seeded permutation of the
/// instance pool, so the store both publishes and hits.
std::vector<std::size_t> serve_stream(std::uint64_t seed, std::size_t count);

}  // namespace perfbench
