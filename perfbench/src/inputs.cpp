#include "inputs.hpp"

#include <algorithm>

#include "common/prng.hpp"
#include "model/serialization.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using namespace streamflow;

namespace {

/// Independent scale factors of one variant, uniform within +-amplitude
/// (3% unless stated).
class Jitter {
 public:
  Jitter(std::uint64_t salt, std::size_t variant, double amplitude = 0.03)
      : prng_(salt * 1'000'003ULL + variant), amplitude_(amplitude) {}
  double operator()() {
    return 1.0 + amplitude_ * (2.0 * prng_.uniform01() - 1.0);
  }

 private:
  Prng prng_;
  double amplitude_;
};

std::vector<std::vector<std::size_t>> consecutive_teams(
    const std::vector<std::size_t>& sizes) {
  std::vector<std::vector<std::size_t>> teams;
  std::size_t next = 0;
  for (std::size_t size : sizes) {
    std::vector<std::size_t> team;
    for (std::size_t k = 0; k < size; ++k) team.push_back(next++);
    teams.push_back(std::move(team));
  }
  return teams;
}

/// A pipeline with one team per stage (consecutive processors) over a fully
/// heterogeneous platform: stage works in [1, 4], file sizes in [1, 2],
/// speeds and bandwidths in [0.5, 2.5], drawn from `base_seed` and then
/// jittered by the variant.
Mapping layered(const std::vector<std::size_t>& sizes, std::uint64_t base_seed,
                std::uint64_t salt, std::size_t variant) {
  Prng prng(base_seed);
  Jitter jitter(salt, variant);
  std::size_t total = 0;
  for (std::size_t s : sizes) total += s;
  std::vector<double> works;
  std::vector<double> files;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    works.push_back(1.0 + 3.0 * prng.uniform01());
  }
  for (std::size_t i = 0; i + 1 < sizes.size(); ++i) {
    files.push_back(1.0 + prng.uniform01());
  }
  std::vector<double> speeds(total);
  for (double& s : speeds) s = (0.5 + 2.0 * prng.uniform01()) * jitter();
  Platform platform(speeds);
  for (std::size_t p = 0; p < total; ++p) {
    for (std::size_t q = p + 1; q < total; ++q) {
      platform.set_bandwidth(p, q, (0.5 + 2.0 * prng.uniform01()) * jitter());
    }
  }
  return Mapping(Application(works, files), platform, consecutive_teams(sizes));
}

}  // namespace

VariantStream::VariantStream(std::uint64_t seed, std::uint64_t salt)
    : state_(seed ^ (0x9E3779B97F4A7C15ULL * (salt + 1))),
      block_(kVariants),
      pos_(kVariants) {}

std::size_t VariantStream::next() {
  if (pos_ == block_.size()) {
    Prng prng(state_++);
    for (std::size_t i = 0; i < block_.size(); ++i) block_[i] = i;
    for (std::size_t i = block_.size(); i > 1; --i) {
      std::swap(block_[i - 1],
                block_[prng.next_u64() % static_cast<std::uint64_t>(i)]);
    }
    pos_ = 0;
  }
  return block_[pos_++];
}

// ---- analyze_mix ------------------------------------------------------------

const std::vector<AnalyzeClass>& analyze_classes() {
  // Per cycle: 3 + 1 + 5 + 1 + 1 + 1 = 12 analyses, ~2 s on a 4-thread
  // AVX-512 host. Sorted by cost, the 6x7 class holds positions 6-10 of
  // 12, so the median analysis is a 6x7 pattern solve, whose cost barely
  // moves between variants.
  //   col4x5   4x5 pattern chains, below dense_threshold (dense LU)
  //   col5x6   5x6 pattern, 1,260 states — just above the threshold
  //   col6x7   6x7 pattern, 5,544 states (power iteration)
  //   ctmc_c4  Theorem 2 general CTMC, place_capacity 4: 4,875 states
  //   ctmc_c6  the same net at place_capacity 6: 19,551 states
  //   strict8  Strict model on 8 processors: 8,496 states
  static const std::vector<AnalyzeClass> kClasses{
      {"col4x5", {1, 4, 5, 1}, ExecutionModel::kOverlap,
       ExponentialMethod::kColumns, 8, 3},
      {"col5x6", {1, 5, 6, 1}, ExecutionModel::kOverlap,
       ExponentialMethod::kColumns, 8, 1},
      {"col6x7", {1, 6, 7, 1}, ExecutionModel::kOverlap,
       ExponentialMethod::kColumns, 8, 5},
      {"ctmc_c4", {1, 3}, ExecutionModel::kOverlap,
       ExponentialMethod::kGeneralCtmc, 4, 1},
      {"ctmc_c6", {1, 3}, ExecutionModel::kOverlap,
       ExponentialMethod::kGeneralCtmc, 6, 1},
      {"strict8", {1, 2, 3, 2}, ExecutionModel::kStrict,
       ExponentialMethod::kGeneralCtmc, 8, 1},
  };
  return kClasses;
}

Mapping analyze_instance(const AnalyzeClass& c, std::size_t variant) {
  return layered(c.teams, 3, 11, variant);
}

ExponentialOptions analyze_options(const AnalyzeClass& c) {
  ExponentialOptions options;
  options.method = c.method;
  options.place_capacity = c.place_capacity;
  return options;
}

// ---- search_portfolio ---------------------------------------------------------

const std::vector<SearchClass>& search_classes() {
  // The 14-processor heterogeneous 5-stage instance and the 160-processor
  // platform of bench/search_throughput. On the large platform, max_paths
  // 24 bounds the pattern shapes a search may reach: at 60 or more a
  // variant can wander into 6x7-class patterns and run for minutes. The
  // jitter moves het14's local-search path (120-560 ms per search) far more
  // than plat160's (165-225 ms), so three plat160 searches per cycle keep
  // the median inside the steadier class.
  static const std::vector<SearchClass> kClasses{
      {"het14", 8, 256, 1},
      {"plat160", 4, 24, 3},
  };
  return kClasses;
}

/// het14's local-search path is sensitive to its link times: at +-3% its
/// variants take 120-560 ms per search, so its jitter is smaller.
constexpr double kHet14Jitter = 0.002;

Mapping search_instance(std::size_t class_index, std::size_t variant) {
  if (class_index == 0) {
    Jitter jitter(21, variant, kHet14Jitter);
    Application app({2.0, 9.0, 8.0, 4.5, 1.5}, {3.0, 2.0, 1.0, 0.5});
    std::vector<double> speeds{2.5, 1.0, 1.4, 1.8, 0.7, 2.2, 1.3,
                               0.9, 1.6, 1.1, 2.0, 0.8, 1.7, 1.2};
    for (double& s : speeds) s *= jitter();
    Platform platform = Platform::fully_connected(speeds, 4.0);
    Prng prng(12345);
    for (std::size_t p = 0; p < speeds.size(); ++p) {
      for (std::size_t q = p + 1; q < speeds.size(); ++q) {
        platform.set_bandwidth(p, q, (2.0 + 4.0 * prng.uniform01()) * jitter());
      }
    }
    return Mapping(make_instance(std::move(app), std::move(platform)),
                   {{0, 1}, {2, 3, 4}, {5, 6, 7, 8}, {9, 10, 11}, {12, 13}});
  }
  Jitter jitter(22, variant);
  const std::size_t m = 160;
  Application app({2.0, 6.0, 4.0, 1.5}, {1.0, 2.0, 0.5});
  Prng prng(777);
  std::vector<double> speeds(m);
  for (double& s : speeds) s = (0.5 + 2.0 * prng.uniform01()) * jitter();
  Platform platform(speeds);
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = p + 1; q < m; ++q) {
      platform.set_bandwidth(p, q, (2.0 + 4.0 * prng.uniform01()) * jitter());
    }
  }
  return Mapping(make_instance(std::move(app), std::move(platform)),
                 {{0, 1}, {2, 3, 4}, {5, 6}, {7, 8}});
}

MappingSearchOptions search_options(std::size_t class_index) {
  const SearchClass& c = search_classes()[class_index];
  MappingSearchOptions options;
  options.objective = MappingObjective::kExponential;
  options.bounds = BoundPolicy::kMctMaxplus;
  options.restarts = c.restarts;
  options.max_paths = c.max_paths;
  options.seed = 99;
  return options;
}

// ---- simulate_replicated --------------------------------------------------------

const std::vector<SimulateCase>& simulate_cases() {
  // Inversion samplers (exp, weibull) and rejection samplers (gamma,
  // gauss) on the pipeline simulator; one of each family on the TEG
  // simulator. simulate.cpp's mix cycle runs the exp TEG case three times
  // so the median run falls inside one case.
  static const std::vector<SimulateCase> kCases{
      {"exp:1", false},   {"weibull:1.5,1", false}, {"gamma:2,0.5", false},
      {"gauss:1,0.3", false}, {"exp:1", true},      {"gamma:2,0.5", true},
  };
  return kCases;
}

Mapping simulate_instance(std::size_t variant) {
  return layered({2, 4, 3, 5, 2}, 6, 31, variant);
}

std::uint64_t simulate_seed(std::size_t variant, std::size_t case_index) {
  return 1000 + 16 * variant + case_index;
}

// ---- serve_mixed ------------------------------------------------------------------

namespace {

constexpr std::size_t kServeAnalyzeInstances = 24;
constexpr std::size_t kServeSimulate = 6;
constexpr std::size_t kServeSearch = 4;

/// The serve_load pool instance: five stages on 15 processors, teams of
/// coprime sizes so every cross-team pattern is heterogeneous (u x v up to
/// 4 x 5), jittered per variant.
Mapping serve_instance(std::size_t variant) {
  return layered({1, 4, 5, 4, 1}, 41, 51, variant);
}

std::string quoted_instance(const Mapping& mapping) {
  return "\"" + json_escape(instance_to_string(mapping)) + "\"";
}

}  // namespace

ServePool serve_pool() {
  ServePool pool;
  for (std::size_t v = 0; v < kServeAnalyzeInstances; ++v) {
    pool.lines.push_back("{\"id\":" + std::to_string(pool.lines.size()) +
                         ",\"op\":\"analyze\",\"instance\":" +
                         quoted_instance(serve_instance(v)) + "}");
    pool.ops.push_back("analyze");
  }
  const char* laws[] = {"exp:1", "gamma:2,0.5"};
  for (std::size_t k = 0; k < kServeSimulate; ++k) {
    pool.lines.push_back(
        "{\"id\":" + std::to_string(pool.lines.size()) +
        ",\"op\":\"simulate\",\"instance\":" +
        quoted_instance(serve_instance(k / 2)) + ",\"law\":\"" + laws[k % 2] +
        "\",\"data_sets\":2000,\"replications\":2,\"seed\":11}");
    pool.ops.push_back("simulate");
  }
  for (std::size_t k = 0; k < kServeSearch; ++k) {
    pool.lines.push_back("{\"id\":" + std::to_string(pool.lines.size()) +
                         ",\"op\":\"search\",\"instance\":" +
                         quoted_instance(layered({2, 3, 3}, 61, 71, k)) +
                         ",\"restarts\":2,\"seed\":5,\"max_paths\":24,"
                         "\"prune\":\"maxplus\"}");
    pool.ops.push_back("search");
  }
  return pool;
}

std::vector<std::size_t> serve_stream(std::uint64_t seed, std::size_t count) {
  Prng prng(seed ^ 0x5E57E5E57E5E57EULL);
  // Seeded popularity ranking of the analyze instances (Fisher-Yates).
  std::vector<std::size_t> rank_to_index(kServeAnalyzeInstances);
  for (std::size_t i = 0; i < rank_to_index.size(); ++i) rank_to_index[i] = i;
  for (std::size_t i = rank_to_index.size(); i > 1; --i) {
    std::swap(rank_to_index[i - 1],
              rank_to_index[prng.next_u64() % static_cast<std::uint64_t>(i)]);
  }
  // Zipf(1) cumulative weights over ranks.
  std::vector<double> cumulative;
  double total = 0.0;
  for (std::size_t r = 0; r < kServeAnalyzeInstances; ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative.push_back(total);
  }
  const std::size_t first_simulate = kServeAnalyzeInstances;
  const std::size_t first_search = first_simulate + kServeSimulate;
  std::vector<std::size_t> stream;
  stream.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    const double u = prng.uniform01();
    if (u < 0.80) {
      const double target = prng.uniform01() * total;
      const std::size_t rank = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), target) -
          cumulative.begin());
      stream.push_back(rank_to_index[std::min(rank, kServeAnalyzeInstances - 1)]);
    } else if (u < 0.92) {
      stream.push_back(first_simulate + prng.next_u64() % kServeSimulate);
    } else {
      stream.push_back(first_search + prng.next_u64() % kServeSearch);
    }
  }
  return stream;
}

}  // namespace perfbench
