// Output checks of the benchmark. Each check is tolerance-based, never
// bit-pinned, so a solver change that moves results within the stated
// tolerance lands without touching the benchmark. A failed check counts
// its operation in `failed` (the error rate is failed / attempted).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>

namespace perfbench {

/// Relative tolerance of analyze results against the stored reference.
inline constexpr double kAnalyzeRelTol = 1e-6;
/// Relative tolerance of a traced replay against the untraced answer where
/// the two sum the same terms in a different order (a few ulps).
inline constexpr double kReplayRelTol = 1e-12;
/// Relative slack of the search-score floor (score >= reference * (1 - tol)).
inline constexpr double kSearchRelTol = 1e-6;
/// Width of the simulation acceptance band in standard errors: the
/// two-sided 99.9% normal quantile. A literal 95% interval would flag one
/// configuration in twenty by chance alone.
inline constexpr double kSimZ = 3.29;

/// Stored reference answers, keyed by (kind, class, variant).
class Reference {
 public:
  /// Parses the reference file; throws std::runtime_error on a malformed
  /// or missing file.
  static Reference load(const std::string& path);
  void save(const std::string& path) const;

  void set(const std::string& kind, const std::string& name,
           std::size_t variant, double a, double b = 0.0);
  /// Whether an entry exists, and its values.
  bool find(const std::string& kind, const std::string& name,
            std::size_t variant, double& a, double& b) const;

 private:
  std::map<std::tuple<std::string, std::string, std::size_t>,
           std::pair<double, double>>
      entries_;
};

bool within_relative(double value, double reference, double tolerance);

/// analyze: both throughputs within kAnalyzeRelTol of the reference, and
/// Theorem 7's rho_exp <= rho_det.
bool analyze_ok(double det, double exp, double ref_det, double ref_exp);

/// search: the best score is at least the reference score.
bool search_ok(double score, double ref_score);

/// simulate: the replicated mean lies within kSimZ standard errors of the
/// analytic exponential throughput (exponential laws), or inside the
/// N.B.U.E. sandwich [rho_exp, rho_det] widened by the same band. Laws
/// outside both families only need a finite positive mean.
/// `ci95` is the normal-theory 95% half-width the engine reports.
bool simulate_ok(double mean, double ci95, double exp_analytic,
                 double det_analytic, bool exponential_law, bool nbue_law);

/// serve: the response is ok:true and byte-equal to the storeless
/// reference answer of the same line.
bool serve_ok(const std::string& response, const std::string& reference);

}  // namespace perfbench
