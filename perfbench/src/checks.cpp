#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Reference Reference::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file " + path);
  Reference reference;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string kind;
    std::string name;
    std::size_t variant = 0;
    double a = 0.0;
    double b = 0.0;
    if (!(fields >> kind >> name >> variant >> a >> b)) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) +
                               ": malformed reference entry");
    }
    reference.set(kind, name, variant, a, b);
  }
  return reference;
}

void Reference::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write reference file " + path);
  out << "# perfbench stored reference: kind class variant a b\n"
      << "#   analyze: a = deterministic, b = exponential throughput\n"
      << "#   search:  a = best score found, b = unused\n";
  char buffer[256];
  for (const auto& [key, values] : entries_) {
    std::snprintf(buffer, sizeof(buffer), "%s %s %zu %.17g %.17g\n",
                  std::get<0>(key).c_str(), std::get<1>(key).c_str(),
                  std::get<2>(key), values.first, values.second);
    out << buffer;
  }
}

void Reference::set(const std::string& kind, const std::string& name,
                    std::size_t variant, double a, double b) {
  entries_[{kind, name, variant}] = {a, b};
}

bool Reference::find(const std::string& kind, const std::string& name,
                     std::size_t variant, double& a, double& b) const {
  const auto it = entries_.find({kind, name, variant});
  if (it == entries_.end()) return false;
  a = it->second.first;
  b = it->second.second;
  return true;
}

bool within_relative(double value, double reference, double tolerance) {
  if (!std::isfinite(value) || !std::isfinite(reference)) return false;
  return std::fabs(value - reference) <= tolerance * std::fabs(reference);
}

bool analyze_ok(double det, double exp, double ref_det, double ref_exp) {
  return within_relative(det, ref_det, kAnalyzeRelTol) &&
         within_relative(exp, ref_exp, kAnalyzeRelTol) &&
         exp <= det * (1.0 + kAnalyzeRelTol);
}

bool search_ok(double score, double ref_score) {
  return std::isfinite(score) && score >= ref_score * (1.0 - kSearchRelTol);
}

bool simulate_ok(double mean, double ci95, double exp_analytic,
                 double det_analytic, bool exponential_law, bool nbue_law) {
  if (!std::isfinite(mean) || mean <= 0.0 || !std::isfinite(ci95)) {
    return false;
  }
  const double band = ci95 * kSimZ / 1.96;
  if (exponential_law) return std::fabs(mean - exp_analytic) <= band;
  if (nbue_law) {
    return mean >= exp_analytic - band && mean <= det_analytic + band;
  }
  return true;
}

bool serve_ok(const std::string& response, const std::string& reference) {
  return response == reference &&
         response.find("\"ok\":true") != std::string::npos;
}

}  // namespace perfbench
