#include "linalg/stationary.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "common/error.hpp"

namespace streamflow {

Vector stationary_dense(const DenseMatrix& q) {
  SF_REQUIRE(q.rows() == q.cols(), "generator must be square");
  const std::size_t n = q.rows();
  SF_REQUIRE(n > 0, "generator must be non-empty");
  // Solve A pi = b with A = Q^T whose last row is replaced by the
  // normalization constraint sum(pi) = 1.
  DenseMatrix a = q.transpose();
  for (std::size_t c = 0; c < n; ++c) a(n - 1, c) = 1.0;
  Vector b(n, 0.0);
  b[n - 1] = 1.0;
  Vector pi = solve_dense(std::move(a), b);
  // Clamp tiny negative round-off and renormalize.
  double sum = 0.0;
  for (double& p : pi) {
    if (p < 0.0 && p > -1e-9) p = 0.0;
    if (p < 0.0) {
      throw NumericalError(
          "stationary_dense produced a significantly negative probability; "
          "the chain may have multiple recurrent classes");
    }
    sum += p;
  }
  SF_ASSERT(sum > 0.0, "stationary distribution sums to zero");
  for (double& p : pi) p /= sum;
  return pi;
}

namespace {

/// || pi Q ||_1 over an in-edge generator.
double in_edge_residual(const InEdgeGenerator& q, const Vector& pi) {
  double acc = 0.0;
  for (std::size_t j = 0; j < pi.size(); ++j) {
    double r = -pi[j] * q.exit[j];
    for (std::uint32_t k = q.offset[j]; k < q.offset[j + 1]; ++k)
      r += pi[q.source[k]] * q.rate[k];
    acc += std::fabs(r);
  }
  return acc;
}

}  // namespace

Vector stationary_gauss_seidel(const InEdgeGenerator& q,
                               const StationaryOptions& options,
                               StationarySolveStats* stats) {
  const std::size_t n = q.num_states();
  SF_REQUIRE(n > 0, "generator must be non-empty");
  SF_REQUIRE(options.max_iterations > 0, "need at least one sweep");
  SF_REQUIRE(q.offset.size() == n + 1 && q.source.size() == q.rate.size() &&
                 q.offset[n] == q.source.size(),
             "malformed in-edge generator");
  StationarySolveStats done;
  done.backend = StationaryBackend::kGaussSeidel;
  Vector pi(n, 1.0 / static_cast<double>(n));
  if (n == 1) {
    if (stats != nullptr) *stats = done;
    return pi;
  }
  double max_exit = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    if (!(q.exit[j] > 0.0)) {
      throw NumericalError("stationary_gauss_seidel: state " +
                           std::to_string(j) +
                           " has no exit rate; the chain is not irreducible");
    }
    max_exit = std::max(max_exit, q.exit[j]);
  }

  const std::uint32_t* offset = q.offset.data();
  const std::uint32_t* source = q.source.data();
  const double* rate = q.rate.data();
  double residual = 0.0;
  for (std::size_t sweep = 1; sweep <= options.max_iterations; ++sweep) {
    // In place: in-edges from states already swept read this sweep's values.
    // The residual of the swept vector at j is sum_{i > j} (pi_i' - pi_i)
    // q_ij, so sum_i exit_i |pi_i' - pi_i| bounds its L1 norm.
    double bound = 0.0;
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      double inflow = 0.0;
      for (std::uint32_t k = offset[j]; k < offset[j + 1]; ++k)
        inflow += pi[source[k]] * rate[k];
      const double next = inflow / q.exit[j];
      bound += q.exit[j] * std::fabs(next - pi[j]);
      pi[j] = next;
      sum += next;
    }
    for (double& p : pi) p /= sum;
    const bool last = sweep == options.max_iterations;
    if (bound / (sum * max_exit) < options.tolerance || last) {
      residual = in_edge_residual(q, pi) / max_exit;
      if (residual < options.tolerance) {
        done.sweeps = sweep;
        done.residual = residual;
        if (stats != nullptr) *stats = done;
        return pi;
      }
    }
  }
  std::ostringstream message;
  message << "stationary_gauss_seidel did not converge (sweeps: "
          << options.max_iterations << ", residual reached: " << residual
          << ", tolerance: " << options.tolerance << ")";
  throw NumericalError(message.str());
}

double stationary_residual(const DenseMatrix& q, const Vector& pi) {
  const Vector r = q.multiply_transpose(pi);
  double acc = 0.0;
  for (double v : r) acc += std::fabs(v);
  return acc;
}

}  // namespace streamflow
