// Stationary distributions of finite-state CTMCs: pi Q = 0, sum(pi) = 1.
//
// Two back-ends, picked by the caller (markov/throughput) from the state
// count alone:
//  * dense direct solve (LU) — exact up to FP, used for small chains;
//  * in-place Gauss–Seidel sweeps over the generator's in-edges — used for
//    the large reachability graphs of Theorem 2 and the Theorem 3/4 pattern
//    chains. It stops on a residual bound, not on the change between sweeps.
// Both report the same solve-quality figure: the normalized residual
// || pi Q ||_1 / max_i q_i of the returned, normalized pi, where q_i is the
// exit rate of state i.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/dense.hpp"

namespace streamflow {

struct StationaryOptions {
  /// The Gauss–Seidel solve returns only once the normalized residual
  /// || pi Q ||_1 / max exit rate of the returned pi is below this.
  double tolerance = 1e-12;
  /// Sweep cap of the Gauss–Seidel solve.
  std::size_t max_iterations = 2'000'000;
};

/// Which stationary solver ran for a chain.
enum class StationaryBackend {
  kDense,        ///< direct dense LU on the full generator
  kGaussSeidel,  ///< in-place Gauss–Seidel sweeps over the in-edge CSR
};

/// What one stationary solve did, carried up to the throughput results.
struct StationarySolveStats {
  StationaryBackend backend = StationaryBackend::kDense;
  /// Gauss–Seidel sweeps performed; 0 for the direct dense solve.
  std::size_t sweeps = 0;
  /// Normalized residual || pi Q ||_1 / max exit rate of the returned pi
  /// (for Gauss–Seidel, strictly below StationaryOptions::tolerance).
  double residual = 0.0;
};

/// The off-diagonal part of a CTMC generator grouped by target state:
/// state j's in-edges are the entries [offset[j], offset[j + 1]) of
/// `source` (the state the edge leaves) and `rate`. Parallel edges may
/// repeat a source. `exit[i]` is the total off-diagonal rate out of i, so
/// q_ii = -exit[i]. Indices are 32-bit, which halves the index memory of
/// the sweep; a chain past 2^32 states or edges could not have been
/// explored in memory anyway.
struct InEdgeGenerator {
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> source;
  std::vector<double> rate;
  std::vector<double> exit;

  std::size_t num_states() const { return exit.size(); }
};

/// Direct solve for the stationary distribution of generator Q (dense).
/// Q must be a proper generator: non-negative off-diagonals, zero row sums.
/// Assumes a single recurrent class (true for our reachability CTMCs, which
/// are strongly connected by liveness of the event graph).
Vector stationary_dense(const DenseMatrix& q);

/// Gauss–Seidel solve of pi Q = 0: each sweep sets, in state order,
/// pi_j = sum_i pi_i q_ij / exit_j from the freshest values, then
/// renormalizes. After sweep k the residual of the swept vector is at most
/// sum_j exit_j |pi_j^(k) - pi_j^(k-1)|; once that bound drops under the
/// tolerance the exact residual of the normalized pi is computed, and the
/// solve returns when it is under the tolerance too. Every state needs a
/// positive exit rate (an irreducible chain). Throws NumericalError after
/// options.max_iterations sweeps, naming the sweeps done and the residual
/// reached. A non-null `stats` receives the sweeps and final residual.
Vector stationary_gauss_seidel(const InEdgeGenerator& q,
                               const StationaryOptions& options = {},
                               StationarySolveStats* stats = nullptr);

/// Residual || pi Q ||_1 for verification (dense Q).
double stationary_residual(const DenseMatrix& q, const Vector& pi);

}  // namespace streamflow
