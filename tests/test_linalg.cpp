#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/prng.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "linalg/stationary.hpp"

namespace streamflow {
namespace {

TEST(DenseMatrix, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(0, 2) = 3;
  a(1, 0) = 4;
  a(1, 1) = 5;
  a(1, 2) = 6;
  const Vector y = a.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const Vector z = a.multiply_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
  const DenseMatrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(Lu, SolvesKnownSystem) {
  DenseMatrix a(3, 3);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(0, 2) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  a(1, 2) = 2;
  a(2, 0) = 1;
  a(2, 1) = 0;
  a(2, 2) = 0;
  // x = (1, 2, 3): b = (2+2+3, 1+6+6, 1) = (7, 13, 1).
  const Vector x = solve_dense(a, {7.0, 13.0, 1.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(Lu, RandomRoundTrip) {
  Prng prng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + prng.uniform_index(30);
    DenseMatrix a(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c) a(r, c) = prng.uniform(-2.0, 2.0);
    // Diagonal dominance guarantees non-singularity.
    for (std::size_t r = 0; r < n; ++r) a(r, r) += 4.0 * static_cast<double>(n);
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = prng.uniform(-1.0, 1.0);
    const Vector b = a.multiply(x_true);
    const Vector x = solve_dense(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Lu, DetectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, NumericalError);
}

TEST(Lu, Determinant) {
  DenseMatrix a(2, 2);
  a(0, 0) = 3;
  a(0, 1) = 1;
  a(1, 0) = 2;
  a(1, 1) = 4;
  EXPECT_NEAR(LuFactorization{a}.determinant(), 10.0, 1e-12);
}

TEST(Csr, AssemblesAndMultiplies) {
  std::vector<Triplet> t{{0, 1, 2.0}, {1, 0, 3.0}, {1, 2, 1.0}, {0, 1, 0.5}};
  CsrMatrix m(2, 3, t);
  EXPECT_EQ(m.nonzeros(), 3u);  // duplicate (0,1) merged
  const auto y = m.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 2.5);
  EXPECT_DOUBLE_EQ(y[1], 4.0);
  const auto z = m.multiply_transpose({1.0, 2.0});
  EXPECT_DOUBLE_EQ(z[0], 6.0);
  EXPECT_DOUBLE_EQ(z[1], 2.5);
  EXPECT_DOUBLE_EQ(z[2], 2.0);
}

TEST(Csr, RejectsOutOfRange) {
  std::vector<Triplet> t{{5, 0, 1.0}};
  EXPECT_THROW(CsrMatrix(2, 2, t), InvalidArgument);
}

TEST(Stationary, TwoStateChain) {
  // 0 -> 1 at rate a, 1 -> 0 at rate b: pi = (b, a) / (a + b).
  const double a = 2.0, b = 5.0;
  DenseMatrix q(2, 2);
  q(0, 0) = -a;
  q(0, 1) = a;
  q(1, 0) = b;
  q(1, 1) = -b;
  const Vector pi = stationary_dense(q);
  EXPECT_NEAR(pi[0], b / (a + b), 1e-12);
  EXPECT_NEAR(pi[1], a / (a + b), 1e-12);
  EXPECT_LT(stationary_residual(q, pi), 1e-12);
}

TEST(Stationary, BirthDeathMatchesMm1k) {
  // M/M/1/K with arrival l, service mu: pi_i ~ (l/mu)^i.
  const double l = 1.0, mu = 2.0;
  const std::size_t k = 6;
  DenseMatrix q(k + 1, k + 1);
  for (std::size_t i = 0; i <= k; ++i) {
    if (i < k) {
      q(i, i + 1) = l;
      q(i, i) -= l;
    }
    if (i > 0) {
      q(i, i - 1) = mu;
      q(i, i) -= mu;
    }
  }
  const Vector pi = stationary_dense(q);
  const double rho = l / mu;
  double norm = 0.0;
  for (std::size_t i = 0; i <= k; ++i) norm += std::pow(rho, i);
  for (std::size_t i = 0; i <= k; ++i)
    EXPECT_NEAR(pi[i], std::pow(rho, i) / norm, 1e-12) << "state " << i;
}

/// Random strongly connected generator on n states: a cycle plus random
/// extra edges, as dense Q and as an in-edge generator (edges grouped by
/// target in insertion order).
InEdgeGenerator random_generator(Prng& prng, std::size_t n, DenseMatrix& q) {
  std::vector<std::vector<std::pair<std::size_t, double>>> in(n);
  q = DenseMatrix(n, n, 0.0);
  auto add = [&](std::size_t i, std::size_t j, double r) {
    in[j].emplace_back(i, r);
    q(i, j) += r;
    q(i, i) -= r;
  };
  for (std::size_t i = 0; i < n; ++i)
    add(i, (i + 1) % n, prng.uniform(0.5, 2.0));
  for (std::size_t e = 0; e < 2 * n; ++e) {
    const std::size_t i = prng.uniform_index(n);
    const std::size_t j = prng.uniform_index(n);
    if (i != j) add(i, j, prng.uniform(0.1, 1.0));
  }
  InEdgeGenerator g;
  g.offset.push_back(0);
  for (std::size_t j = 0; j < n; ++j) {
    for (const auto& [i, r] : in[j]) {
      g.source.push_back(static_cast<std::uint32_t>(i));
      g.rate.push_back(r);
    }
    g.offset.push_back(static_cast<std::uint32_t>(g.source.size()));
    g.exit.push_back(-q(j, j));
  }
  return g;
}

double max_exit_rate(const DenseMatrix& q) {
  double m = 0.0;
  for (std::size_t i = 0; i < q.rows(); ++i) m = std::max(m, -q(i, i));
  return m;
}

TEST(Stationary, GaussSeidelAgreesWithDense) {
  Prng prng(1234);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + prng.uniform_index(20);
    DenseMatrix q;
    const auto g = random_generator(prng, n, q);
    const Vector pi_dense = stationary_dense(q);
    StationarySolveStats stats;
    const Vector pi_iter = stationary_gauss_seidel(g, {}, &stats);
    EXPECT_EQ(stats.backend, StationaryBackend::kGaussSeidel);
    EXPECT_GT(stats.sweeps, 0u);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_NEAR(pi_dense[i], pi_iter[i], 1e-10) << "state " << i;
  }
}

TEST(Stationary, GaussSeidelResidualIsRecomputable) {
  // The reported residual is || pi Q ||_1 / max exit rate of the returned pi,
  // recomputed here on the dense generator (summation order differs, so
  // agreement is to round-off of the O(1) terms).
  Prng prng(77);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 3 + prng.uniform_index(40);
    DenseMatrix q;
    const auto g = random_generator(prng, n, q);
    const StationaryOptions options;
    StationarySolveStats stats;
    const Vector pi = stationary_gauss_seidel(g, options, &stats);
    const double recomputed = stationary_residual(q, pi) / max_exit_rate(q);
    EXPECT_LT(stats.residual, options.tolerance);
    EXPECT_LT(recomputed, options.tolerance);
    EXPECT_NEAR(stats.residual, recomputed, 1e-14);
    double sum = 0.0;
    for (double p : pi) sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-15);
  }
}

TEST(Stationary, GaussSeidelRejectsStatesWithoutExit) {
  // State 1 is absorbing: no stationary distribution of the irreducible
  // kind the sweep assumes.
  InEdgeGenerator g;
  g.offset = {0, 0, 1};
  g.source = {0};
  g.rate = {1.0};
  g.exit = {1.0, 0.0};
  EXPECT_THROW(stationary_gauss_seidel(g), NumericalError);
}

TEST(Stationary, RejectsEmptyAndNonSquare) {
  EXPECT_THROW(stationary_dense(DenseMatrix(0, 0)), InvalidArgument);
  EXPECT_THROW(stationary_dense(DenseMatrix(2, 3)), InvalidArgument);
}

}  // namespace
}  // namespace streamflow
