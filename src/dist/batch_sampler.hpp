// BatchSampler: one law + one BufferedPrng substream + a small variate
// cache, the unit the simulators hold per resource (per transition, per
// team member, per multiplier slot). next() serves from the cache and
// refills it through Distribution::sample_batch, so inversion families get
// the vectorized transform path while rejection families transparently fall
// back to the scalar loop over the same buffered raw stream — either way the
// variate sequence per substream is exactly sample(), sample(), ...
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/buffered_prng.hpp"
#include "dist/distribution.hpp"

namespace streamflow {

/// How the simulators consume randomness (see sim/teg_sim.hpp,
/// sim/pipeline_sim.hpp for which option lives where).
enum class SamplingMode {
  /// One pure split() substream per resource, each served through a
  /// SIMD-refilled BatchSampler. The default: same statistics, deterministic
  /// for a given (inputs, seed), and several times faster.
  kBatched,
  /// The legacy discipline: every draw comes one call at a time from the
  /// single injected stream, in program order. Kept as the reference the
  /// batched path is benchmarked (and sanity-checked) against.
  kScalarCompat,
};

class BatchSampler {
 public:
  /// Most variates cached per refill: small enough that a stream consuming a
  /// few hundred draws wastes little transform work past the end.
  static constexpr std::size_t kMaxVariateCache = 128;

  /// Variates cached per refill on a raw block of `raw_block_draws`: a
  /// quarter of the block, between 16 and kMaxVariateCache. A short block
  /// belongs to a stream that consumes few draws, which should not transform
  /// far past its end.
  static constexpr std::size_t variate_cache(std::size_t raw_block_draws) {
    return std::clamp<std::size_t>(raw_block_draws / 4, 16, kMaxVariateCache);
  }

  BatchSampler(DistributionPtr law, const Prng& stream, simd::Isa isa,
               std::size_t raw_block_draws)
      : law_(std::move(law)),
        prng_(stream, isa, raw_block_draws),
        cache_(variate_cache(raw_block_draws)) {}

  double next() {
    if (pos_ == end_) refill();
    return cache_[pos_++];
  }

 private:
  void refill() {
    law_->sample_batch(prng_, cache_.data(), cache_.size());
    pos_ = 0;
    end_ = cache_.size();
  }

  DistributionPtr law_;
  BufferedPrng prng_;
  std::vector<double> cache_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

}  // namespace streamflow
