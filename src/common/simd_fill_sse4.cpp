// SSE4.1 register shim: 2 lanes per 128-bit vector, four lane groups. SSE4.1
// (not plain SSE2) because the exact uint64 -> double conversion uses
// pblendw. Compiled with -msse4.1 when the compiler supports it; otherwise
// the table getter returns nullptr.
#include "common/simd_fill_kernel.hpp"

#if defined(__SSE4_1__)

#include <smmintrin.h>

namespace streamflow::simd {

namespace {

struct Sse4 {
  using Reg = __m128i;
  static constexpr std::size_t kWidth = 2;
  // NOLINTBEGIN(cppcoreguidelines-pro-type-reinterpret-cast)
  // The intrinsic load/store API takes __m128i*. load/store point at uint64_t
  // pairs inside LaneBlock's alignas(64) rows at an even lane, so every
  // 16-byte access is aligned and in-bounds; loadu/storeu address the
  // caller's uint64_t buffer, which has no alignment contract.
  static Reg load(const std::uint64_t* p) {
    return _mm_load_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void store(std::uint64_t* p, Reg r) {
    _mm_store_si128(reinterpret_cast<__m128i*>(p), r);
  }
  static Reg loadu(const std::uint64_t* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void storeu(std::uint64_t* p, Reg r) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), r);
  }
  // NOLINTEND(cppcoreguidelines-pro-type-reinterpret-cast)
  static Reg add(Reg a, Reg b) { return _mm_add_epi64(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm_xor_si128(a, b); }
  template <int K>
  static Reg shl(Reg a) { return _mm_slli_epi64(a, K); }
  template <int K>
  static Reg rotl(Reg a) {
    return _mm_or_si128(_mm_slli_epi64(a, K), _mm_srli_epi64(a, 64 - K));
  }
  static void transpose(Reg (&r)[2]) {
    const Reg lo = _mm_unpacklo_epi64(r[0], r[1]);
    r[1] = _mm_unpackhi_epi64(r[0], r[1]);
    r[0] = lo;
  }
  /// (r >> 11) * 2^-53 with an exact uint64 -> double split conversion for
  /// values < 2^53: build hi*2^32 and 2^52 + lo as exact doubles and
  /// recombine. Every step is exact below 2^53, so the result is
  /// bit-identical to static_cast<double>.
  static void store_u01(double* p, Reg r) {
    const Reg v = _mm_srli_epi64(r, 11);
    const __m128d k84 = _mm_set1_pd(19342813113834066795298816.);  // 2^84
    const __m128d k84_52 =
        _mm_set1_pd(19342813118337666422669312.);  // 2^84 + 2^52
    const Reg k52_bits =
        _mm_castpd_si128(_mm_set1_pd(4503599627370496.));  // bits of 2^52
    const Reg hi = _mm_or_si128(_mm_srli_epi64(v, 32), _mm_castpd_si128(k84));
    const Reg lo = _mm_blend_epi16(v, k52_bits, 0xcc);
    const __m128d f = _mm_sub_pd(_mm_castsi128_pd(hi), k84_52);
    const __m128d d = _mm_add_pd(f, _mm_castsi128_pd(lo));
    _mm_storeu_pd(p, _mm_mul_pd(d, _mm_set1_pd(0x1.0p-53)));
  }
};

}  // namespace

const Kernels* sse4_kernels() { return &FillKernel<Sse4>::kTable; }

}  // namespace streamflow::simd

#else  // !defined(__SSE4_1__)

const streamflow::simd::Kernels* streamflow::simd::sse4_kernels() {
  return nullptr;
}

#endif
