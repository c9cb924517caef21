// AVX2 register shim: 4 lanes per 256-bit vector, two lane groups. Compiled
// with -mavx2 when the compiler supports it (see CMakeLists.txt); otherwise
// the table getter returns nullptr and dispatch falls back to SSE4/scalar.
#include "common/simd_fill_kernel.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace streamflow::simd {

namespace {

struct Avx2 {
  using Reg = __m256i;
  static constexpr std::size_t kWidth = 4;
  // NOLINTBEGIN(cppcoreguidelines-pro-type-reinterpret-cast)
  // The intrinsic load/store API takes __m256i*. load/store point at uint64_t
  // quads inside LaneBlock's alignas(64) rows at lane 0 or 4, so every
  // 32-byte access is aligned and in-bounds; loadu/storeu address the
  // caller's uint64_t buffer, which has no alignment contract.
  static Reg load(const std::uint64_t* p) {
    return _mm256_load_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(std::uint64_t* p, Reg r) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(p), r);
  }
  static Reg loadu(const std::uint64_t* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void storeu(std::uint64_t* p, Reg r) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), r);
  }
  // NOLINTEND(cppcoreguidelines-pro-type-reinterpret-cast)
  static Reg add(Reg a, Reg b) { return _mm256_add_epi64(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm256_xor_si256(a, b); }
  template <int K>
  static Reg shl(Reg a) { return _mm256_slli_epi64(a, K); }
  template <int K>
  static Reg rotl(Reg a) {
    return _mm256_or_si256(_mm256_slli_epi64(a, K),
                           _mm256_srli_epi64(a, 64 - K));
  }
  static void transpose(Reg (&r)[4]) {
    const Reg t0 = _mm256_unpacklo_epi64(r[0], r[1]);
    const Reg t1 = _mm256_unpackhi_epi64(r[0], r[1]);
    const Reg t2 = _mm256_unpacklo_epi64(r[2], r[3]);
    const Reg t3 = _mm256_unpackhi_epi64(r[2], r[3]);
    r[0] = _mm256_permute2x128_si256(t0, t2, 0x20);
    r[1] = _mm256_permute2x128_si256(t1, t3, 0x20);
    r[2] = _mm256_permute2x128_si256(t0, t2, 0x31);
    r[3] = _mm256_permute2x128_si256(t1, t3, 0x31);
  }
  /// (r >> 11) * 2^-53 with the exact split conversion of the SSE4 shim
  /// (see simd_fill_sse4.cpp for the exactness argument).
  static void store_u01(double* p, Reg r) {
    const Reg v = _mm256_srli_epi64(r, 11);
    const __m256d k84 = _mm256_set1_pd(19342813113834066795298816.);  // 2^84
    const __m256d k84_52 =
        _mm256_set1_pd(19342813118337666422669312.);  // 2^84 + 2^52
    const Reg k52_bits =
        _mm256_castpd_si256(_mm256_set1_pd(4503599627370496.));  // 2^52
    const Reg hi =
        _mm256_or_si256(_mm256_srli_epi64(v, 32), _mm256_castpd_si256(k84));
    const Reg lo = _mm256_blend_epi16(v, k52_bits, 0xcc);
    const __m256d f = _mm256_sub_pd(_mm256_castsi256_pd(hi), k84_52);
    const __m256d d = _mm256_add_pd(f, _mm256_castsi256_pd(lo));
    _mm256_storeu_pd(p, _mm256_mul_pd(d, _mm256_set1_pd(0x1.0p-53)));
  }
};

}  // namespace

const Kernels* avx2_kernels() { return &FillKernel<Avx2>::kTable; }

}  // namespace streamflow::simd

#else  // !defined(__AVX2__)

const streamflow::simd::Kernels* streamflow::simd::avx2_kernels() {
  return nullptr;
}

#endif
