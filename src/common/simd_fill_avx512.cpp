// AVX-512 register shim: all 8 lanes in one 512-bit vector, one lane group.
// Two ISA advantages over the AVX2 shim: vprolq rotates in one instruction
// (vs shift/shift/or), and vcvtuqq2pd (AVX-512DQ) converts uint64 -> double
// in one instruction — exact for operands below 2^53, which every
// right-shifted draw is, so it is bit-identical to the scalar
// static_cast<double>. Compiled with -mavx512f -mavx512dq when the compiler
// supports them (see CMakeLists.txt); otherwise the table getter returns
// nullptr and dispatch falls back to AVX2/SSE4/scalar.
#include "common/simd_fill_kernel.hpp"

#if defined(__AVX512F__) && defined(__AVX512DQ__)

#include <immintrin.h>

namespace streamflow::simd {

namespace {

struct Avx512 {
  using Reg = __m512i;
  static constexpr std::size_t kWidth = 8;
  // NOLINTBEGIN(cppcoreguidelines-pro-type-reinterpret-cast)
  // The 512-bit load/store intrinsics take void*. load/store cover one whole
  // alignas(64) LaneBlock row (8 lanes x 8 bytes), so every 64-byte access is
  // aligned and exactly in-bounds; loadu/storeu address the caller's
  // uint64_t buffer, which has no alignment contract.
  static Reg load(const std::uint64_t* p) {
    return _mm512_load_si512(reinterpret_cast<const void*>(p));
  }
  static void store(std::uint64_t* p, Reg r) {
    _mm512_store_si512(reinterpret_cast<void*>(p), r);
  }
  static Reg loadu(const std::uint64_t* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  static void storeu(std::uint64_t* p, Reg r) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), r);
  }
  // NOLINTEND(cppcoreguidelines-pro-type-reinterpret-cast)
  static Reg add(Reg a, Reg b) { return _mm512_add_epi64(a, b); }
  static Reg xor_(Reg a, Reg b) { return _mm512_xor_si512(a, b); }
  template <int K>
  static Reg shl(Reg a) { return _mm512_slli_epi64(a, K); }
  template <int K>
  static Reg rotl(Reg a) { return _mm512_rol_epi64(a, K); }
  /// 8x8 transpose of 64-bit elements. Classic three-stage butterfly: 64-bit
  /// unpacks, then two rounds of 128-bit block shuffles.
  static void transpose(Reg (&r)[8]) {
    Reg t[8], u[8];
    for (int k = 0; k < 8; k += 2) {
      t[k] = _mm512_unpacklo_epi64(r[k], r[k + 1]);
      t[k + 1] = _mm512_unpackhi_epi64(r[k], r[k + 1]);
    }
    for (int k = 0; k < 8; k += 4) {
      u[k] = _mm512_shuffle_i64x2(t[k], t[k + 2], 0x88);
      u[k + 1] = _mm512_shuffle_i64x2(t[k + 1], t[k + 3], 0x88);
      u[k + 2] = _mm512_shuffle_i64x2(t[k], t[k + 2], 0xdd);
      u[k + 3] = _mm512_shuffle_i64x2(t[k + 1], t[k + 3], 0xdd);
    }
    for (int k = 0; k < 4; ++k) {
      r[k] = _mm512_shuffle_i64x2(u[k], u[k + 4], 0x88);
      r[k + 4] = _mm512_shuffle_i64x2(u[k], u[k + 4], 0xdd);
    }
  }
  static void store_u01(double* p, Reg r) {
    const __m512d d = _mm512_cvtepu64_pd(_mm512_srli_epi64(r, 11));
    _mm512_storeu_pd(p, _mm512_mul_pd(d, _mm512_set1_pd(0x1.0p-53)));
  }
};

}  // namespace

const Kernels* avx512_kernels() { return &FillKernel<Avx512>::kTable; }

}  // namespace streamflow::simd

#else  // !(defined(__AVX512F__) && defined(__AVX512DQ__))

const streamflow::simd::Kernels* streamflow::simd::avx512_kernels() {
  return nullptr;
}

#endif
