// The one xoshiro256++ block-fill kernel, written against a register shim.
//
// FillKernel<V> is instantiated once per ISA translation unit, each compiled
// with its own -m flags. V wraps one register of V::kWidth uint64 elements
// and provides:
//   load(p) / store(p, r)     aligned access to a LaneBlock row
//   loadu(p) / storeu(p, r)   unaligned access to a caller's uint64_t buffer
//   add(a, b), xor_(a, b), shl<K>(a), rotl<K>(a)
//   transpose(r)              in-place W x W transpose of 64-bit elements
//   store_u01(p, r)           unaligned store of (r >> 11) * 2^-53, exact
//
// Every shim lives in its TU's unnamed namespace, so every instantiation has
// internal linkage: the linker can never fold an AVX-512 copy of the kernel
// into the baseline-ISA TU. For the same reason this header defines no
// non-template inline function and the kernel calls no std:: helper.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/simd_fill.hpp"

namespace streamflow::simd {

/// The vector ISAs' tables; nullptr when that TU was compiled without its
/// ISA (non-x86 target or compiler without the flag).
const Kernels* sse4_kernels();
const Kernels* avx2_kernels();
const Kernels* avx512_kernels();

template <class V>
struct FillKernel {
  using Reg = typename V::Reg;
  static constexpr std::size_t W = V::kWidth;
  /// Lane groups of W lanes advanced in lockstep per pass. A vector group's
  /// recurrence is a serial dependency chain (~3 cycles per step), so the
  /// SSE4 and AVX2 shims interleave two; more would spill the lane states
  /// out of the SSE register file. One scalar lane already fills the core
  /// (two measured no faster, and GCC half-vectorizes the pair).
  static constexpr std::size_t kGroups = W == 1 || W == kLanes ? 1 : 2;
  static_assert(kLanes % (kGroups * W) == 0, "a pass covers whole groups");

  /// One xoshiro256++ step on W lanes — Prng::step(), element-wise.
  static Reg step(Reg (&s)[4]) {
    const Reg result = V::add(V::template rotl<23>(V::add(s[0], s[3])), s[0]);
    const Reg t = V::template shl<17>(s[1]);
    s[2] = V::xor_(s[2], s[0]);
    s[3] = V::xor_(s[3], s[1]);
    s[1] = V::xor_(s[1], s[2]);
    s[0] = V::xor_(s[0], s[3]);
    s[2] = V::xor_(s[2], t);
    s[3] = V::template rotl<45>(s[3]);
    return result;
  }

  /// Advance every lane per_lane steps, kGroups * W lanes per pass. Each
  /// loop step draws W values per group, transposes each W x W tile so
  /// register j holds W consecutive draws of lane j of the group, and hands
  /// it to emit(reg, index into the lane-major output).
  template <class Emit>
  static void run(LaneBlock& lanes, std::size_t per_lane, Emit emit) {
    for (std::size_t first = 0; first < kLanes; first += kGroups * W) {
      Reg q[kGroups][4]{};  // word w of the lanes first + g*W .. at q[g][w]
      for (std::size_t g = 0; g < kGroups; ++g) {
        for (std::size_t w = 0; w < 4; ++w) {
          q[g][w] = V::load(&lanes.s[w][first + g * W]);
        }
      }
      for (std::size_t i = 0; i < per_lane; i += W) {
        Reg r[kGroups][W]{};
        for (std::size_t u = 0; u < W; ++u) {
          for (std::size_t g = 0; g < kGroups; ++g) r[g][u] = step(q[g]);
        }
        for (std::size_t g = 0; g < kGroups; ++g) {
          V::transpose(r[g]);
          for (std::size_t j = 0; j < W; ++j) {
            emit(r[g][j], (first + g * W + j) * per_lane + i);
          }
        }
      }
      for (std::size_t g = 0; g < kGroups; ++g) {
        for (std::size_t w = 0; w < 4; ++w) {
          V::store(&lanes.s[w][first + g * W], q[g][w]);
        }
      }
    }
  }

  static void fill(LaneBlock& lanes, std::uint64_t* out, std::size_t per_lane) {
    run(lanes, per_lane,
        [out](Reg r, std::size_t at) { V::storeu(out + at, r); });
  }

  static void fill_u01(LaneBlock& lanes, double* out, std::size_t per_lane) {
    run(lanes, per_lane,
        [out](Reg r, std::size_t at) { V::store_u01(out + at, r); });
  }

  static void convert_u01(const std::uint64_t* in, double* out,
                          std::size_t n) {
    std::size_t i = 0;
    for (; i + W <= n; i += W) V::store_u01(out + i, V::loadu(in + i));
    for (; i < n; ++i) out[i] = static_cast<double>(in[i] >> 11) * 0x1.0p-53;
  }

  static constexpr Kernels kTable{&fill, &fill_u01, &convert_u01};
};

}  // namespace streamflow::simd
