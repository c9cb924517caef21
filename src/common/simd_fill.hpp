// SIMD xoshiro256++ block-fill kernels (the engine room of BufferedPrng).
//
// A kernel advances kLanes independent xoshiro256++ lane states in lock-step
// and writes each lane's draws CONTIGUOUSLY into the output block: lane j
// produces out[j*per_lane .. (j+1)*per_lane). BufferedPrng seeds lane j with
// the scalar stream state advanced j*per_lane steps (via a precomputed GF(2)
// jump matrix, see buffered_prng.cpp), so the filled block is byte-identical
// to per_lane*kLanes sequential scalar draws — batching never changes the
// stream, only how fast it is materialized.
//
// One kernel template, FillKernel<V> in simd_fill_kernel.hpp, holds the
// xoshiro step and the fill, fill_u01 and convert loops. Each ISA
// translation unit (simd_fill_{scalar,sse4,avx2,avx512}.cpp) only defines a
// register shim V — 1, 2, 4 or 8 uint64 per register — compiled with its own
// flags (-msse4.1 / -mavx2 / -mavx512f -mavx512dq, set per-source in
// CMakeLists.txt) so the rest of the library stays baseline-ISA, and
// publishes the instantiation as a Kernels table. Runtime dispatch,
// kernels(Isa), picks the best table the CPU actually supports (CPUID via
// __builtin_cpu_supports).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace streamflow::simd {

/// Number of xoshiro lanes every kernel advances: one AVX-512 vector, two
/// AVX2 vectors or four SSE vectors.
inline constexpr std::size_t kLanes = 8;

/// Lane states in structure-of-arrays layout: word w of lane j at s[w][j].
struct LaneBlock {
  alignas(64) std::uint64_t s[4][kLanes];
};

/// One ISA's kernels.
struct Kernels {
  /// Fill `out` with per_lane draws from each lane (lane j's run starting at
  /// out + j*per_lane), advancing the lane states in place. per_lane must be
  /// a positive multiple of 8 (the widest in-register transpose tile).
  void (*fill)(LaneBlock& lanes, std::uint64_t* out, std::size_t per_lane);
  /// Same contract, but emits uniform01() doubles instead of raw draws: each
  /// value is exactly u64_to_unit_double(raw draw) — the conversion is exact
  /// (53-bit operand, power-of-two scale), so vectorizing it cannot change a
  /// single bit relative to the scalar expression.
  void (*fill_u01)(LaneBlock& lanes, double* out, std::size_t per_lane);
  /// Elementwise out[i] = u64_to_unit_double(in[i]) for already-materialized
  /// raw draws (BufferedPrng's partial-block drains), any n, in/out
  /// disjoint. Same exactness guarantee as fill_u01.
  void (*convert_u01)(const std::uint64_t* in, double* out, std::size_t n);
};

/// Instruction sets a kernel can be compiled for, in preference order.
enum class Isa {
  kScalar,  ///< portable C++ fallback, always available
  kSse4,    ///< SSE4.1 (pblendw for the exact u64->double conversion)
  kAvx2,    ///< AVX2, 4 lanes per vector
  kAvx512,  ///< AVX-512 F+DQ: all 8 lanes in one vector, vprolq, vcvtuqq2pd
  kAuto,    ///< dispatch: best kernel compiled in AND supported by the CPU
};

const char* isa_name(Isa isa);

/// True when `isa`'s kernel is both compiled in and supported by this CPU.
bool isa_available(Isa isa);

/// The best available concrete ISA (what kAuto resolves to).
Isa best_isa();

/// Every concrete ISA available on this machine, scalar first — the
/// byte-equality tests iterate this to pin each compiled path.
std::vector<Isa> available_isas();

/// Resolve an ISA (including kAuto) to its kernel table. SF_REQUIREs that
/// the ISA is available.
const Kernels& kernels(Isa isa);

}  // namespace streamflow::simd
