// The W = 1 register shim (portable C++, always compiled) and the runtime ISA
// dispatch.
#include "common/error.hpp"
#include "common/simd_fill_kernel.hpp"

namespace streamflow::simd {

namespace {

struct Scalar {
  using Reg = std::uint64_t;
  static constexpr std::size_t kWidth = 1;
  static Reg load(const std::uint64_t* p) { return *p; }
  static void store(std::uint64_t* p, Reg r) { *p = r; }
  static Reg loadu(const std::uint64_t* p) { return *p; }
  static void storeu(std::uint64_t* p, Reg r) { *p = r; }
  static Reg add(Reg a, Reg b) { return a + b; }
  static Reg xor_(Reg a, Reg b) { return a ^ b; }
  template <int K>
  static Reg shl(Reg a) { return a << K; }
  template <int K>
  static Reg rotl(Reg a) { return (a << K) | (a >> (64 - K)); }
  static void transpose(Reg (&)[1]) {}
  static void store_u01(double* p, Reg r) {
    *p = static_cast<double>(r >> 11) * 0x1.0p-53;
  }
};

/// `isa`'s table when it is compiled in and this CPU supports it, else
/// nullptr.
const Kernels* available_table(Isa isa) {
  if (isa == Isa::kScalar || isa == Isa::kAuto) {
    return &FillKernel<Scalar>::kTable;
  }
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
  if (isa == Isa::kSse4 && __builtin_cpu_supports("sse4.1")) {
    return sse4_kernels();
  }
  if (isa == Isa::kAvx2 && __builtin_cpu_supports("avx2")) {
    return avx2_kernels();
  }
  if (isa == Isa::kAvx512 && __builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    return avx512_kernels();
  }
#endif
  return nullptr;
}

}  // namespace

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kSse4:
      return "sse4";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
    case Isa::kAuto:
      return "auto";
  }
  return "?";
}

bool isa_available(Isa isa) { return available_table(isa) != nullptr; }

Isa best_isa() {
  static const Isa best = [] {
    for (const Isa isa : {Isa::kAvx512, Isa::kAvx2, Isa::kSse4}) {
      if (isa_available(isa)) return isa;
    }
    return Isa::kScalar;
  }();
  return best;
}

std::vector<Isa> available_isas() {
  std::vector<Isa> isas{Isa::kScalar};
  for (const Isa isa : {Isa::kSse4, Isa::kAvx2, Isa::kAvx512}) {
    if (isa_available(isa)) isas.push_back(isa);
  }
  return isas;
}

const Kernels& kernels(Isa isa) {
  if (isa == Isa::kAuto) isa = best_isa();
  const Kernels* table = available_table(isa);
  SF_REQUIRE(table != nullptr, "requested SIMD ISA is not available");
  return *table;
}

}  // namespace streamflow::simd
