/// \file simd.hpp
/// The vector vocabulary of the float kernels: lanes as GCC/Clang vector
/// extensions, unaligned load/store/fill, and the widest width the CPU runs.
///
/// Vec<1> is SSE2, Vec<2> AVX2 and Vec<4> AVX-512. Wide vectors never appear
/// by value in the signature of a function without a target attribute (that
/// would change its ABI), so the helpers take them by reference and are
/// always inlined into their target-specific caller. Every file that uses
/// them is built with -ffp-contract=off: a kernel keeps its bits at every
/// width only while no multiply-add is fused.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace gnntrans::tensor::simd {

template <int W>
struct Vec {
  typedef float f __attribute__((vector_size(16 * W)));
  typedef std::int32_t i __attribute__((vector_size(16 * W)));
};
using v4sf = Vec<1>::f;

// Unaligned loads/stores: correctness never depends on buffer alignment.
// V is a float or a vector of them. The helpers have internal linkage, as
// they had in the plan's own file: with external linkage g++ 12 schedules
// the plan's passes a few instructions differently.
template <class V>
[[gnu::always_inline]] static inline void load(V& v, const float* p) {
  std::memcpy(&v, p, sizeof(V));
}
template <class V>
[[gnu::always_inline]] static inline void store(float* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}
/// v := x in every lane. GCC turns the lane loop into one broadcast at AVX2
/// and AVX-512, but into one insert per lane at SSE2, where the four-lane
/// literal becomes one shuffle instead.
template <class V>
[[gnu::always_inline]] static inline void fill(V& v, float x) {
  if constexpr (std::is_same_v<V, float>) {
    v = x;
  } else if constexpr (sizeof(V) == 16) {
    v = V{x, x, x, x};
  } else {
    for (std::size_t l = 0; l < sizeof(V) / sizeof(float); ++l) v[l] = x;
  }
}

/// Float lanes of the widest vectors this CPU runs: 16 with AVX-512F, 8
/// with AVX2, else 4 (SSE2, part of every x86-64).
[[nodiscard]] inline std::size_t widest_lanes() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") ? 16
         : __builtin_cpu_supports("avx2")  ? 8
                                           : 4;
}

}  // namespace gnntrans::tensor::simd
