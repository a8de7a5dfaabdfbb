#include "tensor/vector_exp.hpp"

// g++ 12 warns that the AVX-512 intrinsics' own _mm512_undefined_*() start
// values "may be used uninitialized" once they are inlined at -O2; they are
// not read.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace gnntrans::tensor {

namespace {

// glibc 2.36's __exp2f_data, the fields __expf_fma reads (objdump -s of
// e_exp2f_data.o in libm.a): kTable[i] is the bit pattern of 2^(i / 32)
// less i << 47, so that adding k << 47 for any k = i mod 32 gives 2^(k / 32).
alignas(64) constexpr std::uint64_t kTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f, 0x3fef9301d0125b51,
    0x3fef72b83c7d517b, 0x3fef54873168b9aa, 0x3fef387a6e756238, 0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715, 0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429, 0x3feea47eb03a5585,
    0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74, 0x3feea11473eb0187, 0x3feea589994cce13,
    0x3feeace5422aa0db, 0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c, 0x3fef3720dcef9069,
    0x3fef5818dcfba487, 0x3fef7c97337b9b5f, 0x3fefa4afa2a490da, 0x3fefd0765b6e4540};
constexpr double kInvLn2N = 0x1.71547652b82fep+5;  ///< 32 / ln 2
constexpr double kShift = 0x1.8p52;  ///< rounds a double below 2^51 to an integer
constexpr double kC0 = 0x1.c6af84b912394p-20;
constexpr double kC1 = 0x1.ebfce50fac4f3p-13;
constexpr double kC2 = 0x1.62e42ff0c52d6p-6;
/// Lanes whose (bits >> 20) & 0x7ff exceed this (|x| >= 88, an infinity or
/// a NaN) take __expf_fma's slow path; here they call std::exp.
constexpr int kLastFastTop = 0x42a;

/// x[l] = std::exp(in[l]) for each bit l set in \p special.
void exp_special_lanes(float* x, const float* in, unsigned special) {
  for (; special != 0; special &= special - 1) {
    const int l = __builtin_ctz(special);
    x[l] = std::exp(in[l]);
  }
}

// The steps of __expf_fma, in its order, on doubles:
//   kd = fma(32 / ln 2, x, shift), ki = bits(kd),
//   r = fms(32 / ln 2, x, kd - shift),
//   s = double(kTable[ki & 31] + (ki << 47)),
//   y = fma(fma(C0, r, C1), r * r, fma(C2, r, 1)) * s,
// then one rounding to float.

__attribute__((target("avx2,fma"))) inline __m128 exp4_avx2(__m128 x) {
  const __m256d inv = _mm256_set1_pd(kInvLn2N), shift = _mm256_set1_pd(kShift);
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d kd = _mm256_fmadd_pd(inv, xd, shift);
  const __m256i ki = _mm256_castpd_si256(kd);
  const __m256d r = _mm256_fmsub_pd(inv, xd, _mm256_sub_pd(kd, shift));
  __m256i t = _mm256_i64gather_epi64(reinterpret_cast<const long long*>(kTable),
                                     _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  t = _mm256_add_epi64(t, _mm256_slli_epi64(ki, 47));
  const __m256d z = _mm256_fmadd_pd(_mm256_set1_pd(kC0), r, _mm256_set1_pd(kC1));
  const __m256d r2 = _mm256_mul_pd(r, r);
  __m256d y = _mm256_fmadd_pd(_mm256_set1_pd(kC2), r, _mm256_set1_pd(1.0));
  y = _mm256_fmadd_pd(z, r2, y);
  return _mm256_cvtpd_ps(_mm256_mul_pd(y, _mm256_castsi256_pd(t)));
}

__attribute__((target("avx2,fma"))) void exp_avx2(float* x, std::size_t n) {
  const __m256i top_mask = _mm256_set1_epi32(0x7ff);
  const __m256i last_fast = _mm256_set1_epi32(kLastFastTop);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    const __m256i top =
        _mm256_and_si256(_mm256_srli_epi32(_mm256_castps_si256(v), 20), top_mask);
    const unsigned special = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpgt_epi32(top, last_fast))));
    const __m128 lo = exp4_avx2(_mm256_castps256_ps128(v));
    const __m128 hi = exp4_avx2(_mm256_extractf128_ps(v, 1));
    _mm256_storeu_ps(x + i, _mm256_set_m128(hi, lo));
    if (special != 0) {
      float in[8];
      _mm256_storeu_ps(in, v);
      exp_special_lanes(x + i, in, special);
    }
  }
  for (; i < n; ++i) x[i] = std::exp(x[i]);
}

__attribute__((target("avx512f,avx2,fma"))) inline __m256 exp8_avx512(__m256 x) {
  const __m512d inv = _mm512_set1_pd(kInvLn2N), shift = _mm512_set1_pd(kShift);
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d kd = _mm512_fmadd_pd(inv, xd, shift);
  const __m512i ki = _mm512_castpd_si512(kd);
  const __m512d r = _mm512_fmsub_pd(inv, xd, _mm512_sub_pd(kd, shift));
  // kTable[ki & 31]: entries 0-15 and 16-31 each by one two-register
  // permute (it reads index bits 0-3), picked by bit 4.
  const __m512i* tab = reinterpret_cast<const __m512i*>(kTable);
  const __m512i low = _mm512_permutex2var_epi64(_mm512_load_si512(tab), ki,
                                                _mm512_load_si512(tab + 1));
  const __m512i high = _mm512_permutex2var_epi64(_mm512_load_si512(tab + 2), ki,
                                                 _mm512_load_si512(tab + 3));
  __m512i t = _mm512_mask_blend_epi64(
      _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16)), low, high);
  t = _mm512_add_epi64(t, _mm512_slli_epi64(ki, 47));
  const __m512d z = _mm512_fmadd_pd(_mm512_set1_pd(kC0), r, _mm512_set1_pd(kC1));
  const __m512d r2 = _mm512_mul_pd(r, r);
  __m512d y = _mm512_fmadd_pd(_mm512_set1_pd(kC2), r, _mm512_set1_pd(1.0));
  y = _mm512_fmadd_pd(z, r2, y);
  return _mm512_cvtpd_ps(_mm512_mul_pd(y, _mm512_castsi512_pd(t)));
}

__attribute__((target("avx512f,avx2,fma"))) void exp_avx512(float* x, std::size_t n) {
  const __m512i top_mask = _mm512_set1_epi32(0x7ff);
  const __m512i last_fast = _mm512_set1_epi32(kLastFastTop);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(x + i);
    const __m512i top =
        _mm512_and_si512(_mm512_srli_epi32(_mm512_castps_si512(v), 20), top_mask);
    const unsigned special = _mm512_cmpgt_epi32_mask(top, last_fast);
    const __m256 lo = exp8_avx512(_mm512_castps512_ps256(v));
    const __m256 hi = exp8_avx512(
        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1)));
    const __m512d both = _mm512_insertf64x4(
        _mm512_castpd256_pd512(_mm256_castps_pd(lo)), _mm256_castps_pd(hi), 1);
    _mm512_storeu_ps(x + i, _mm512_castpd_ps(both));
    if (special != 0) {
      float in[16];
      _mm512_storeu_ps(in, v);
      exp_special_lanes(x + i, in, special);
    }
  }
  for (; i < n; ++i) x[i] = std::exp(x[i]);
}

using ExpFn = void (*)(float*, std::size_t);

/// True when \p fn gives std::exp's bits on probes spread over every
/// exponent, both signs and the softmax range [-40, 0].
bool agrees_with_std_exp(ExpFn fn) {
  constexpr std::size_t kProbes = 1024;
  float x[kProbes];
  for (std::size_t i = 0; i < kProbes; ++i) {
    if (i % 2 == 0) {
      const std::uint32_t bits = static_cast<std::uint32_t>(i) * 0x00400801u;
      std::memcpy(&x[i], &bits, sizeof bits);
    } else {
      x[i] = -40.0f * static_cast<float>(i) / kProbes;
    }
  }
  float y[kProbes];
  std::memcpy(y, x, sizeof x);
  fn(y, kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const float want = std::exp(x[i]);
    if (std::memcmp(&want, &y[i], sizeof want) != 0) return false;
  }
  return true;
}

std::size_t detect_lanes() {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2")) return 0;
  if (!agrees_with_std_exp(exp_avx2)) return 0;
  if (!__builtin_cpu_supports("avx512f")) return 8;
  return agrees_with_std_exp(exp_avx512) ? 16 : 8;
}

}  // namespace

std::size_t vector_exp_lanes() {
  static const std::size_t lanes = detect_lanes();
  return lanes;
}

void exp_in_place(float* x, std::size_t n, std::size_t lanes) {
  const std::size_t widest = vector_exp_lanes();
  if (lanes >= 16 && widest >= 16) return exp_avx512(x, n);
  if (lanes >= 8 && widest >= 8) return exp_avx2(x, n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::exp(x[i]);
}

}  // namespace gnntrans::tensor
