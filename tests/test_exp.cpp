// tensor::exp_in_place against std::exp on every float bit pattern, at every
// vector width this CPU runs, bit for bit (NaNs included). The 2^32 inputs
// are split across the cores; about 40 core-seconds in all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "tensor/vector_exp.hpp"

namespace {

using gnntrans::tensor::exp_in_place;
using gnntrans::tensor::vector_exp_lanes;

TEST(VectorExp, MatchesStdExpOnEveryFloatAtEveryWidth) {
  __builtin_cpu_init();
  if (!__builtin_cpu_supports("fma") || !__builtin_cpu_supports("avx2"))
    GTEST_SKIP() << "no FMA+AVX2 on this CPU: exp_in_place calls std::exp itself";
  const std::size_t widest = vector_exp_lanes();
  ASSERT_GE(widest, 8u) << "the vector exp disagreed with std::exp on its probes, "
                           "so training runs std::exp; is libm's expf not glibc "
                           "2.36's __expf_fma?";
  std::vector<std::size_t> widths{8};
  if (widest >= 16) widths.push_back(16);

  constexpr std::size_t kChunk = 4096;
  constexpr std::uint64_t kPatterns = std::uint64_t{1} << 32;
  const std::size_t threads = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 8);
  struct Tally {
    std::uint64_t mismatches = 0;
    std::uint32_t first = 0;
  };
  std::vector<std::vector<Tally>> tallies(threads, std::vector<Tally>(widths.size()));
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      std::vector<float> x(kChunk), want(kChunk), got(kChunk);
      for (std::uint64_t base = t * kChunk; base < kPatterns; base += threads * kChunk) {
        for (std::size_t i = 0; i < kChunk; ++i) {
          const auto bits = static_cast<std::uint32_t>(base + i);
          std::memcpy(&x[i], &bits, sizeof bits);
          want[i] = std::exp(x[i]);
        }
        for (std::size_t w = 0; w < widths.size(); ++w) {
          got = x;
          exp_in_place(got.data(), kChunk, widths[w]);
          if (std::memcmp(got.data(), want.data(), kChunk * sizeof(float)) == 0) continue;
          for (std::size_t i = 0; i < kChunk; ++i)
            if (std::memcmp(&got[i], &want[i], sizeof(float)) != 0) {
              Tally& tally = tallies[t][w];
              if (tally.mismatches++ == 0) tally.first = static_cast<std::uint32_t>(base + i);
            }
        }
      }
    });
  for (std::thread& th : pool) th.join();
  for (std::size_t w = 0; w < widths.size(); ++w) {
    std::uint64_t mismatches = 0;
    std::uint32_t first = 0;
    for (const auto& per_thread : tallies)
      if (per_thread[w].mismatches != 0) {
        if (mismatches == 0) first = per_thread[w].first;
        mismatches += per_thread[w].mismatches;
      }
    char hex[16];
    std::snprintf(hex, sizeof hex, "%08x", first);
    EXPECT_EQ(mismatches, 0u) << widths[w] << " lanes, e.g. input bits 0x" << hex;
  }
}

}  // namespace
