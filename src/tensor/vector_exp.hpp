/// \file vector_exp.hpp
/// std::exp over a buffer of floats in vector registers, bit for bit.
///
/// On a CPU with FMA and AVX2, glibc's std::exp(float) runs __expf_fma: it
/// widens x to double, splits x * 32 / ln 2 into an integer k and a
/// remainder r with two fused multiply-adds, looks 2^((k mod 32) / 32) up in
/// a 32-entry table, evaluates a cubic in r with three more and rounds the
/// double result to float. exp_in_place() does the same operations on 8 or
/// 16 lanes at once (vector_exp.cpp), so its results are std::exp's to the
/// bit; a lane whose |x| is about 88 or more, an infinity or a NaN, calls
/// std::exp itself. The autograd's softmax uses it so that training keeps
/// the bits it had with scalar std::exp calls.
#pragma once

#include <cstddef>

namespace gnntrans::tensor {

/// The widest lanes exp_in_place() evaluates in vector registers on this
/// CPU: 16 with AVX-512F and FMA, 8 with AVX2 and FMA, else 0. Also 0 when
/// the vector path disagrees with std::exp on any of 1,024 fixed probes, as
/// it would under a libm whose expf is another algorithm.
[[nodiscard]] std::size_t vector_exp_lanes();

/// x[i] = std::exp(x[i]) for i < n, bit for bit: \p lanes (8 or 16) at a
/// time where vector_exp_lanes() reaches \p lanes, else one std::exp call
/// per float.
void exp_in_place(float* x, std::size_t n, std::size_t lanes);

}  // namespace gnntrans::tensor
