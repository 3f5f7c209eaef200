// Internal packed-panel gemm microkernels (included by tensor.cpp and the
// per-ISA kernel TUs only — not part of the public tensor API).
//
// gemm_packed() (tensor.h), the driver under gemm() and the convolution
// layers, has its operands pack themselves before any arithmetic:
//
//   packed A row-block:  k contiguous groups of kGemmMR floats; group kk
//                        holds element kk of rows i0+0 .. i0+MR-1, rows
//                        past m zero-padded.
//   packed B col-panel:  per panel bj, k contiguous groups of kGemmNR
//                        floats; group kk holds element kk of columns
//                        bj*NR .. +NR-1, columns past n zero-padded.
//
// A microkernel invocation multiplies one packed A row-block against every
// packed B panel and writes up to kGemmMR finished rows of C. Numerics
// contract shared by every kernel tier:
//
//   - each output element has exactly one accumulator, updated in
//     ascending-kk order, so results are bit-identical for any chunking of
//     the row-block dimension (the only axis gemm parallelizes);
//   - zero-padding never leaks: padded lanes are computed and discarded at
//     the store, real lanes see only real operands;
//   - tiers differ from each other only in rounding (FMA contraction,
//     vector lane evaluation), never in accumulation order — scalar is the
//     testing oracle, SIMD agrees within a small relative tolerance.
//
// A NEON tier is one more TU implementing GemmBlockFn with 4-lane float32x4
// accumulators; packing, dispatch (tensor/cpu_features.h) and the blocking
// logic in tensor.cpp need no changes.
#pragma once

#include <cstdint>

namespace dinar::detail {

// Register block: one microkernel call produces a kGemmMR x kGemmNR output
// tile per B panel (8x8 = 8 ymm accumulators in the AVX2 tier).
inline constexpr std::int64_t kGemmMR = 8;
inline constexpr std::int64_t kGemmNR = 8;

// Multiplies one packed A row-block (`rows` <= kGemmMR real rows) against
// the whole packed B (ceil(n / kGemmNR) panels) and stores rows x n
// finished elements at `c` (row stride n).
using GemmBlockFn = void (*)(std::int64_t rows, std::int64_t n, std::int64_t k,
                             const float* apack, const float* bpack, float* c);

void gemm_block_scalar(std::int64_t rows, std::int64_t n, std::int64_t k,
                       const float* apack, const float* bpack, float* c);

#if DINAR_GEMM_HAVE_AVX2
// Compiled with -mavx2 -mfma in its own TU; only call when
// gemm_kernel_available(GemmKernel::kAvx2) is true.
void gemm_block_avx2(std::int64_t rows, std::int64_t n, std::int64_t k,
                     const float* apack, const float* bpack, float* c);
#endif

}  // namespace dinar::detail
