// Dense row-major float32 tensor.
//
// This is the numeric substrate under dinar::nn. Design goals, in order:
// correctness, determinism, then speed — the gemm hot path runs a
// runtime-dispatched SIMD microkernel (tensor/cpu_features.h), but only
// under a numerics contract the scalar oracle can always re-check.
// Storage is a contiguous std::vector<float>; shapes are explicit
// and checked on every op. All allocations are reported to MemoryTracker
// so the cost experiments can observe per-defense memory footprints.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/cpu_features.h"
#include "util/rng.h"

namespace dinar {

class ExecutionContext;  // util/execution_context.h

using Shape = std::vector<std::int64_t>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);  // zero-initialized
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  // U(lo, hi) entries.
  static Tensor uniform(Shape shape, Rng& rng, float lo = -1.0f, float hi = 1.0f);
  // N(0, stddev) entries.
  static Tensor gaussian(Shape shape, Rng& rng, float stddev = 1.0f);
  // Kaiming-uniform fan-in initialization (what our Dense/Conv layers use).
  static Tensor kaiming(Shape shape, std::int64_t fan_in, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const;
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> values() { return {data_.data(), data_.size()}; }
  std::span<const float> values() const { return {data_.data(), data_.size()}; }

  float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float at(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }
  // 2-D accessor: row-major [rows, cols].
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  // Returns a tensor with the same data and a new shape (same numel). On
  // an lvalue the data is copied (and counted by MemoryTracker); on an
  // rvalue the storage moves into the result, so reshaping a temporary
  // copies nothing.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  void fill(float value);
  void zero() { fill(0.0f); }

  // In-place arithmetic; shapes must match exactly.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);
  // Fused a*x + this (axpy); shape-checked.
  void add_scaled(const Tensor& x, float a);
  // Elementwise product accumulate: this += x ⊙ y.
  void add_product(const Tensor& x, const Tensor& y);

  double sum() const;
  double squared_l2_norm() const;
  double l2_norm() const;
  float max_abs() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  void track_alloc();
  void track_release();

  Shape shape_;
  std::int64_t numel_ = 0;
  std::vector<float> data_;
};

// out = a + b (shape-checked).
Tensor add(const Tensor& a, const Tensor& b);
// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
// out = a * s.
Tensor scale(const Tensor& a, float s);

// Operand orientation for gemm: kN uses the tensor as stored, kT uses its
// transpose (without materializing it).
enum class Trans : std::uint8_t { kN, kT };

// General matrix multiply: op(a) op(b) -> [m, n], where op is identity
// (kN) or transpose (kT). This is the compute entry point for dense
// operands; it runs on gemm_packed() below with both operands read through
// strides, so it shares that driver's packing, dispatch and numerics
// contract. `DINAR_GEMM_KERNEL=scalar|avx2` pins the microkernel
// process-wide (tensor/cpu_features.h). When `exec` is non-null the output
// is parallelized over whole 8-row blocks; for a given kernel results are
// bit-identical for every thread count (and to `exec == nullptr`); scalar
// and SIMD kernels agree within a small relative tolerance (FMA rounding
// only — see DESIGN.md §9).
Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec = nullptr);

// Same, with an explicit kernel tier (tests and benches A/B the tiers
// in-process; gemm_kernel_available(kernel) must hold).
Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec, GemmKernel kernel);

// -- the gemm driver ---------------------------------------------------------
// gemm_packed() multiplies operands it only ever sees through pack(): an
// operand is a [lines, depth] matrix — the rows of op(a), or the columns of
// op(b) — handed over kGemmPanel lines at a time. Dense operands are read
// through strides (StridedOperand); the convolution layers supply operands
// that gather input patches straight from NCHW data, so no patch matrix is
// ever materialized (nn/conv_kernels.h).

// Lines per packed panel (the microkernel's register block, 8x8).
inline constexpr std::int64_t kGemmPanel = 8;

class GemmOperand {
 public:
  GemmOperand(std::int64_t lines, std::int64_t depth) : lines_(lines), depth_(depth) {}

  std::int64_t lines() const { return lines_; }
  std::int64_t depth() const { return depth_; }

  // Writes lines [first, first + count), 1 <= count <= kGemmPanel, as
  // depth() groups of kGemmPanel floats: slot r of group kk holds element kk
  // of line first + r, and the slots of lines past `count` hold 0.0f.
  // Values are copied as they are (zeros stay explicit operands, so
  // 0 x NaN still reaches the microkernel). Called concurrently for
  // disjoint line ranges.
  virtual void pack(std::int64_t first, std::int64_t count, float* dst) const = 0;

 protected:
  // Operands are used in place, never deleted through this base.
  ~GemmOperand() = default;

 private:
  std::int64_t lines_, depth_;
};

// Element (line, kk) at data[line * line_stride + kk * depth_stride].
class StridedOperand final : public GemmOperand {
 public:
  StridedOperand(const float* data, std::int64_t lines, std::int64_t depth,
                 std::int64_t line_stride, std::int64_t depth_stride)
      : GemmOperand(lines, depth), data_(data), line_stride_(line_stride),
        depth_stride_(depth_stride) {}
  void pack(std::int64_t first, std::int64_t count, float* dst) const override;

 private:
  const float* data_;
  std::int64_t line_stride_, depth_stride_;
};

// Receives one finished row-block of C: rows [i0, i0 + rows) of the [m, n]
// product, row r at tile[r * n]. Called concurrently for disjoint blocks.
using GemmEpilogue =
    std::function<void(std::int64_t i0, std::int64_t rows, const float* tile)>;

// C[i][j] = sum over kk of a(i, kk) * b(j, kk), for a.lines() x b.lines()
// outputs over a shared depth. b is packed once into the calling thread's
// scratch (parallel over panels); a is packed one row-block at a time by
// whichever thread computes that block, right before the microkernel
// consumes it. Every output element has one accumulator, updated in
// ascending kk order inside one microkernel call, so a fixed kernel gives
// bit-identical results for every thread count. The first form writes C
// row-major into c; the second passes each row-block to `epilogue`.
void gemm_packed(const GemmOperand& a, const GemmOperand& b, float* c,
                 const ExecutionContext* exec, GemmKernel kernel);
void gemm_packed(const GemmOperand& a, const GemmOperand& b,
                 const GemmEpilogue& epilogue, const ExecutionContext* exec,
                 GemmKernel kernel);

// Items per parallel_for chunk for a loop whose items each cost
// `madds_per_item` multiply-adds on `kernel`: the same per-chunk work
// target gemm_packed uses for its row-blocks.
std::size_t gemm_item_grain(GemmKernel kernel, std::int64_t madds_per_item);

// -- span kernels ------------------------------------------------------------
// Elementwise math over raw float ranges. These are the inner loops of the
// FlatParams parameter space (nn/flat_params.h): whole-model snapshots live
// in one contiguous arena and every consumer — FedAvg, robust aggregation,
// DP noise, SA masks — streams these spans instead of walking tensor lists.
// All of them are length-checked and accumulate in ascending index order,
// so chunked parallel callers that partition the range get bit-identical
// results to a single sequential pass.

// a += b.
void span_add(std::span<float> a, std::span<const float> b);
// a *= s.
void span_scale(std::span<float> a, float s);
// a += s * x (float axpy, the FedAvg accumulation primitive).
void span_axpy(std::span<float> a, std::span<const float> x, float s);
// sum of squared entries, double-accumulated in ascending order.
double span_squared_l2(std::span<const float> a);

}  // namespace dinar
