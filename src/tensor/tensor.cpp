#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "tensor/gemm_kernels.h"
#include "util/error.h"
#include "util/execution_context.h"
#include "util/memory_tracker.h"

namespace dinar {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    DINAR_CHECK(d >= 0, "negative dimension in shape " << shape_to_string(shape));
    // Deserialized shapes are attacker-controlled; a checked multiply keeps
    // a corrupted shape from tripping signed-overflow UB.
    DINAR_CHECK(d == 0 || n <= std::numeric_limits<std::int64_t>::max() / d,
                "shape " << shape_to_string(shape) << " overflows element count");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)),
      data_(static_cast<std::size_t>(numel_), 0.0f) {
  track_alloc();
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)), data_(std::move(values)) {
  DINAR_CHECK(static_cast<std::int64_t>(data_.size()) == numel_,
              "value count " << data_.size() << " does not match shape "
                             << shape_to_string(shape_));
  track_alloc();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_), data_(other.data_) {
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  track_release();
  shape_ = other.shape_;
  numel_ = other.numel_;
  data_ = other.data_;
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)), numel_(other.numel_),
      data_(std::move(other.data_)) {
  other.numel_ = 0;
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  track_release();
  shape_ = std::move(other.shape_);
  numel_ = other.numel_;
  data_ = std::move(other.data_);
  other.numel_ = 0;
  other.shape_.clear();
  return *this;
}

Tensor::~Tensor() { track_release(); }

void Tensor::track_alloc() {
  if (!data_.empty()) MemoryTracker::instance().allocate(data_.size() * sizeof(float));
}

void Tensor::track_release() {
  if (!data_.empty()) MemoryTracker::instance().release(data_.size() * sizeof(float));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::gaussian(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::kaiming(Shape shape, std::int64_t fan_in, Rng& rng) {
  DINAR_CHECK(fan_in > 0, "kaiming init requires positive fan_in");
  const float bound = std::sqrt(1.0f / static_cast<float>(fan_in));
  return uniform(std::move(shape), rng, -bound, bound);
}

std::int64_t Tensor::dim(std::size_t i) const {
  DINAR_CHECK(i < shape_.size(), "dim " << i << " out of rank " << shape_.size());
  return shape_[i];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  DINAR_CHECK(shape_numel(new_shape) == numel_,
              "reshape " << shape_to_string(shape_) << " -> "
                         << shape_to_string(new_shape) << " changes numel");
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::reshaped(Shape new_shape) && {
  DINAR_CHECK(shape_numel(new_shape) == numel_,
              "reshape " << shape_to_string(shape_) << " -> "
                         << shape_to_string(new_shape) << " changes numel");
  Tensor out = std::move(*this);
  out.shape_ = std::move(new_shape);
  return out;
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::operator+=(const Tensor& other) {
  DINAR_CHECK(same_shape(other), "+= shape mismatch " << shape_to_string(shape_)
                                                      << " vs "
                                                      << shape_to_string(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  DINAR_CHECK(same_shape(other), "-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& x, float a) {
  DINAR_CHECK(same_shape(x), "add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += a * x.data_[i];
}

void Tensor::add_product(const Tensor& x, const Tensor& y) {
  DINAR_CHECK(same_shape(x) && same_shape(y), "add_product shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += x.data_[i] * y.data_[i];
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::squared_l2_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

double Tensor::l2_norm() const { return std::sqrt(squared_l2_norm()); }

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

namespace {

static_assert(detail::kGemmMR == kGemmPanel && detail::kGemmNR == kGemmPanel,
              "operands pack one panel width for both gemm sides");

// Per-thread packing scratch, reused across gemm calls so the hot loop is
// allocation-free after warm-up. `bpack` holds the shared packed b
// (written by the calling thread / packing chunks, read by everyone);
// `apack` holds one row-block of a and `tile` one row-block of C for an
// epilogue, both touched only by the thread executing that block. The
// vectors only ever grow.
struct GemmScratch {
  std::vector<float> bpack;
  std::vector<float> apack;
  std::vector<float> tile;
};

GemmScratch& gemm_scratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

// Never returns null, so a zero-depth product still hands the microkernel
// valid (unread) panel pointers.
float* grown(std::vector<float>& v, std::size_t need) {
  if (v.size() < need) v.resize(std::max<std::size_t>(need, 1));
  return v.data();
}

// Multiply-adds per parallel chunk. Kernel-aware: the SIMD tiers retire
// roughly 8x the flops per cycle of the scalar oracle, so they need
// proportionally more work per chunk before splitting pays.
std::int64_t chunk_target_madds(GemmKernel kernel) {
  return kernel == GemmKernel::kScalar ? 32768 : 262144;
}

// k*n without signed-overflow UB on degenerate or adversarial shapes:
// saturates instead of wrapping, and maps empty dimensions to 1 so grain
// math never divides by zero.
std::int64_t saturating_per_row_work(std::int64_t k, std::int64_t n) {
  const std::int64_t kk = std::max<std::int64_t>(1, k);
  const std::int64_t nn = std::max<std::int64_t>(1, n);
  if (kk > std::numeric_limits<std::int64_t>::max() / nn)
    return std::numeric_limits<std::int64_t>::max();
  return kk * nn;
}

// Row-blocks per parallel chunk, sized so a chunk is worth a pool
// dispatch.
std::size_t gemm_block_grain(GemmKernel kernel, std::int64_t k, std::int64_t n) {
  const std::int64_t per_row = saturating_per_row_work(k, n);
  const std::int64_t rows = std::max<std::int64_t>(1, chunk_target_madds(kernel) / per_row);
  return static_cast<std::size_t>((rows + kGemmPanel - 1) / kGemmPanel);
}

// B panels per packing chunk (each panel writes k * kGemmPanel floats).
std::size_t pack_panel_grain(std::int64_t k) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, 2048 / std::max<std::int64_t>(1, k)));
}

detail::GemmBlockFn gemm_block_fn(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar:
      return detail::gemm_block_scalar;
    case GemmKernel::kAvx2:
#if DINAR_GEMM_HAVE_AVX2
      return detail::gemm_block_avx2;
#else
      break;
#endif
  }
  return detail::gemm_block_scalar;
}

// The one gemm loop behind both gemm_packed forms (and so behind gemm()).
void run_gemm(const GemmOperand& a, const GemmOperand& b, float* c,
              const GemmEpilogue* epilogue, const ExecutionContext* exec,
              GemmKernel kernel) {
  const std::int64_t m = a.lines(), n = b.lines(), k = a.depth();
  DINAR_CHECK(b.depth() == k, "gemm operand depth mismatch: " << k << " vs " << b.depth());
  if (m == 0 || n == 0) return;
  DINAR_CHECK(gemm_kernel_available(kernel),
              "gemm kernel '" << gemm_kernel_name(kernel)
                              << "' is not available in this build/host");
  const detail::GemmBlockFn block_fn = gemm_block_fn(kernel);
  const std::int64_t mblocks = (m + kGemmPanel - 1) / kGemmPanel;
  const std::int64_t npanels = (n + kGemmPanel - 1) / kGemmPanel;

  // Pack b once into the calling thread's arena: per panel, k groups of
  // kGemmPanel floats. Panels are disjoint, so packing parallelizes with
  // deterministic contents.
  float* bpack = grown(gemm_scratch().bpack,
                       static_cast<std::size_t>(npanels * k * kGemmPanel));
  const auto pack_b = [&](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t bj = p0; bj < p1; ++bj) {
      const std::int64_t j0 = bj * kGemmPanel;
      b.pack(j0, std::min<std::int64_t>(kGemmPanel, n - j0), bpack + bj * k * kGemmPanel);
    }
  };
  if (exec != nullptr)
    exec->parallel_for(npanels, pack_b, pack_panel_grain(k));
  else
    pack_b(0, npanels);

  // Compute parallelizes over whole row-blocks (never raw rows): a chunk
  // boundary can only fall between blocks, so which rows share a
  // microkernel call — and therefore every element's operation sequence —
  // is independent of the thread count. Each executing thread packs the
  // current a row-block into its own scratch arena right before use.
  const auto row_blocks = [&](std::int64_t blk0, std::int64_t blk1) {
    GemmScratch& scratch = gemm_scratch();
    float* apack = grown(scratch.apack, static_cast<std::size_t>(k * kGemmPanel));
    float* tile = epilogue != nullptr
                      ? grown(scratch.tile, static_cast<std::size_t>(kGemmPanel * n))
                      : nullptr;
    for (std::int64_t bi = blk0; bi < blk1; ++bi) {
      const std::int64_t i0 = bi * kGemmPanel;
      const std::int64_t rows = std::min<std::int64_t>(kGemmPanel, m - i0);
      a.pack(i0, rows, apack);
      if (epilogue != nullptr) {
        block_fn(rows, n, k, apack, bpack, tile);
        (*epilogue)(i0, rows, tile);
      } else {
        block_fn(rows, n, k, apack, bpack, c + i0 * n);
      }
    }
  };
  if (exec != nullptr)
    exec->parallel_for(mblocks, row_blocks, gemm_block_grain(kernel, k, n));
  else
    row_blocks(0, mblocks);
}

}  // namespace

void StridedOperand::pack(std::int64_t first, std::int64_t count, float* dst) const {
  const std::int64_t k = depth();
  const float* src = data_ + first * line_stride_;
  if (depth_stride_ == 1) {
    // Lines are contiguous: stream each one, strided writes into the
    // L1-resident pack buffer.
    for (std::int64_t r = 0; r < kGemmPanel; ++r) {
      if (r < count) {
        const float* line = src + r * line_stride_;
        for (std::int64_t kk = 0; kk < k; ++kk) dst[kk * kGemmPanel + r] = line[kk];
      } else {
        for (std::int64_t kk = 0; kk < k; ++kk) dst[kk * kGemmPanel + r] = 0.0f;
      }
    }
    return;
  }
  // Each kk step reads `count` values one line stride apart.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    float* group = dst + kk * kGemmPanel;
    const float* at = src + kk * depth_stride_;
    std::int64_t r = 0;
    for (; r < count; ++r) group[r] = at[r * line_stride_];
    for (; r < kGemmPanel; ++r) group[r] = 0.0f;
  }
}

void gemm_packed(const GemmOperand& a, const GemmOperand& b, float* c,
                 const ExecutionContext* exec, GemmKernel kernel) {
  run_gemm(a, b, c, nullptr, exec, kernel);
}

void gemm_packed(const GemmOperand& a, const GemmOperand& b,
                 const GemmEpilogue& epilogue, const ExecutionContext* exec,
                 GemmKernel kernel) {
  run_gemm(a, b, nullptr, &epilogue, exec, kernel);
}

std::size_t gemm_item_grain(GemmKernel kernel, std::int64_t madds_per_item) {
  const std::int64_t per_item = std::max<std::int64_t>(1, madds_per_item);
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, chunk_target_madds(kernel) / per_item));
}

Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec) {
  return gemm(trans_a, trans_b, a, b, exec, active_gemm_kernel());
}

Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec, GemmKernel kernel) {
  DINAR_CHECK(a.rank() == 2 && b.rank() == 2, "gemm requires rank-2 tensors");
  const std::int64_t m = trans_a == Trans::kN ? a.dim(0) : a.dim(1);
  const std::int64_t k = trans_a == Trans::kN ? a.dim(1) : a.dim(0);
  const std::int64_t n = trans_b == Trans::kN ? b.dim(1) : b.dim(0);
  const std::int64_t kb = trans_b == Trans::kN ? b.dim(0) : b.dim(1);
  DINAR_CHECK(kb == k, "gemm inner dimension mismatch: "
                           << (trans_a == Trans::kT ? "T " : "") << shape_to_string(a.shape())
                           << " x " << (trans_b == Trans::kT ? "T " : "")
                           << shape_to_string(b.shape()));
  Tensor out({m, n});
  // Degenerate shapes: an empty output, or an empty reduction axis whose
  // product is all zeros — the zero-initialized tensor is already correct.
  if (m == 0 || n == 0 || k == 0) return out;
  // Rows of op(a) and columns of op(b) as strided lines over k.
  const StridedOperand lines_a(a.data(), m, k, trans_a == Trans::kN ? k : 1,
                               trans_a == Trans::kN ? 1 : m);
  const StridedOperand lines_b(b.data(), n, k, trans_b == Trans::kN ? 1 : k,
                               trans_b == Trans::kN ? n : 1);
  gemm_packed(lines_a, lines_b, out.data(), exec, kernel);
  return out;
}

void span_add(std::span<float> a, std::span<const float> b) {
  DINAR_CHECK(a.size() == b.size(),
              "span_add length mismatch: " << a.size() << " vs " << b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void span_scale(std::span<float> a, float s) {
  for (float& v : a) v *= s;
}

void span_axpy(std::span<float> a, std::span<const float> x, float s) {
  DINAR_CHECK(a.size() == x.size(),
              "span_axpy length mismatch: " << a.size() << " vs " << x.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * x[i];
}

double span_squared_l2(std::span<const float> a) {
  double acc = 0.0;
  for (float v : a) acc += static_cast<double>(v) * static_cast<double>(v);
  return acc;
}

}  // namespace dinar
