#include "nn/conv_kernels.h"

#include <algorithm>
#include <vector>

#include "util/execution_context.h"

namespace dinar::nn {
namespace {

constexpr std::int64_t kPanel = kGemmPanel;

// Output columns one input-gradient product aims for: whole images are
// batched until a group spans at least this many positions, so a small
// output plane (3x3 after two stride-2 stages) does not leave most of each
// 8-wide panel as padding.
constexpr std::int64_t kMinGroupColumns = 64;

// What a padding position reads.
constexpr float kPaddingZero = 0.0f;

// Output columns [lo, hi) whose window lies inside the image horizontally
// (ox * stride - pad_w >= 0 and + kernel_w <= W).
void interior_columns(const ConvShape& s, std::int64_t& lo, std::int64_t& hi) {
  lo = std::min(s.out_w, (s.pad_w + s.stride - 1) / s.stride);
  const std::int64_t last_corner = s.in_w - s.kernel_w + s.pad_w;
  hi = last_corner < 0 ? lo : std::max(lo, std::min(s.out_w, last_corner / s.stride + 1));
}

// Offset of patch element kk = (c, ky, kx) from its window's top-left
// corner in the NCHW input: c * H * W + ky * W + kx.
std::vector<std::int64_t> window_offsets(const ConvShape& s) {
  std::vector<std::int64_t> offsets;
  offsets.reserve(static_cast<std::size_t>(s.patch()));
  for (std::int64_t c = 0; c < s.in_ch; ++c)
    for (std::int64_t ky = 0; ky < s.kernel_h; ++ky)
      for (std::int64_t kx = 0; kx < s.kernel_w; ++kx)
        offsets.push_back(c * s.in_plane() + ky * s.in_w + kx);
  return offsets;
}

// Kernel offsets k in [lo, hi) whose input coordinate o0 + k lies in
// [0, size): the part of a window that is not padding along one axis.
void inside_span(std::int64_t o0, std::int64_t kernel, std::int64_t size, std::int64_t& lo,
                 std::int64_t& hi) {
  lo = std::max<std::int64_t>(0, -o0);
  hi = std::min(kernel, size - o0);
}

// The patch matrix of x seen as [positions, patch]: line p is the output
// position (n, oy, ox) with p = (n * OH + oy) * OW + ox, and element kk =
// (c, ky, kx) is the input value under it, or 0.0f in padding. The forward
// pass's row operand.
class PatchRows final : public GemmOperand {
 public:
  PatchRows(const ConvShape& s, const float* x)
      : GemmOperand(s.batch * s.out_plane(), s.patch()), s_(s), x_(x),
        offsets_(window_offsets(s)) {
    interior_columns(s, ox_lo_, ox_hi_);
  }

  void pack(std::int64_t first, std::int64_t count, float* dst) const override {
    const ConvShape& s = s_;
    const std::int64_t k = depth(), ohw = s.out_plane();
    for (std::int64_t r = count; r < kPanel; ++r)
      for (std::int64_t kk = 0; kk < k; ++kk) dst[kk * kPanel + r] = 0.0f;
    // Walk the block in runs of positions that share an output row.
    std::int64_t n = first / ohw, oy = first % ohw / s.out_w, ox = first % s.out_w;
    for (std::int64_t r = 0; r < count;) {
      const std::int64_t run = std::min(count - r, s.out_w - ox);
      const std::int64_t iy0 = oy * s.stride - s.pad_h;
      // [lo, hi): the run's windows that lie inside the image.
      std::int64_t lo = ox, hi = ox;
      if (iy0 >= 0 && iy0 + s.kernel_h <= s.in_h) {
        lo = std::max(ox, ox_lo_);
        hi = std::max(lo, std::min(ox + run, ox_hi_));
      }
      const std::int64_t image = n * s.in_ch * s.in_h;
      for (std::int64_t c = ox; c < ox + run; ++c)
        if (c < lo || c >= hi) pack_overhanging(dst + r + c - ox, image, iy0, c);
      if (hi > lo) {
        // Each patch element reads one strided input segment into
        // consecutive slots of its group.
        const std::int64_t corner = (image + iy0) * s.in_w + lo * s.stride - s.pad_w;
        float* slots = dst + r + lo - ox;
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float* src = x_ + corner + offsets_[static_cast<std::size_t>(kk)];
          float* group = slots + kk * kPanel;
          for (std::int64_t t = 0; t < hi - lo; ++t) group[t] = src[t * s.stride];
        }
      }
      r += run;
      ox = 0;  // the next run starts a new output row
      if (++oy == s.out_h) {
        oy = 0;
        ++n;
      }
    }
  }

 private:
  // One line whose window overhangs the padding: explicit zeros, then the
  // part of the window inside the image. `image` is n * C * H.
  void pack_overhanging(float* slot, std::int64_t image, std::int64_t iy0,
                        std::int64_t ox) const {
    const ConvShape& s = s_;
    for (std::int64_t kk = 0; kk < depth(); ++kk) slot[kk * kPanel] = 0.0f;
    const std::int64_t ix0 = ox * s.stride - s.pad_w;
    std::int64_t ky0, ky1, kx0, kx1;
    inside_span(iy0, s.kernel_h, s.in_h, ky0, ky1);
    inside_span(ix0, s.kernel_w, s.in_w, kx0, kx1);
    for (std::int64_t c = 0; c < s.in_ch; ++c)
      for (std::int64_t ky = ky0; ky < ky1; ++ky)
        for (std::int64_t kx = kx0; kx < kx1; ++kx) {
          const std::int64_t kk = (c * s.kernel_h + ky) * s.kernel_w + kx;
          slot[kk * kPanel] = x_[(image + c * s.in_h + iy0 + ky) * s.in_w + ix0 + kx];
        }
  }

  ConvShape s_;
  const float* x_;
  std::vector<std::int64_t> offsets_;
  std::int64_t ox_lo_ = 0, ox_hi_ = 0;
};

// The same patch matrix seen as [patch, positions]: line kk is one patch
// element, its depth every output position of the batch in ascending
// (n, oy, ox) order. The weight gradient's row operand.
class PatchColumns final : public GemmOperand {
 public:
  PatchColumns(const ConvShape& s, const float* x)
      : GemmOperand(s.patch(), s.batch * s.out_plane()), s_(s), x_(x) {}

  void pack(std::int64_t first, std::int64_t count, float* dst) const override {
    const ConvShape& s = s_;
    const std::int64_t hw = s.in_plane(), khw = s.kernel_h * s.kernel_w;
    // Offset table for this panel's patch elements: channel plane, kernel
    // row and column, and the offset from the window's top-left corner.
    std::int64_t plane[kPanel], ky[kPanel], kx[kPanel], offset[kPanel];
    for (std::int64_t j = 0; j < count; ++j) {
      const std::int64_t kk = first + j;
      plane[j] = (kk / khw) * hw;
      ky[j] = (kk % khw) / s.kernel_w;
      kx[j] = kk % s.kernel_w;
      offset[j] = plane[j] + ky[j] * s.in_w + kx[j];
    }
    std::int64_t ox_lo, ox_hi;
    interior_columns(s, ox_lo, ox_hi);
    for (std::int64_t n = 0; n < s.batch; ++n) {
      const float* img = x_ + n * s.in_ch * hw;
      for (std::int64_t oy = 0; oy < s.out_h; ++oy, dst += s.out_w * kPanel) {
        const std::int64_t iy0 = oy * s.stride - s.pad_h;
        const bool rows_inside = iy0 >= 0 && iy0 + s.kernel_h <= s.in_h;
        const std::int64_t lo = rows_inside ? ox_lo : s.out_w;
        const std::int64_t hi = rows_inside ? ox_hi : s.out_w;
        // Interior run: one patch element at a time, reading its input row
        // in order; the output row's panel groups stay in L1.
        for (std::int64_t j = 0; j < count; ++j) {
          const std::int64_t at = iy0 * s.in_w + offset[j] - s.pad_w;
          for (std::int64_t ox = lo; ox < hi; ++ox)
            dst[ox * kPanel + j] = img[at + ox * s.stride];
        }
        // Overhanging windows: bounds-checked, padding read as an explicit
        // zero. The source is picked without a branch; which patch
        // elements overhang changes from one element to the next.
        const auto overhanging = [&](std::int64_t ox) {
          const std::int64_t ix0 = ox * s.stride - s.pad_w;
          for (std::int64_t j = 0; j < count; ++j) {
            const std::int64_t iy = iy0 + ky[j], ix = ix0 + kx[j];
            const bool inside = (iy >= 0) & (iy < s.in_h) & (ix >= 0) & (ix < s.in_w);
            const float* src = inside ? img + plane[j] + iy * s.in_w + ix : &kPaddingZero;
            dst[ox * kPanel + j] = *src;
          }
        };
        for (std::int64_t ox = 0; ox < lo; ++ox) overhanging(ox);
        for (std::int64_t ox = hi; ox < s.out_w; ++ox) overhanging(ox);
        for (std::int64_t ox = 0; ox < s.out_w; ++ox)
          for (std::int64_t j = count; j < kPanel; ++j) dst[ox * kPanel + j] = 0.0f;
      }
    }
  }

 private:
  ConvShape s_;
  const float* x_;
};

// An NCHW gradient [B, C, plane] seen as [C, B * plane]: line c is one
// channel, its depth every (n, pos) in ascending order. The weight
// gradient's column operand.
class ChannelRows final : public GemmOperand {
 public:
  ChannelRows(const float* g, std::int64_t batch, std::int64_t channels, std::int64_t plane)
      : GemmOperand(channels, batch * plane), g_(g), batch_(batch), plane_(plane) {}

  void pack(std::int64_t first, std::int64_t count, float* dst) const override {
    const std::int64_t channels = lines();
    for (std::int64_t n = 0; n < batch_; ++n) {
      float* group = dst + n * plane_ * kPanel;
      for (std::int64_t r = 0; r < kPanel; ++r) {
        if (r < count) {
          const float* src = g_ + (n * channels + first + r) * plane_;
          for (std::int64_t pos = 0; pos < plane_; ++pos) group[pos * kPanel + r] = src[pos];
        } else {
          for (std::int64_t pos = 0; pos < plane_; ++pos) group[pos * kPanel + r] = 0.0f;
        }
      }
    }
  }

 private:
  const float* g_;
  std::int64_t batch_, plane_;
};

// The same NCHW gradient seen as [B * plane, C]: line p is position
// (n, pos), its depth the channels. The input gradient's column operand.
class PositionRows final : public GemmOperand {
 public:
  PositionRows(const float* g, std::int64_t batch, std::int64_t channels, std::int64_t plane)
      : GemmOperand(batch * plane, channels), g_(g), plane_(plane) {}

  void pack(std::int64_t first, std::int64_t count, float* dst) const override {
    const std::int64_t channels = depth();
    const std::int64_t n0 = first / plane_, pos0 = first % plane_;
    if (count == kPanel && pos0 + kPanel <= plane_) {
      // All lines in one image: each channel contributes 8 contiguous values.
      const float* src = g_ + n0 * channels * plane_ + pos0;
      for (std::int64_t c = 0; c < channels; ++c)
        for (std::int64_t r = 0; r < kPanel; ++r) dst[c * kPanel + r] = src[c * plane_ + r];
      return;
    }
    for (std::int64_t r = 0, n = n0, pos = pos0; r < kPanel; ++r) {
      float* slot = dst + r;
      if (r >= count) {
        for (std::int64_t c = 0; c < channels; ++c) slot[c * kPanel] = 0.0f;
        continue;
      }
      const float* src = g_ + n * channels * plane_ + pos;
      for (std::int64_t c = 0; c < channels; ++c) slot[c * kPanel] = src[c * plane_];
      if (++pos == plane_) {
        pos = 0;
        ++n;
      }
    }
  }

 private:
  const float* g_;
  std::int64_t plane_;
};

// Output positions [lo, hi] (inclusive; empty when lo > hi) whose window
// offset k lands inside an input extent of `size`: o * stride + k - pad in
// [0, size), clipped to [0, out_size).
struct OutputSpan {
  std::int64_t lo, hi;
};

std::vector<OutputSpan> output_spans(std::int64_t kernel, std::int64_t pad,
                                     std::int64_t stride, std::int64_t size,
                                     std::int64_t out_size) {
  std::vector<OutputSpan> spans;
  for (std::int64_t k = 0; k < kernel; ++k) {
    const std::int64_t last = size - 1 + pad - k;
    spans.push_back({pad - k <= 0 ? 0 : (pad - k + stride - 1) / stride,
                     last < 0 ? -1 : std::min(out_size - 1, last / stride)});
  }
  return spans;
}

// dst[i] += src[i] for i < len: one add per element, in fixed 8-wide
// chunks so the compiler turns each chunk into vector adds.
void add_run(float* __restrict dst, const float* __restrict src, std::int64_t len) {
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8)
    for (std::int64_t l = 0; l < 8; ++l) dst[i + l] += src[i + l];
  for (; i < len; ++i) dst[i] += src[i];
}

// Folds one image's patch gradients back onto its input gradient. `dcols`
// holds row kk = (c, ky, kx) of the image's [patch, OH*OW] gradient at
// dcols[kk * ld]; `rows[ky]` and `cols[kx]` are the output_spans of each
// kernel offset. Kernel offsets run in descending (ky, kx) order, so every
// dx element receives its contributors in ascending (oy, ox) order — the
// add sequence of a scatter over output positions — while the inner loop
// runs along a contiguous row.
void fold_image(const ConvShape& s, const std::vector<OutputSpan>& rows,
                const std::vector<OutputSpan>& cols, const float* dcols, std::int64_t ld,
                float* dx) {
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    float* plane = dx + c * s.in_plane();
    for (std::int64_t ky = s.kernel_h - 1; ky >= 0; --ky) {
      const auto [oy0, oy1] = rows[static_cast<std::size_t>(ky)];
      for (std::int64_t kx = s.kernel_w - 1; kx >= 0; --kx) {
        const auto [ox0, ox1] = cols[static_cast<std::size_t>(kx)];
        const float* src = dcols + ((c * s.kernel_h + ky) * s.kernel_w + kx) * ld;
        for (std::int64_t oy = oy0; oy <= oy1; ++oy) {
          const float* srow = src + oy * s.out_w;
          float* drow = plane + (oy * s.stride + ky - s.pad_h) * s.in_w;
          const std::int64_t ix0 = kx - s.pad_w;
          if (s.stride == 1) {
            add_run(drow + ix0 + ox0, srow + ox0, ox1 - ox0 + 1);
          } else {
            for (std::int64_t ox = ox0; ox <= ox1; ++ox) drow[ix0 + ox * s.stride] += srow[ox];
          }
        }
      }
    }
  }
}

std::vector<float>& fold_scratch() {
  thread_local std::vector<float> scratch;
  return scratch;
}

}  // namespace

void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* y, const ExecutionContext* exec) {
  const PatchRows patches(s, x);
  const StridedOperand filters(weight, s.out_ch, s.patch(), s.patch(), 1);
  const std::int64_t oc = s.out_ch, ohw = s.out_plane();
  // A finished row-block holds up to 8 output positions x OC channels; it
  // lands in NCHW with the bias added.
  gemm_packed(
      patches, filters,
      [&](std::int64_t i0, std::int64_t rows, const float* tile) {
        for (std::int64_t r = 0; r < rows; ++r) {
          const std::int64_t p = i0 + r;
          float* out = y + (p / ohw) * oc * ohw + p % ohw;
          const float* t = tile + r * oc;
          for (std::int64_t ch = 0; ch < oc; ++ch) out[ch * ohw] = t[ch] + bias[ch];
        }
      },
      exec, active_gemm_kernel());
}

void conv_param_grads(const ConvShape& s, const float* x, const float* grad_out,
                      float* grad_weight, float* grad_bias,
                      const ExecutionContext* exec) {
  const std::int64_t k = s.patch(), oc = s.out_ch, ohw = s.out_plane();
  const PatchColumns patches(s, x);
  const ChannelRows grads(grad_out, s.batch, oc, ohw);
  // Rows are patch elements and columns channels: the transposed weight
  // gradient, added into the [OC, patch] layout.
  gemm_packed(
      patches, grads,
      [&](std::int64_t i0, std::int64_t rows, const float* tile) {
        for (std::int64_t r = 0; r < rows; ++r)
          for (std::int64_t ch = 0; ch < oc; ++ch)
            grad_weight[ch * k + i0 + r] += tile[r * oc + ch];
      },
      exec, active_gemm_kernel());

  // Bias: each channel's sum runs in ascending (n, pos) order, unconditionally
  // (no value-dependent branch in a reduction). A panel of channels is
  // summed side by side so the independent chains overlap.
  for (std::int64_t c0 = 0; c0 < oc; c0 += kPanel) {
    const std::int64_t width = std::min(kPanel, oc - c0);
    float acc[kPanel];
    for (std::int64_t j = 0; j < width; ++j) acc[j] = grad_bias[c0 + j];
    for (std::int64_t n = 0; n < s.batch; ++n) {
      const float* planes = grad_out + (n * oc + c0) * ohw;
      for (std::int64_t pos = 0; pos < ohw; ++pos)
        for (std::int64_t j = 0; j < width; ++j) acc[j] += planes[j * ohw + pos];
    }
    for (std::int64_t j = 0; j < width; ++j) grad_bias[c0 + j] = acc[j];
  }
}

void conv_input_grad(const ConvShape& s, const float* grad_out, const float* weight,
                     float* dx, const ExecutionContext* exec) {
  const std::int64_t k = s.patch(), oc = s.out_ch, ohw = s.out_plane();
  const std::int64_t group = std::max<std::int64_t>(1, (kMinGroupColumns + ohw - 1) / ohw);
  const std::int64_t groups = (s.batch + group - 1) / group;
  const GemmKernel kernel = active_gemm_kernel();
  // W^T as [patch, OC]: row kk of the product is patch element kk.
  const StridedOperand filters(weight, k, oc, 1, k);
  const std::vector<OutputSpan> row_spans =
      output_spans(s.kernel_h, s.pad_h, s.stride, s.in_h, s.out_h);
  const std::vector<OutputSpan> col_spans =
      output_spans(s.kernel_w, s.pad_w, s.stride, s.in_w, s.out_w);
  const auto run = [&](std::int64_t g0, std::int64_t g1) {
    for (std::int64_t gi = g0; gi < g1; ++gi) {
      const std::int64_t n0 = gi * group;
      const std::int64_t images = std::min(group, s.batch - n0);
      const std::int64_t cols = images * ohw;
      const PositionRows grads(grad_out + n0 * oc * ohw, images, oc, ohw);
      std::vector<float>& scratch = fold_scratch();
      if (scratch.size() < static_cast<std::size_t>(k * cols))
        scratch.resize(static_cast<std::size_t>(k * cols));
      gemm_packed(filters, grads, scratch.data(), nullptr, kernel);
      for (std::int64_t i = 0; i < images; ++i)
        fold_image(s, row_spans, col_spans, scratch.data() + i * ohw, cols,
                   dx + (n0 + i) * s.in_ch * s.in_plane());
    }
  };
  if (exec != nullptr)
    exec->parallel_for(groups, run, gemm_item_grain(kernel, k * oc * group * ohw));
  else
    run(0, groups);
}

}  // namespace dinar::nn
