// Bitwise oracle for the convolution layers.
//
// The oracle is the materialized lowering the layers used before they
// packed patches inside the gemm driver: an im2col patch matrix, gemm
// against the weight view, a scatter into NCHW, and col2im for the input
// gradient. The layers must reproduce its forward output, weight and bias
// gradients and input gradient bit for bit, for every thread count and
// whichever gemm kernel the process runs (ctest also runs this suite with
// DINAR_GEMM_KERNEL=scalar).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "util/execution_context.h"

namespace dinar::nn {
namespace {

// ------------------------------------------------------------- oracle --

// [B, C, H, W] -> [B*OH*OW, C*KH*KW], padding as explicit zeros.
Tensor im2col2d(const Tensor& x, std::int64_t kernel_h, std::int64_t kernel_w,
                std::int64_t stride, std::int64_t padding_h, std::int64_t padding_w,
                std::int64_t oh, std::int64_t ow) {
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t ck = c * kernel_h * kernel_w;
  Tensor cols({b * oh * ow, ck});
  float* crow = cols.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        for (std::int64_t ic = 0; ic < c; ++ic)
          for (std::int64_t ky = 0; ky < kernel_h; ++ky) {
            const std::int64_t iy = oy * stride + ky - padding_h;
            for (std::int64_t kx = 0; kx < kernel_w; ++kx) {
              const std::int64_t ix = ox * stride + kx - padding_w;
              const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
              *crow++ = inside ? x.data()[((n * c + ic) * h + iy) * w + ix] : 0.0f;
            }
          }
  return cols;
}

// Scatter-add transpose of im2col2d in ascending (oy, ox) order per image.
void col2im2d(const Tensor& dcols, Tensor& dx, std::int64_t kernel_h,
              std::int64_t kernel_w, std::int64_t stride, std::int64_t padding_h,
              std::int64_t padding_w, std::int64_t oh, std::int64_t ow) {
  const std::int64_t b = dx.dim(0), c = dx.dim(1), h = dx.dim(2), w = dx.dim(3);
  const float* crow = dcols.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t oy = 0; oy < oh; ++oy)
      for (std::int64_t ox = 0; ox < ow; ++ox)
        for (std::int64_t ic = 0; ic < c; ++ic)
          for (std::int64_t ky = 0; ky < kernel_h; ++ky) {
            const std::int64_t iy = oy * stride + ky - padding_h;
            for (std::int64_t kx = 0; kx < kernel_w; ++kx) {
              const std::int64_t ix = ox * stride + kx - padding_w;
              const float v = *crow++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                dx.data()[((n * c + ic) * h + iy) * w + ix] += v;
            }
          }
}

// [B, OC, OH, OW] -> [B*OH*OW, OC].
Tensor gather_grad_rows2d(const Tensor& g) {
  const std::int64_t b = g.dim(0), oc = g.dim(1), hw = g.dim(2) * g.dim(3);
  Tensor out({b * hw, oc});
  for (std::int64_t r = 0; r < b * hw; ++r)
    for (std::int64_t ch = 0; ch < oc; ++ch)
      out.data()[r * oc + ch] = g.data()[((r / hw) * oc + ch) * hw + r % hw];
  return out;
}

// [B*OH*OW, OC] -> [B, OC, OH, OW] with the bias added.
Tensor scatter_output_rows2d(const Tensor& rows, const Tensor& bias, std::int64_t b,
                             std::int64_t oh, std::int64_t ow) {
  const std::int64_t oc = rows.dim(1), hw = oh * ow;
  Tensor y({b, oc, oh, ow});
  for (std::int64_t r = 0; r < b * hw; ++r)
    for (std::int64_t ch = 0; ch < oc; ++ch)
      y.data()[((r / hw) * oc + ch) * hw + r % hw] =
          rows.data()[r * oc + ch] + bias.data()[ch];
  return y;
}

// Column sums accumulated into grad_bias in ascending row order.
void accumulate_bias_grad(const Tensor& grad_rows, Tensor& grad_bias) {
  const std::int64_t rows = grad_rows.dim(0), oc = grad_rows.dim(1);
  for (std::int64_t ch = 0; ch < oc; ++ch)
    for (std::int64_t r = 0; r < rows; ++r)
      grad_bias.data()[ch] += grad_rows.data()[r * oc + ch];
}

// The former ReLU: copy, then clamp in place.
Tensor relu_forward(const Tensor& x) {
  Tensor y = x;
  for (float& v : y.values())
    if (v < 0.0f) v = 0.0f;
  return y;
}

Tensor relu_backward(const Tensor& x, const Tensor& g) {
  Tensor dx = g;
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    if (x.data()[i] <= 0.0f) dx.data()[i] = 0.0f;
  return dx;
}

// ----------------------------------------------------------- harness --

struct Case {
  std::int64_t batch, in_ch, out_ch, kernel, stride, padding, h, w;
  bool one_d;  // Conv1d over [B, C, w] (h must be 1)
};

struct Grads {
  Tensor y, dx, dw, db;
};

std::int64_t out_size(std::int64_t in, const Case& c) {
  return (in + 2 * c.padding - c.kernel) / c.stride + 1;
}

// What the lowering computes for forward(x) then backward(g), with the
// parameter gradients accumulated onto dw0/db0.
Grads oracle(const Case& c, const Tensor& x, const Tensor& weight, const Tensor& bias,
             const Tensor& g, const Tensor& dw0, const Tensor& db0) {
  const std::int64_t kh = c.one_d ? 1 : c.kernel, ph = c.one_d ? 0 : c.padding;
  const std::int64_t oh = c.one_d ? 1 : out_size(c.h, c), ow = out_size(c.w, c);
  const Tensor x4 = x.reshaped({c.batch, c.in_ch, c.h, c.w});
  const Tensor g4 = g.reshaped({c.batch, c.out_ch, oh, ow});
  const Tensor wmat = weight.reshaped({c.out_ch, c.in_ch * kh * c.kernel});

  const Tensor cols = im2col2d(x4, kh, c.kernel, c.stride, ph, c.padding, oh, ow);
  const Tensor rows = gemm(Trans::kN, Trans::kT, cols, wmat);
  Grads out;
  out.y = scatter_output_rows2d(rows, bias, c.batch, oh, ow).reshaped(g.shape());

  const Tensor gmat = gather_grad_rows2d(g4);
  out.dw = dw0;
  out.dw += gemm(Trans::kT, Trans::kN, gmat, cols).reshaped(weight.shape());
  out.db = db0;
  accumulate_bias_grad(gmat, out.db);
  const Tensor dcols = gemm(Trans::kN, Trans::kN, gmat, wmat);
  Tensor dx4({c.batch, c.in_ch, c.h, c.w});
  col2im2d(dcols, dx4, kh, c.kernel, c.stride, ph, c.padding, oh, ow);
  out.dx = dx4.reshaped(x.shape());
  return out;
}

std::unique_ptr<Layer> make_layer(const Case& c, Rng& rng) {
  if (c.one_d)
    return std::make_unique<Conv1d>(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  return std::make_unique<Conv2d>(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
}

Grads run_layer(Layer& layer, const Tensor& x, const Tensor& weight, const Tensor& bias,
                const Tensor& g, const Tensor& dw0, const Tensor& db0) {
  ParamGroup group = layer.param_groups().at(0);
  *group.params[0] = weight;
  *group.params[1] = bias;
  *group.grads[0] = dw0;
  *group.grads[1] = db0;
  Grads out;
  out.y = layer.forward(x, true);
  out.dx = layer.backward(g);
  out.dw = *group.grads[0];
  out.db = *group.grads[1];
  return out;
}

void expect_bitwise_equal(const Tensor& got, const Tensor& want, const char* what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(float)) != 0) {
      ADD_FAILURE() << what << " differs at element " << i << ": got " << got.at(i)
                    << ", oracle " << want.at(i);
      return;
    }
  }
}

void expect_matches_oracle(const Grads& got, const Grads& want) {
  expect_bitwise_equal(got.y, want.y, "forward");
  expect_bitwise_equal(got.dw, want.dw, "weight grad");
  expect_bitwise_equal(got.db, want.db, "bias grad");
  expect_bitwise_equal(got.dx, want.dx, "input grad");
}

struct Inputs {
  Tensor x, weight, bias, g, dw0, db0;
};

Inputs make_inputs(const Case& c, std::uint64_t seed) {
  Rng rng(seed);
  const Shape x_shape = c.one_d ? Shape{c.batch, c.in_ch, c.w}
                                : Shape{c.batch, c.in_ch, c.h, c.w};
  const std::int64_t ow = out_size(c.w, c);
  const Shape y_shape = c.one_d ? Shape{c.batch, c.out_ch, ow}
                                : Shape{c.batch, c.out_ch, out_size(c.h, c), ow};
  const Shape w_shape = c.one_d ? Shape{c.out_ch, c.in_ch, c.kernel}
                                : Shape{c.out_ch, c.in_ch, c.kernel, c.kernel};
  Inputs in;
  in.x = Tensor::gaussian(x_shape, rng);
  in.weight = Tensor::gaussian(w_shape, rng, 0.5f);
  in.bias = Tensor::gaussian({c.out_ch}, rng, 0.5f);
  in.g = Tensor::gaussian(y_shape, rng);
  // Non-zero starting gradients: the layers accumulate, they do not assign.
  in.dw0 = Tensor::gaussian(w_shape, rng, 0.1f);
  in.db0 = Tensor::gaussian({c.out_ch}, rng, 0.1f);
  return in;
}

void check_case(const Case& c, unsigned threads, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message()
               << (c.one_d ? "conv1d" : "conv2d") << " b" << c.batch << " " << c.in_ch
               << "->" << c.out_ch << " k" << c.kernel << " s" << c.stride << " p"
               << c.padding << " " << c.h << "x" << c.w << " threads " << threads);
  const Inputs in = make_inputs(c, seed);
  const Grads want = oracle(c, in.x, in.weight, in.bias, in.g, in.dw0, in.db0);
  ExecutionContext exec(ExecConfig{.threads = threads, .grain = 1});
  Rng rng(seed + 1);
  std::unique_ptr<Layer> layer = make_layer(c, rng);
  layer->set_execution_context(&exec);
  expect_matches_oracle(run_layer(*layer, in.x, in.weight, in.bias, in.g, in.dw0, in.db0),
                        want);
}

// --------------------------------------------------------------- tests --

TEST(ConvOracleTest, Conv2dGeometriesMatchBitwise) {
  std::uint64_t seed = 100;
  for (std::int64_t kernel : {1, 3})
    for (std::int64_t stride : {1, 2})
      for (std::int64_t padding : {0, 1})
        for (std::int64_t batch : {1, 3})
          // A 7x7 input gives output planes of 81, 49, 25, 16 and 9
          // positions: most row-blocks end off a multiple of 8.
          check_case(Case{batch, 3, 5, kernel, stride, padding, 7, 7, false}, 1, ++seed);
  // Non-square input, and windows wider than the image itself: every
  // position overhangs the padding.
  check_case(Case{2, 2, 3, 3, 1, 1, 4, 9, false}, 2, ++seed);
  check_case(Case{2, 2, 3, 3, 2, 1, 9, 4, false}, 2, ++seed);
  check_case(Case{3, 2, 9, 3, 1, 1, 2, 2, false}, 2, ++seed);
  check_case(Case{2, 3, 4, 5, 1, 2, 3, 3, false}, 4, ++seed);
}

TEST(ConvOracleTest, ResNetShapesMatchBitwiseAtEveryThreadCount) {
  const Case cases[] = {
      {4, 3, 8, 3, 1, 1, 12, 12, false},   // stem
      {4, 8, 16, 3, 2, 1, 12, 12, false},  // stage-2 entry (6x6 out)
      {4, 16, 32, 3, 2, 1, 6, 6, false},   // stage-3 entry (3x3 out)
      {4, 32, 32, 3, 1, 1, 3, 3, false},
      {4, 16, 32, 1, 2, 0, 6, 6, false},   // projection
  };
  std::uint64_t seed = 200;
  for (const Case& c : cases)
    for (unsigned threads : {1u, 2u, 4u}) check_case(c, threads, ++seed);
}

TEST(ConvOracleTest, Conv1dShapesMatchBitwiseAtEveryThreadCount) {
  const Case cases[] = {
      {3, 1, 8, 16, 4, 0, 1, 128, true},  // M5 front end (29 outputs)
      {3, 8, 16, 3, 1, 1, 1, 31, true},
      {1, 16, 32, 3, 1, 1, 1, 7, true},
      {5, 2, 3, 5, 2, 2, 1, 16, true},
  };
  std::uint64_t seed = 300;
  for (const Case& c : cases)
    for (unsigned threads : {1u, 2u, 4u}) check_case(c, threads, ++seed);
}

TEST(ConvOracleTest, NanWeightUnderPaddingPropagatesLikeTheOracle) {
  const Case c{2, 2, 3, 3, 1, 1, 5, 5, false};
  Inputs in = make_inputs(c, 400);
  // Tap (ky, kx) = (0, 0) of output channel 0 sees only padding at output
  // (0, 0): the explicit 0.0f operand times NaN must still give NaN.
  in.weight.at(0) = std::numeric_limits<float>::quiet_NaN();
  const Grads want = oracle(c, in.x, in.weight, in.bias, in.g, in.dw0, in.db0);
  ASSERT_TRUE(std::isnan(want.y.at(0)));
  for (unsigned threads : {1u, 4u}) {
    ExecutionContext exec(ExecConfig{.threads = threads, .grain = 1});
    Rng rng(1);
    Conv2d layer(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
    layer.set_execution_context(&exec);
    const Grads got = run_layer(layer, in.x, in.weight, in.bias, in.g, in.dw0, in.db0);
    EXPECT_TRUE(std::isnan(got.y.at(0)));
    expect_matches_oracle(got, want);
  }
}

TEST(ConvOracleTest, NegativeZeroThroughReluMatchesBitwise) {
  const Case c{2, 2, 4, 3, 1, 1, 6, 6, false};
  Inputs in = make_inputs(c, 500);
  // Exact -0.0 and negative inputs: ReLU keeps -0.0 and zeroes negatives.
  for (std::int64_t i = 0; i < in.x.numel(); i += 3) in.x.at(i) = -0.0f;
  for (std::int64_t i = 1; i < in.x.numel(); i += 7) in.x.at(i) = -std::fabs(in.x.at(i));

  const Tensor a_want = relu_forward(in.x);
  const Grads conv_want = oracle(c, a_want, in.weight, in.bias, in.g, in.dw0, in.db0);
  const Tensor dx_want = relu_backward(in.x, conv_want.dx);

  ExecutionContext exec(ExecConfig{.threads = 2, .grain = 1});
  ReLU relu;
  Rng rng(2);
  Conv2d conv(c.in_ch, c.out_ch, c.kernel, c.stride, c.padding, rng);
  conv.set_execution_context(&exec);
  const Tensor a = relu.forward(in.x, true);
  expect_bitwise_equal(a, a_want, "relu forward");
  const Grads conv_got = run_layer(conv, a, in.weight, in.bias, in.g, in.dw0, in.db0);
  expect_matches_oracle(conv_got, conv_want);
  expect_bitwise_equal(relu.backward(conv_got.dx), dx_want, "relu backward");
}

}  // namespace
}  // namespace dinar::nn
