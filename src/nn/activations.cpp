#include "nn/activations.h"

#include <bit>
#include <cmath>
#include <cstdint>

#include "util/error.h"

namespace dinar::nn {

namespace {

// All-ones when `keep`, else zero: ANDed with a float's bits it selects
// the value or +0.0 without a branch (signs of the inputs are random, so a
// branch mispredicts about every other element).
std::uint32_t keep_mask(bool keep) { return 0u - static_cast<std::uint32_t>(keep); }

float select_bits(float v, std::uint32_t mask) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) & mask);
}

}  // namespace

// One pass each way. Forward zeroes exactly where x < 0, so -0.0 and NaN
// pass through as they are; backward zeroes exactly where x <= 0.
Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor y(x.shape());
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t i = 0; i < y.numel(); ++i)
    py[i] = select_bits(px[i], keep_mask(!(px[i] < 0.0f)));
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_input_.empty(), "ReLU::backward without cached forward");
  DINAR_CHECK(grad_out.same_shape(cached_input_), "ReLU backward shape mismatch");
  Tensor dx(grad_out.shape());
  const float* px = cached_input_.data();
  const float* pg = grad_out.data();
  float* pd = dx.data();
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    pd[i] = select_bits(pg[i], keep_mask(!(px[i] <= 0.0f)));
  return dx;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (float& v : y.values()) v = std::tanh(v);
  if (train) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_output_.empty(), "Tanh::backward without cached forward");
  DINAR_CHECK(grad_out.same_shape(cached_output_), "Tanh backward shape mismatch");
  Tensor dx = grad_out;
  const float* py = cached_output_.data();
  float* pd = dx.data();
  for (std::int64_t i = 0; i < dx.numel(); ++i) pd[i] *= 1.0f - py[i] * py[i];
  return dx;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(*this); }

}  // namespace dinar::nn
