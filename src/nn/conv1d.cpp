#include "nn/conv1d.h"

#include "util/error.h"

namespace dinar::nn {

Conv1d::Conv1d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel), stride_(stride),
      padding_(padding),
      weight_(Tensor::kaiming({out_channels, in_channels, kernel},
                              in_channels * kernel, rng)),
      bias_(Tensor::kaiming({out_channels}, in_channels * kernel, rng)),
      grad_weight_({out_channels, in_channels, kernel}), grad_bias_({out_channels}) {
  DINAR_CHECK(stride >= 1 && kernel >= 1 && padding >= 0, "invalid conv1d geometry");
}

ConvShape Conv1d::shape_for(const Tensor& x) const {
  const std::int64_t l = x.dim(2);
  return ConvShape{.batch = x.dim(0), .in_ch = in_ch_, .in_h = 1, .in_w = l,
                   .out_ch = out_ch_, .kernel_h = 1, .kernel_w = kernel_,
                   .stride = stride_, .pad_h = 0, .pad_w = padding_,
                   .out_h = 1, .out_w = out_size(l)};
}

Tensor Conv1d::forward(const Tensor& x, bool train) {
  DINAR_CHECK(x.rank() == 3 && x.dim(1) == in_ch_,
              name() << " got input " << shape_to_string(x.shape()));
  const ConvShape s = shape_for(x);
  DINAR_CHECK(s.out_w >= 1, name() << ": input too short");
  Tensor y({s.batch, out_ch_, s.out_w});
  conv_forward(s, x.data(), weight_.data(), bias_.data(), y.data(), exec_);
  if (train) cached_input_ = x;
  return y;
}

Tensor Conv1d::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_input_.empty(), "Conv1d::backward without cached forward");
  const Tensor& x = cached_input_;
  const ConvShape s = shape_for(x);
  DINAR_CHECK(grad_out.rank() == 3 && grad_out.dim(0) == s.batch &&
                  grad_out.dim(1) == out_ch_ && grad_out.dim(2) == s.out_w,
              "Conv1d backward shape mismatch");
  conv_param_grads(s, x.data(), grad_out.data(), grad_weight_.data(), grad_bias_.data(),
                   exec_);
  Tensor dx(x.shape());
  conv_input_grad(s, grad_out.data(), weight_.data(), dx.data(), exec_);
  return dx;
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",k" +
         std::to_string(kernel_) + ",s" + std::to_string(stride_) + ",p" +
         std::to_string(padding_) + ")";
}

std::vector<ParamGroup> Conv1d::param_groups() {
  return {ParamGroup{name(), {&weight_, &bias_}, {&grad_weight_, &grad_bias_}}};
}

std::unique_ptr<Layer> Conv1d::clone() const {
  return std::unique_ptr<Layer>(new Conv1d(*this));
}

}  // namespace dinar::nn
