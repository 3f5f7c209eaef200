#include "nn/conv2d.h"

#include "util/error.h"

namespace dinar::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel), stride_(stride),
      padding_(padding),
      weight_(Tensor::kaiming({out_channels, in_channels, kernel, kernel},
                              in_channels * kernel * kernel, rng)),
      bias_(Tensor::kaiming({out_channels}, in_channels * kernel * kernel, rng)),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  DINAR_CHECK(stride >= 1 && kernel >= 1 && padding >= 0, "invalid conv2d geometry");
}

ConvShape Conv2d::shape_for(const Tensor& x) const {
  const std::int64_t h = x.dim(2), w = x.dim(3);
  return ConvShape{.batch = x.dim(0), .in_ch = in_ch_, .in_h = h, .in_w = w,
                   .out_ch = out_ch_, .kernel_h = kernel_, .kernel_w = kernel_,
                   .stride = stride_, .pad_h = padding_, .pad_w = padding_,
                   .out_h = out_size(h), .out_w = out_size(w)};
}

Tensor Conv2d::forward(const Tensor& x, bool train) {
  DINAR_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
              name() << " got input " << shape_to_string(x.shape()));
  const ConvShape s = shape_for(x);
  DINAR_CHECK(s.out_h >= 1 && s.out_w >= 1, name() << ": input spatially too small");
  Tensor y({s.batch, out_ch_, s.out_h, s.out_w});
  conv_forward(s, x.data(), weight_.data(), bias_.data(), y.data(), exec_);
  if (train) cached_input_ = x;
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_input_.empty(), "Conv2d::backward without cached forward");
  const Tensor& x = cached_input_;
  const ConvShape s = shape_for(x);
  DINAR_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == s.batch &&
                  grad_out.dim(1) == out_ch_ && grad_out.dim(2) == s.out_h &&
                  grad_out.dim(3) == s.out_w,
              "Conv2d backward shape mismatch");
  conv_param_grads(s, x.data(), grad_out.data(), grad_weight_.data(), grad_bias_.data(),
                   exec_);
  Tensor dx(x.shape());
  conv_input_grad(s, grad_out.data(), weight_.data(), dx.data(), exec_);
  return dx;
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",k" +
         std::to_string(kernel_) + ",s" + std::to_string(stride_) + ",p" +
         std::to_string(padding_) + ")";
}

std::vector<ParamGroup> Conv2d::param_groups() {
  return {ParamGroup{name(), {&weight_, &bias_}, {&grad_weight_, &grad_bias_}}};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::unique_ptr<Layer>(new Conv2d(*this));
}

}  // namespace dinar::nn
