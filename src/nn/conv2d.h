// 2-D convolution over [B, C, H, W] inputs.
//
// Forward and backward run on the gemm driver with operands packed
// straight from the NCHW input and gradient (nn/conv_kernels.h); backward
// keeps only the forward input, never a patch matrix.
#pragma once

#include "nn/conv_kernels.h"
#include "nn/layer.h"

namespace dinar::nn {

class Conv2d : public Layer {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t padding, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  std::string name() const override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Layer> clone() const override;

  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  Conv2d(const Conv2d&) = default;

  std::int64_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Tensor weight_;  // [OC, IC, K, K]
  Tensor bias_;    // [OC]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;

  ConvShape shape_for(const Tensor& x) const;
};

}  // namespace dinar::nn
