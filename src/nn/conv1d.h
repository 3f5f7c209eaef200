// 1-D convolution over [B, C, L] inputs — the audio path (paper's Speech
// Commands / M18 substitute operates on raw synthetic waveforms). It runs
// the 2-D convolution kernels as their height-1 case, on the [B, C, L]
// data as it is (nn/conv_kernels.h).
#pragma once

#include "nn/conv_kernels.h"
#include "nn/layer.h"

namespace dinar::nn {

class Conv1d : public Layer {
 public:
  Conv1d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
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
  Conv1d(const Conv1d&) = default;

  std::int64_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Tensor weight_;  // [OC, IC, K]
  Tensor bias_;    // [OC]
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor cached_input_;

  ConvShape shape_for(const Tensor& x) const;
};

}  // namespace dinar::nn
