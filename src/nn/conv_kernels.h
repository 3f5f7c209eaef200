// Convolution as packing inside the one gemm driver.
//
// No patch (im2col) matrix is ever built. Each convolution product runs on
// gemm_packed() (tensor/tensor.h) with operands that gather their panels
// straight from NCHW data (the indirect-convolution idea, Dukhan,
// arXiv:1907.02129):
//
//   forward        y = patches(x) . W^T    rows = output positions over
//                                          the batch; each finished
//                                          row-block lands in NCHW with the
//                                          bias added
//   weight grad    dW^T = patches(x)^T . g rows = patch elements (c, ky, kx),
//                                          reduced over every (n, oy, ox)
//   input grad     per group of images, dcols^T = W^T . g into thread-local
//                                          scratch, then folded into dx
//
// The packed panels hold exactly the values an im2col matrix would hold:
// padding positions are explicit 0.0f operands, so 0 x NaN still
// propagates. Each output element keeps one accumulator in ascending
// reduction order, the bias sum runs in ascending (n, oy, ox) order, and
// every dx element receives its contributions in ascending (oy, ox) order
// starting from 0.0f — the operation sequence of the im2col/col2im
// lowering these kernels replaced, so results are bit-identical to it for
// each kernel tier and every thread count.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace dinar::nn {

// Geometry of one convolution over NCHW data. Conv1d is the height-1 case
// (in_h = out_h = kernel_h = 1, pad_h = 0).
struct ConvShape {
  std::int64_t batch = 0, in_ch = 0, in_h = 0, in_w = 0;
  std::int64_t out_ch = 0, kernel_h = 0, kernel_w = 0;
  std::int64_t stride = 1, pad_h = 0, pad_w = 0;
  std::int64_t out_h = 0, out_w = 0;

  // Elements per patch, ordered (c, ky, kx) like the weight's rows.
  std::int64_t patch() const { return in_ch * kernel_h * kernel_w; }
  std::int64_t in_plane() const { return in_h * in_w; }
  std::int64_t out_plane() const { return out_h * out_w; }
};

// y [B, OC, OH, OW] = conv(x [B, C, H, W], weight [OC, C, KH, KW]) + bias.
void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* y, const ExecutionContext* exec);

// grad_weight += dL/dW and grad_bias += dL/db for the upstream gradient
// grad_out [B, OC, OH, OW] of the forward pass over x.
void conv_param_grads(const ConvShape& s, const float* x, const float* grad_out,
                      float* grad_weight, float* grad_bias,
                      const ExecutionContext* exec);

// dx [B, C, H, W], zero on entry, receives dL/dx. Parallel over groups of
// whole images; each group's product stays in the executing thread's
// scratch.
void conv_input_grad(const ConvShape& s, const float* grad_out, const float* weight,
                     float* dx, const ExecutionContext* exec);

}  // namespace dinar::nn
