#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pooling.h"
#include "nn/residual.h"
#include "util/error.h"

namespace dinar::nn {
namespace {

using dinar::testing::expect_gradients_match;

Tensor random_input(Shape shape, std::uint64_t seed) {
  Rng rng(seed);
  return Tensor::gaussian(std::move(shape), rng);
}

// ---------------------------------------------------------------- dense --

TEST(DenseTest, ForwardShapeAndBias) {
  Rng rng(1);
  Dense d(3, 2, rng);
  Tensor x({4, 3});
  Tensor y = d.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{4, 2}));
  // Zero input -> output equals the bias in every row.
  for (std::int64_t i = 1; i < 4; ++i) {
    EXPECT_EQ(y.at(i, 0), y.at(0, 0));
    EXPECT_EQ(y.at(i, 1), y.at(0, 1));
  }
}

TEST(DenseTest, RejectsWrongInputWidth) {
  Rng rng(1);
  Dense d(3, 2, rng);
  Tensor x({4, 5});
  EXPECT_THROW(d.forward(x, false), Error);
}

TEST(DenseTest, BackwardWithoutForwardThrows) {
  Rng rng(1);
  Dense d(3, 2, rng);
  Tensor g({4, 2});
  EXPECT_THROW(d.backward(g), Error);
}

TEST(DenseTest, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Model m;
  m.add(std::make_unique<Dense>(5, 4, rng));
  Tensor x = random_input({3, 5}, 10);
  expect_gradients_match(m, x);
}

TEST(DenseTest, ParamGroupExposesWeightAndBias) {
  Rng rng(3);
  Dense d(4, 6, rng);
  auto groups = d.param_groups();
  ASSERT_EQ(groups.size(), 1u);
  ASSERT_EQ(groups[0].params.size(), 2u);
  EXPECT_EQ(groups[0].params[0]->shape(), (Shape{4, 6}));
  EXPECT_EQ(groups[0].params[1]->shape(), (Shape{6}));
  EXPECT_EQ(groups[0].numel(), 4 * 6 + 6);
}

TEST(DenseTest, CloneIsIndependent) {
  Rng rng(4);
  Dense d(2, 2, rng);
  auto copy = d.clone();
  Tensor* orig_w = d.param_groups()[0].params[0];
  Tensor* copy_w = copy->param_groups()[0].params[0];
  ASSERT_TRUE(orig_w->same_shape(*copy_w));
  EXPECT_EQ(orig_w->at(0), copy_w->at(0));
  copy_w->at(0) += 1.0f;
  EXPECT_NE(orig_w->at(0), copy_w->at(0));
}

// ----------------------------------------------------------- activations --

TEST(ReluTest, ForwardClampsNegatives) {
  ReLU relu;
  Tensor x({4}, {-1.0f, 0.0f, 0.5f, 2.0f});
  Tensor y = relu.forward(x, false);
  EXPECT_EQ(y.at(0), 0.0f);
  EXPECT_EQ(y.at(1), 0.0f);
  EXPECT_EQ(y.at(2), 0.5f);
  EXPECT_EQ(y.at(3), 2.0f);
}

TEST(ReluTest, BackwardMasksBySign) {
  ReLU relu;
  Tensor x({3}, {-1.0f, 2.0f, -3.0f});
  relu.forward(x, true);
  Tensor g({3}, {5.0f, 5.0f, 5.0f});
  Tensor dx = relu.backward(g);
  EXPECT_EQ(dx.at(0), 0.0f);
  EXPECT_EQ(dx.at(1), 5.0f);
  EXPECT_EQ(dx.at(2), 0.0f);
}

TEST(TanhTest, ForwardMatchesStd) {
  Tanh tanh_layer;
  Tensor x({2}, {0.5f, -1.0f});
  Tensor y = tanh_layer.forward(x, false);
  EXPECT_NEAR(y.at(0), std::tanh(0.5f), 1e-6);
  EXPECT_NEAR(y.at(1), std::tanh(-1.0f), 1e-6);
}

TEST(TanhTest, GradientsMatchFiniteDifferences) {
  Rng rng(6);
  Model m;
  m.add(std::make_unique<Dense>(4, 4, rng)).add(std::make_unique<Tanh>());
  expect_gradients_match(m, random_input({2, 4}, 11));
}

TEST(ActivationTest, StatelessLayersHaveNoParams) {
  ReLU relu;
  Tanh tanh_layer;
  Flatten flatten;
  EXPECT_TRUE(relu.param_groups().empty());
  EXPECT_TRUE(tanh_layer.param_groups().empty());
  EXPECT_TRUE(flatten.param_groups().empty());
}

// -------------------------------------------------------------- flatten --

TEST(FlattenTest, RoundTrip) {
  Flatten f;
  Tensor x = random_input({2, 3, 4, 5}, 12);
  Tensor y = f.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{2, 60}));
  Tensor back = f.backward(y);
  ASSERT_EQ(back.shape(), x.shape());
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_EQ(back.at(i), x.at(i));
}

// --------------------------------------------------------------- conv2d --

TEST(Conv2dTest, OutputGeometry) {
  Rng rng(7);
  Conv2d c(3, 8, 3, 1, 1, rng);
  Tensor x({2, 3, 12, 12});
  EXPECT_EQ(c.forward(x, false).shape(), (Shape{2, 8, 12, 12}));

  Conv2d strided(3, 4, 3, 2, 1, rng);
  EXPECT_EQ(strided.forward(x, false).shape(), (Shape{2, 4, 6, 6}));

  Conv2d valid(3, 4, 3, 1, 0, rng);
  EXPECT_EQ(valid.forward(x, false).shape(), (Shape{2, 4, 10, 10}));
}

TEST(Conv2dTest, IdentityKernelPassesThrough) {
  Rng rng(8);
  Conv2d c(1, 1, 1, 1, 0, rng);
  // Force weight=1, bias=0 -> identity.
  auto groups = c.param_groups();
  groups[0].params[0]->fill(1.0f);
  groups[0].params[1]->fill(0.0f);
  Tensor x = random_input({1, 1, 4, 4}, 13);
  Tensor y = c.forward(x, false);
  for (std::int64_t i = 0; i < x.numel(); ++i) EXPECT_NEAR(y.at(i), x.at(i), 1e-6);
}

TEST(Conv2dTest, GradientsMatchFiniteDifferences) {
  Rng rng(9);
  Model m;
  m.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng));
  expect_gradients_match(m, random_input({2, 2, 5, 5}, 14));
}

TEST(Conv2dTest, StridedGradientsMatchFiniteDifferences) {
  Rng rng(10);
  Model m;
  m.add(std::make_unique<Conv2d>(2, 2, 3, 2, 1, rng));
  expect_gradients_match(m, random_input({1, 2, 6, 6}, 15));
}

TEST(Conv2dTest, RejectsWrongChannelCount) {
  Rng rng(11);
  Conv2d c(3, 4, 3, 1, 1, rng);
  Tensor x({1, 2, 8, 8});
  EXPECT_THROW(c.forward(x, false), Error);
}

// --------------------------------------------------------------- conv1d --

TEST(Conv1dTest, OutputGeometry) {
  Rng rng(12);
  Conv1d c(1, 8, 16, 4, 0, rng);
  Tensor x({2, 1, 512});
  EXPECT_EQ(c.forward(x, false).shape(), (Shape{2, 8, 125}));
}

TEST(Conv1dTest, GradientsMatchFiniteDifferences) {
  Rng rng(13);
  Model m;
  m.add(std::make_unique<Conv1d>(2, 3, 5, 2, 2, rng));
  expect_gradients_match(m, random_input({2, 2, 16}, 16));
}

// -------------------------------------------------------------- pooling --

TEST(MaxPool2dTest, SelectsWindowMaximum) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  Tensor y = pool.forward(x, false);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_EQ(y.at(0), 5.0f);
}

TEST(MaxPool2dTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, 3.0f, 2.0f});
  pool.forward(x, true);
  Tensor g({1, 1, 1, 1}, {7.0f});
  Tensor dx = pool.backward(g);
  EXPECT_EQ(dx.at(0), 0.0f);
  EXPECT_EQ(dx.at(1), 7.0f);
  EXPECT_EQ(dx.at(2), 0.0f);
  EXPECT_EQ(dx.at(3), 0.0f);
}

TEST(MaxPool1dTest, SelectsAndRoutes) {
  MaxPool1d pool(4);
  Tensor x({1, 1, 4}, {0.1f, -2.0f, 3.0f, 1.0f});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(0), 3.0f);
  Tensor dx = pool.backward(Tensor({1, 1, 1}, {2.0f}));
  EXPECT_EQ(dx.at(2), 2.0f);
  EXPECT_EQ(dx.at(0), 0.0f);
}

TEST(MaxPool2dTest, AllNegativeInfinityWindowRoutesToItsOwnElement) {
  MaxPool2d pool(2);
  const float inf = std::numeric_limits<float>::infinity();
  // Two windows side by side; the second holds only -inf.
  Tensor x({1, 1, 2, 4}, {1.0f, 2.0f, -inf, -inf, 3.0f, 4.0f, -inf, -inf});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(1), -inf);
  Tensor dx = pool.backward(Tensor({1, 1, 1, 2}, {1.0f, 5.0f}));
  EXPECT_EQ(dx.at(5), 1.0f);
  EXPECT_EQ(dx.at(2), 5.0f);  // the window's own first element, not dx[0]
  EXPECT_EQ(dx.at(0), 0.0f);
}

TEST(MaxPool2dTest, NanBesideFiniteValuesPropagates) {
  MaxPool2d pool(2);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor x({1, 1, 2, 2}, {1.0f, 5.0f, nan, 2.0f});
  Tensor y = pool.forward(x, true);
  EXPECT_TRUE(std::isnan(y.at(0)));
  Tensor dx = pool.backward(Tensor({1, 1, 1, 1}, {3.0f}));
  EXPECT_EQ(dx.at(2), 3.0f);
  EXPECT_EQ(dx.at(1), 0.0f);
}

TEST(MaxPool1dTest, NanAndNegativeInfinityWindows) {
  MaxPool1d pool(2);
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // Batch of two rows; window 0 of row 1 holds only -inf, window 1 a NaN
  // after a finite value.
  Tensor x({2, 1, 4}, {0.5f, 0.25f, 1.0f, 2.0f, -inf, -inf, 7.0f, nan});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(2), -inf);
  EXPECT_TRUE(std::isnan(y.at(3)));
  Tensor dx = pool.backward(Tensor({2, 1, 2}, {1.0f, 2.0f, 3.0f, 4.0f}));
  EXPECT_EQ(dx.at(0), 1.0f);
  EXPECT_EQ(dx.at(4), 3.0f);  // not dx[0], the first element of the batch
  EXPECT_EQ(dx.at(7), 4.0f);
  EXPECT_EQ(dx.at(6), 0.0f);
}

TEST(GlobalAvgPool2dTest, AveragesAndDistributes) {
  GlobalAvgPool2d gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  Tensor y = gap.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_NEAR(y.at(0), 2.5f, 1e-6);
  EXPECT_NEAR(y.at(1), 25.0f, 1e-6);
  Tensor dx = gap.backward(Tensor({1, 2}, {4.0f, 8.0f}));
  EXPECT_NEAR(dx.at(0), 1.0f, 1e-6);
  EXPECT_NEAR(dx.at(4), 2.0f, 1e-6);
}

TEST(GlobalAvgPool1dTest, AveragesOverTime) {
  GlobalAvgPool1d gap;
  Tensor x({1, 1, 4}, {1, 2, 3, 4});
  Tensor y = gap.forward(x, true);
  EXPECT_NEAR(y.at(0), 2.5f, 1e-6);
  Tensor dx = gap.backward(Tensor({1, 1}, {8.0f}));
  for (std::int64_t i = 0; i < 4; ++i) EXPECT_NEAR(dx.at(i), 2.0f, 1e-6);
}

// ------------------------------------------------------------- residual --

TEST(ResidualBlockTest, IdentitySkipShape) {
  Rng rng(14);
  ResidualBlock block(4, 4, 1, rng);
  Tensor x = random_input({2, 4, 6, 6}, 17);
  EXPECT_EQ(block.forward(x, false).shape(), x.shape());
  // Identity skip: two convs = two param groups.
  EXPECT_EQ(block.param_groups().size(), 2u);
}

TEST(ResidualBlockTest, ProjectionSkipShapeAndGroups) {
  Rng rng(15);
  ResidualBlock block(4, 8, 2, rng);
  Tensor x = random_input({2, 4, 6, 6}, 18);
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{2, 8, 3, 3}));
  // conv1 + conv2 + projection.
  EXPECT_EQ(block.param_groups().size(), 3u);
}

TEST(ResidualBlockTest, GradientsMatchFiniteDifferences) {
  Rng rng(16);
  Model m;
  m.add(std::make_unique<ResidualBlock>(2, 3, 2, rng));
  expect_gradients_match(m, random_input({1, 2, 4, 4}, 19), /*eps=*/5e-3, /*tol=*/8e-2);
}

TEST(ResidualBlockTest, CloneIsDeep) {
  Rng rng(17);
  ResidualBlock block(2, 2, 1, rng);
  auto copy = block.clone();
  Tensor* w0 = block.param_groups()[0].params[0];
  Tensor* c0 = copy->param_groups()[0].params[0];
  EXPECT_EQ(w0->at(0), c0->at(0));
  c0->at(0) += 1.0f;
  EXPECT_NE(w0->at(0), c0->at(0));
}

TEST(ResidualBlockTest, GroupNamesArePrefixed) {
  Rng rng(18);
  ResidualBlock block(2, 4, 2, rng);
  for (const ParamGroup& g : block.param_groups())
    EXPECT_NE(g.name.find("resblock"), std::string::npos);
}

}  // namespace
}  // namespace dinar::nn
