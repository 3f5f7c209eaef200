// Shared fixtures: tiny datasets and models sized for fast unit tests.
#pragma once

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/model_zoo.h"
#include "store/round_store.h"
#include "util/serde.h"

namespace dinar::testing {

// Small, well-separated two-feature dataset: class = (x0 > x1).
inline data::Dataset make_easy_dataset(std::int64_t n, Rng& rng) {
  Tensor features({n, 2});
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double x0 = rng.gaussian(), x1 = rng.gaussian();
    features.at(i, 0) = static_cast<float>(x0);
    features.at(i, 1) = static_cast<float>(x1);
    labels[static_cast<std::size_t>(i)] = x0 > x1 ? 1 : 0;
  }
  return data::Dataset(std::move(features), std::move(labels), 2);
}

// Tiny tabular dataset in the style of the paper's Purchase100 analogue.
inline data::Dataset make_tiny_tabular(std::int64_t n, int classes, Rng& rng) {
  data::TabularSpec spec;
  spec.num_samples = n;
  spec.num_features = 32;
  spec.num_classes = classes;
  spec.label_noise = 0.1;
  return data::make_tabular(spec, rng);
}

// 3-dense-layer MLP for gradient and FL tests.
inline nn::Model make_tiny_mlp(std::int64_t in, std::int64_t classes, Rng& rng) {
  nn::Model m;
  m.add(std::make_unique<nn::Dense>(in, 16, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(16, 8, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(8, classes, rng));
  return m;
}

inline nn::ModelFactory tiny_mlp_factory(std::int64_t in, std::int64_t classes) {
  return [in, classes](Rng& rng) { return make_tiny_mlp(in, classes, rng); };
}

// Over-parameterized MLP: enough capacity to memorize small shards, which
// is what makes membership-inference scenarios realistic (the paper's
// models are heavily over-parameterized relative to per-client data).
inline nn::Model make_wide_mlp(std::int64_t in, std::int64_t classes, Rng& rng) {
  nn::Model m;
  m.add(std::make_unique<nn::Dense>(in, 64, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(64, 32, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(32, classes, rng));
  return m;
}

inline nn::ModelFactory wide_mlp_factory(std::int64_t in, std::int64_t classes) {
  return [in, classes](Rng& rng) { return make_wide_mlp(in, classes, rng); };
}

// Fresh, empty directory under the gtest temp dir. ctest runs the tests as
// concurrent processes, so every test needs a name of its own.
inline std::string fresh_temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "dinar_test_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// The simulation's full state (the DFST snapshot payload) as bytes.
inline std::vector<std::uint8_t> full_state_bytes(const fl::FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.take();
}

// Crash and resume through the round store: runs a simulation from `make`
// with a store in `dir` for `kill_after` rounds and drops it the way a
// killed process would, then recovers a fresh simulation from the store
// and finishes the run. Returns the resumed run's final full state.
inline std::vector<std::uint8_t> resume_from_store(
    const std::function<fl::FederatedSimulation()>& make, const std::string& dir,
    int kill_after, int snapshot_every) {
  {
    store::RoundStore store(dir);
    fl::FederatedSimulation first = make();
    first.attach_store(&store, snapshot_every);
    for (int r = 0; r < kill_after; ++r) first.run_round();
  }
  store::RoundStore store(dir);
  fl::FederatedSimulation resumed = make();
  resumed.attach_store(&store, snapshot_every);
  EXPECT_EQ(resumed.recover_from_store(), kill_after);
  resumed.run();
  EXPECT_EQ(resumed.server().round(), resumed.config().rounds);
  resumed.attach_store(nullptr);
  return full_state_bytes(resumed);
}

}  // namespace dinar::testing
