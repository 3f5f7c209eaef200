// Engineering microbenchmarks (google-benchmark) for the substrate hot
// paths: tensor math, layer forward/backward, serialization, FedAvg
// aggregation, obfuscation, the sensitivity statistics and the durable
// store's commit tier (CRC-32, WAL append + fsync, snapshot install). Not
// a paper artifact; used to keep the simulator fast enough for the
// experiment suite. The ConvLayer/ReluLayer rows time every convolution of
// ResNetSmall (12x12x3 input) and M5Audio (512 samples) one layer at a
// time, forward and backward, at the workloads' batch of 64, on 1 and 4
// threads:
//
//   ./bench/bench_micro_substrate --benchmark_filter='ConvLayer|ReluLayer'
// The store rows report bytes/s only and gate nothing:
// fsync cost depends on the filesystem under the temp directory.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>

#include "core/obfuscation.h"
#include "fl/server.h"
#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "store/io.h"
#include "store/round_store.h"
#include "util/execution_context.h"
#include "util/stats.h"

namespace dinar {
namespace {

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::gaussian({n, n}, rng);
  Tensor b = Tensor::gaussian({n, n}, rng);
  for (auto _ : state) {
    Tensor c = gemm(Trans::kN, Trans::kN, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_DenseForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  Tensor x = Tensor::gaussian({64, 600}, rng);
  std::vector<int> labels(64, 3);
  for (auto _ : state) {
    Tensor y = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
    m.zero_grad();
    m.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_DenseForwardBackward);

void BM_ConvForwardBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Model m = nn::make_resnet_small(3, 12, 10, rng);
  Tensor x = Tensor::gaussian({16, 3, 12, 12}, rng);
  std::vector<int> labels(16, 1);
  for (auto _ : state) {
    Tensor y = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
    m.zero_grad();
    m.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_ConvForwardBackward);

void BM_ModelUpdateSerde(benchmark::State& state) {
  Rng rng(4);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  fl::ModelUpdateMsg msg;
  msg.client_id = 1;
  msg.num_samples = 100;
  msg.params = m.parameters();
  for (auto _ : state) {
    auto bytes = msg.serialize();
    fl::ModelUpdateMsg back = fl::ModelUpdateMsg::deserialize(bytes);
    benchmark::DoNotOptimize(back.params.as_span().data());
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(bytes.size()));
  }
}
BENCHMARK(BM_ModelUpdateSerde);

void BM_FedAvgAggregate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  std::vector<fl::ModelUpdateMsg> updates(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    updates[static_cast<std::size_t>(c)].client_id = c;
    updates[static_cast<std::size_t>(c)].num_samples = 100 + c;
    updates[static_cast<std::size_t>(c)].params = m.parameters();
  }
  for (auto _ : state) {
    fl::FlServer server(m.parameters(), std::make_unique<fl::NoServerDefense>());
    server.aggregate(updates);
    benchmark::DoNotOptimize(server.global_params().as_span().data());
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(5)->Arg(20);

void BM_ObfuscateLayer(benchmark::State& state) {
  Rng rng(6);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  Rng orng(7);
  for (auto _ : state) {
    nn::FlatParams snapshot = m.parameters();
    core::obfuscate_layer_in_snapshot(m, snapshot, 4, orng);
    benchmark::DoNotOptimize(snapshot.as_span().data());
  }
}
BENCHMARK(BM_ObfuscateLayer);

void BM_JsDivergenceSamples(benchmark::State& state) {
  Rng rng(8);
  std::vector<float> a(100000), b(100000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.gaussian());
    b[i] = static_cast<float>(rng.gaussian(0.3, 1.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(js_divergence_samples(a, b));
  }
}
BENCHMARK(BM_JsDivergenceSamples);

// One convolution of the two conv workloads. `size` is the input side
// (Conv2d, square) or length (Conv1d).
struct ConvLayerRow {
  const char* name;
  bool one_d;
  std::int64_t in_ch, out_ch, kernel, stride, padding, size;
};

constexpr std::int64_t kLayerBatch = 64;

constexpr ConvLayerRow kConvLayerRows[] = {
    {"resnet_3x8_k3s1", false, 3, 8, 3, 1, 1, 12},
    {"resnet_8x8_k3s1", false, 8, 8, 3, 1, 1, 12},
    {"resnet_8x16_k3s2", false, 8, 16, 3, 2, 1, 12},
    {"resnet_8x16_k1s2", false, 8, 16, 1, 2, 0, 12},
    {"resnet_16x16_k3s1", false, 16, 16, 3, 1, 1, 6},
    {"resnet_16x32_k3s2", false, 16, 32, 3, 2, 1, 6},
    {"resnet_16x32_k1s2", false, 16, 32, 1, 2, 0, 6},
    {"resnet_32x32_k3s1", false, 32, 32, 3, 1, 1, 3},
    {"m5_1x8_k16s4", true, 1, 8, 16, 4, 0, 512},
    {"m5_8x16_k3s1", true, 8, 16, 3, 1, 1, 31},
    {"m5_16x32_k3s1", true, 16, 32, 3, 1, 1, 7},
    {"m5_32x32_k3s1", true, 32, 32, 3, 1, 1, 7},
};

std::unique_ptr<nn::Layer> make_conv_layer(const ConvLayerRow& row, Rng& rng) {
  if (row.one_d)
    return std::make_unique<nn::Conv1d>(row.in_ch, row.out_ch, row.kernel, row.stride,
                                        row.padding, rng);
  return std::make_unique<nn::Conv2d>(row.in_ch, row.out_ch, row.kernel, row.stride,
                                      row.padding, rng);
}

Shape conv_input_shape(const ConvLayerRow& row) {
  if (row.one_d) return {kLayerBatch, row.in_ch, row.size};
  return {kLayerBatch, row.in_ch, row.size, row.size};
}

// Forward (train mode, so the input is cached as in local training) or
// backward of one layer; backward reuses a single cached forward.
void run_conv_layer(benchmark::State& state, const ConvLayerRow& row, bool backward,
                    unsigned threads) {
  const ExecutionContext exec(ExecConfig{.threads = threads, .grain = 1});
  Rng rng(9);
  std::unique_ptr<nn::Layer> layer = make_conv_layer(row, rng);
  layer->set_execution_context(&exec);
  const Tensor x = Tensor::gaussian(conv_input_shape(row), rng);
  const Tensor y = layer->forward(x, true);
  const Tensor g = Tensor::gaussian(y.shape(), rng);
  for (auto _ : state) {
    Tensor out = backward ? layer->backward(g) : layer->forward(x, true);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

// ReLU over the ResNetSmall stem's activation, [64, 8, 12, 12].
void run_relu_layer(benchmark::State& state, bool backward) {
  Rng rng(10);
  nn::ReLU relu;
  const Tensor x = Tensor::gaussian({kLayerBatch, 8, 12, 12}, rng);
  const Tensor g = Tensor::gaussian(x.shape(), rng);
  relu.forward(x, true);
  for (auto _ : state) {
    Tensor out = backward ? relu.backward(g) : relu.forward(x, true);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}

bool register_layer_rows() {
  for (const ConvLayerRow& row : kConvLayerRows)
    for (const bool backward : {false, true})
      for (const unsigned threads : {1u, 4u}) {
        const std::string name = std::string("ConvLayer/") + row.name +
                                 (backward ? "/backward" : "/forward") +
                                 "/threads:" + std::to_string(threads);
        benchmark::RegisterBenchmark(name.c_str(),
                                     [&row, backward, threads](benchmark::State& state) {
                                       run_conv_layer(state, row, backward, threads);
                                     })
            ->Unit(benchmark::kMicrosecond);
      }
  for (const bool backward : {false, true})
    benchmark::RegisterBenchmark(backward ? "ReluLayer/backward" : "ReluLayer/forward",
                                 [backward](benchmark::State& state) {
                                   run_relu_layer(state, backward);
                                 })
        ->Unit(benchmark::kMicrosecond);
  return true;
}

[[maybe_unused]] const bool kLayerRowsRegistered = register_layer_rows();

// A fresh directory under the system temp dir, removed on destruction.
struct ScratchDir {
  std::filesystem::path path;
  explicit ScratchDir(const char* name)
      : path(std::filesystem::temp_directory_path() /
             (std::string(name) + "-" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

std::vector<std::uint8_t> patterned_bytes(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<std::uint8_t>(i * 131 + (i >> 9));
  return out;
}

void BM_Crc32(benchmark::State& state) {
  const std::vector<std::uint8_t> buf = patterned_bytes(32u << 20);
  for (auto _ : state) benchmark::DoNotOptimize(store::crc32(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32)->Unit(benchmark::kMillisecond);

// One fsynced WAL record per iteration; the log is compacted every 8
// records so the file stays small.
void BM_WalAppend(benchmark::State& state) {
  const std::vector<std::uint8_t> record =
      patterned_bytes(static_cast<std::size_t>(state.range(0)));
  const ScratchDir dir("dinar-bm-wal");
  store::RoundStore rs(dir.path.string());
  std::int64_t appended = 0;
  for (auto _ : state) {
    rs.append(record);
    if (++appended % 8 == 0) {
      state.PauseTiming();
      rs.install_snapshot(appended, {});
      state.ResumeTiming();
    }
  }
  state.SetBytesProcessed(appended * static_cast<std::int64_t>(record.size()));
}
BENCHMARK(BM_WalAppend)->Arg(1 << 20)->Arg(32 << 20)->Unit(benchmark::kMillisecond)->UseRealTime();

// One snapshot install per iteration: header + payload through temp file,
// fsync, rename and directory fsync, then WAL reset and pruning.
void BM_SnapshotInstall(benchmark::State& state) {
  const std::vector<std::uint8_t> payload = patterned_bytes(64'000'000);
  const ScratchDir dir("dinar-bm-snapshot");
  store::RoundStore rs(dir.path.string());
  std::int64_t round = 0;
  for (auto _ : state) rs.install_snapshot(++round, payload);
  state.SetBytesProcessed(round * static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_SnapshotInstall)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace dinar

BENCHMARK_MAIN();
