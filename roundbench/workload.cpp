#include "workload.h"

#include <chrono>
#include <cmath>
#include <cstring>

#include "core/dinar.h"
#include "data/synthetic.h"
#include "util/error.h"

namespace roundbench {
namespace {

using dinar::Rng;
namespace fl = dinar::fl;

// Compute path: ResNetSmall on the cifar10 analogue, DINAR on the
// consensus layer, every client every round, lossless v2 wire, no store.
WorkloadSpec resnet_dinar(std::uint64_t seed) {
  WorkloadSpec w;
  w.name = "resnet-dinar";
  w.data = dinar::bench::get_case("cifar10");
  w.data.seed = seed;
  w.dinar = true;
  w.config.exec.threads = 4;
  set_timed_rounds(w, 30);
  // 12x12x3 input, batch 64: stem conv, three residual blocks (the last
  // two with a strided 1x1 projection), classifier.
  const std::int64_t b = w.data.batch_size;
  w.gemm_shapes = {{b * 144, 8, 27},  {b * 144, 8, 72},  {b * 144, 8, 72},
                   {b * 36, 16, 72},  {b * 36, 16, 144}, {b * 36, 16, 8},
                   {b * 9, 32, 144},  {b * 9, 32, 288},  {b * 9, 32, 16},
                   {b, 10, 32}};
  return w;
}

// Data plane: a wide FCNN over many sampled clients, int8 + top-k update
// codec, sharded trimmed mean, lossy uplink with a quorum, durable store.
WorkloadSpec fleet_durable(std::uint64_t seed) {
  WorkloadSpec w;
  w.name = "fleet-durable";
  dinar::bench::DatasetCase& c = w.data;
  c.name = "fleet-tabular";
  c.paper_model = "6-layer FCNN";
  c.seed = seed;
  c.make_data = [](Rng& rng) {
    dinar::data::TabularSpec spec;
    spec.num_samples = 6400;
    spec.num_features = 600;
    spec.num_classes = 20;
    spec.label_noise = 0.05;
    return dinar::data::make_tabular(spec, rng);
  };
  c.model_factory = dinar::nn::fcnn6_factory(600, 20, 512);
  c.num_clients = 32;
  c.local_epochs = 1;
  c.batch_size = 32;  // 80 samples per client: 3 steps per round
  c.learning_rate = 1e-2;
  c.mia.num_shadows = 2;
  c.mia.shadow_train = fl::TrainConfig{8, 64};
  c.mia.learning_rate = 1e-2;
  c.mia.max_rows_per_shadow = 500;
  c.mia.seed = 49;

  fl::SimulationConfig& cfg = w.config;
  cfg.client_fraction = 0.5;
  cfg.faults.drop_up = 0.05;
  cfg.max_retries = 1;
  cfg.min_clients = 8;
  cfg.codec.update.encoding = fl::WireEncoding::kInt8;
  cfg.codec.update.topk_fraction = 0.1;
  cfg.robust.method = "trimmed_mean";
  cfg.shard.num_shards = 4;
  cfg.exec.threads = 4;
  w.durable = true;
  w.snapshot_every = 4;
  set_timed_rounds(w, 25);
  const std::int64_t b = c.batch_size;
  w.gemm_shapes = {{b, 512, 600}, {b, 256, 512}, {b, 128, 256},
                   {b, 64, 128},  {b, 32, 64},   {b, 20, 32}};
  return w;
}

// The same layers used differently: a 1-D CNN over real loopback TCP, with
// global and personalized evaluation after every round.
WorkloadSpec audio_tcp_eval(std::uint64_t seed) {
  WorkloadSpec w;
  w.name = "audio-tcp-eval";
  // Twice the registry's sample count: 3600 utterances, so each client
  // holds 360 and the test set 360.
  w.data = dinar::bench::get_case("speechcommands", 2.0);
  w.data.seed = seed;
  w.data.num_clients = 4;
  w.dinar = true;
  w.config.socket_transport = true;
  w.eval_every_round = true;
  w.config.exec.threads = 3;  // plus the socket server thread
  set_timed_rounds(w, 60);
  // 512-sample input, batch 64: conv1d k16/s4 (125 out), pool 4, k3 convs
  // at 31 and 7 positions, classifier.
  const std::int64_t b = w.data.batch_size;
  w.gemm_shapes = {{b * 125, 8, 16}, {b * 31, 16, 24}, {b * 7, 32, 48},
                   {b * 7, 32, 96},  {b, 36, 32}};
  return w;
}

}  // namespace

WorkloadSpec make_workload(const std::string& name, std::uint64_t seed) {
  WorkloadSpec w;
  if (name == "resnet-dinar") w = resnet_dinar(seed);
  else if (name == "fleet-durable") w = fleet_durable(seed);
  else if (name == "audio-tcp-eval") w = audio_tcp_eval(seed);
  else
    throw dinar::Error("unknown workload '" + name +
                       "' (known: resnet-dinar, fleet-durable, audio-tcp-eval)");
  fl::SimulationConfig& cfg = w.config;
  cfg.train = fl::TrainConfig{w.data.local_epochs, w.data.batch_size};
  cfg.learning_rate = w.data.learning_rate;
  cfg.optimizer = "adagrad";
  cfg.seed = seed + 7;
  return w;
}

void set_timed_rounds(WorkloadSpec& spec, int timed_rounds) {
  spec.timed_rounds = timed_rounds;
  spec.config.rounds = spec.rounds() + 1;
}

std::size_t run_dinar_init(const WorkloadSpec& spec, const dinar::data::FlSplit& split) {
  // The preliminary phase exactly as bench::prepare_case runs it.
  dinar::core::DinarInitConfig init_cfg;
  init_cfg.warmup = fl::TrainConfig{std::max(3, spec.data.local_epochs * 2),
                                    spec.data.batch_size};
  init_cfg.learning_rate = spec.data.learning_rate;
  init_cfg.seed = spec.data.seed ^ 0xD1AA;
  return dinar::core::run_dinar_initialization(spec.data.model_factory,
                                               split.client_train, split.test, init_cfg)
      .agreed_layer;
}

Inputs make_inputs(const WorkloadSpec& spec) {
  Inputs in;
  const auto t0 = std::chrono::steady_clock::now();
  Rng rng(spec.data.seed);
  const dinar::data::Dataset full = spec.data.make_data(rng);
  dinar::data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.data.num_clients;
  in.split = dinar::data::make_fl_split(full, split_cfg, rng);
  in.data_seconds = seconds_since(t0);
  if (spec.dinar) {
    const auto t1 = std::chrono::steady_clock::now();
    in.dinar_layer = run_dinar_init(spec, in.split);
    in.bundle = dinar::core::make_dinar_bundle({in.dinar_layer}, spec.data.seed ^ 0xD1BA);
    in.init_seconds = seconds_since(t1);
  }
  return in;
}

TempDir::TempDir(std::filesystem::path path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

TempDir::~TempDir() {
  std::error_code ec;  // never throw from a destructor
  std::filesystem::remove_all(path_, ec);
}

Instance construct(const WorkloadSpec& spec, const Inputs& inputs,
                   const std::filesystem::path& store_dir) {
  Instance inst;
  if (!store_dir.empty()) {
    inst.store = std::make_unique<dinar::store::RoundStore>(store_dir.string());
  }
  inst.sim = std::make_unique<fl::FederatedSimulation>(
      spec.data.model_factory, inputs.split, spec.config, inputs.bundle);
  if (inst.store != nullptr) inst.sim->attach_store(inst.store.get(), spec.snapshot_every);
  return inst;
}

bool evaluates_after(const WorkloadSpec& spec, std::int64_t done) {
  return spec.eval_every_round || done >= spec.rounds();
}

std::uint64_t net_errors(const fl::TransportStats& s) {
  return s.socket_reconnects + s.socket_evictions + s.socket_queue_drops +
         s.socket_protocol_errors;
}

std::uint64_t model_hash(const dinar::nn::FlatParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : params.as_span()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 32; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace roundbench
