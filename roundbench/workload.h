// The benchmark's workloads: each one is a fully specified federated run
// (data, model, defense, codec, transport, store, threads) driven through
// the real round engine, fl::FederatedSimulation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "experiment.h"
#include "fl/simulation.h"
#include "store/round_store.h"

namespace roundbench {

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct WorkloadSpec {
  std::string name;
  // Data generator, model factory, local schedule and MIA effort.
  dinar::bench::DatasetCase data;
  bool dinar = false;
  // Round engine configuration; `seed` and `rounds` are filled in. The
  // engine's own evaluation schedule (`eval_every`) stays 0: the pass
  // evaluates by `eval_every_round`, and config.rounds is one more than a
  // pass runs, so recovery at the end of a pass is a mid-run recovery and
  // does not recompute a final evaluation that the timed loop (which
  // bypasses run()) never wrote to the store.
  dinar::fl::SimulationConfig config;
  bool eval_every_round = false;
  // Durable operation: a RoundStore with a WAL fsync every round and a
  // snapshot every `snapshot_every` rounds.
  bool durable = false;
  int snapshot_every = 4;
  // Rounds timed per pass, after the untimed warm-up round; set it with
  // set_timed_rounds().
  int timed_rounds = 24;
  // Rounds a pass runs: the warm-up round plus the timed ones.
  int rounds() const { return 1 + timed_rounds; }
  // (M, N, K) of the gemm calls the model's forward pass lowers to at the
  // training batch size.
  std::vector<std::array<std::int64_t, 3>> gemm_shapes;
};

// Throws dinar::Error naming the known workloads when `name` is unknown.
WorkloadSpec make_workload(const std::string& name, std::uint64_t seed);
void set_timed_rounds(WorkloadSpec& spec, int timed_rounds);

// Realized inputs of one pass: the federated split and the defense bundle
// (the DINAR preliminary phase has run when the workload uses DINAR).
struct Inputs {
  dinar::data::FlSplit split;
  dinar::fl::DefenseBundle bundle;
  double data_seconds = 0.0;  // generation + split
  double init_seconds = 0.0;  // core::run_dinar_initialization (0 without DINAR)
  std::size_t dinar_layer = 0;  // the consensus layer DINAR protects
};
Inputs make_inputs(const WorkloadSpec& spec);
// The DINAR preliminary phase on the workload's clients, whether or not the
// workload itself uses DINAR; returns the agreed layer.
std::size_t run_dinar_init(const WorkloadSpec& spec, const dinar::data::FlSplit& split);

// A directory removed (recursively) when the object dies.
class TempDir {
 public:
  explicit TempDir(std::filesystem::path path);
  ~TempDir();
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

// A constructed simulation and, for durable workloads, its store. Members
// are destroyed in reverse order: simulation first, then store.
struct Instance {
  std::unique_ptr<dinar::store::RoundStore> store;
  std::unique_ptr<dinar::fl::FederatedSimulation> sim;
};
// `store_dir` empty = no store. Otherwise a RoundStore is opened in that
// (existing) directory and the simulation attached to it, with the spec's
// snapshot cadence.
Instance construct(const WorkloadSpec& spec, const Inputs& inputs,
                   const std::filesystem::path& store_dir);

// True when the workload evaluates after `done` completed rounds of a
// pass: after every round, or after the last, as run() would schedule it.
bool evaluates_after(const WorkloadSpec& spec, std::int64_t done);

// Socket failures a run must not see: reconnects + evictions + queue drops
// + protocol errors.
std::uint64_t net_errors(const dinar::fl::TransportStats& stats);

// FNV-1a over the bit patterns of a parameter arena.
std::uint64_t model_hash(const dinar::nn::FlatParams& params);

}  // namespace roundbench
