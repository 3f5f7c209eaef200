// Traced replay: rebuilds a workload's simulation and drives its public
// parts (server(), clients(), transport()) in the round engine's order,
// recording a span around every call, then probes the layers a round
// calls into (nn, opt, data, tensor, store, net, core, attack) at the
// workload's own sizes.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workload.h"

namespace roundbench {

// What the untraced run observed, which the replay must reproduce.
struct Reference {
  std::vector<std::vector<int>> selected;  // per round, from round_log()
  std::vector<std::uint64_t> wal_growth;   // per round WAL bytes (durable only)
  std::uint64_t final_hash = 0;
  std::filesystem::path store_dir;  // the untraced run's store (durable only)
};

struct ReplayResult {
  std::uint64_t final_hash = 0;
  std::uint64_t recovered_hash = 0;
  // Per timed round (the warm-up round excluded) or, for what does not
  // happen every round, per occurrence; by metric name.
  std::map<std::string, std::vector<double>> per_round;
  // One value per run, by metric name.
  std::map<std::string, double> scalars;
};

ReplayResult traced_replay(const WorkloadSpec& spec, const Inputs& inputs,
                           const Reference& ref, Tracer& tracer,
                           const std::filesystem::path& work_dir);

}  // namespace roundbench
