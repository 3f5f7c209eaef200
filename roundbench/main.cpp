// Round benchmark driver.
//
//   roundbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//              [--rounds R] [--min-rounds N] [--min-passes N]
//
// Untraced (--trace 0): runs passes of the workload through
// FederatedSimulation until S seconds of timed rounds (and at least
// --min-rounds rounds and --min-passes passes) are done. Each pass sets up
// from scratch (data, DINAR preliminary phase, simulation, warm-up round),
// times its rounds, then recovers a fresh simulation from the store and,
// untimed, runs the server-side membership attack.
//
// Traced (--trace 1): one untraced pass as the reference, then the traced
// replay (replay.h) of the same rounds; the spans go to DIR/trace.json.
//
// Prints one JSON object of raw samples on the last line of stdout; the
// benchmark's run.py turns it into medians, quartiles and checks.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "attack/evaluation.h"
#include "replay.h"
#include "tensor/cpu_features.h"
#include "util/error.h"
#include "util/logging.h"
#include "workload.h"

namespace roundbench {
namespace {

namespace fl = dinar::fl;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir;
  int rounds = -1;  // timed rounds per pass; -1 = the workload's own
  int min_rounds = 0;
  int min_passes = 2;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--work") a.work_dir = value;
    else if (key == "--rounds") a.rounds = std::stoi(value);
    else if (key == "--min-rounds") a.min_rounds = std::stoi(value);
    else if (key == "--min-passes") a.min_passes = std::stoi(value);
    else throw dinar::Error("unknown argument " + key);
  }
  DINAR_CHECK(!a.workload.empty(), "--workload is required");
  DINAR_CHECK(!a.work_dir.empty(), "--work is required");
  return a;
}

struct PassResult {
  double setup_s = 0, data_s = 0, init_s = 0, warmup_s = 0;
  double timed_s = 0;
  std::vector<double> round_ms;
  double recover_s = 0;  // median of the repetitions
  std::size_t dinar_layer = 0;
  std::uint64_t hash = 0, recovered_hash = 0;
  double up_bytes_per_round = 0, down_bytes_per_round = 0;
  std::int64_t selected = 0, accepted = 0, carried_forward = 0;
  double global_acc = 0, personal_acc = 0;
  double mia_local_auc = -1;
  double mia_fit_ms = 0;  // 0 when the pass reused an already fitted attack
  double mia_eval_ms = 0;
  std::uint64_t net_errors = 0;
  Reference ref;  // for the traced replay
};

// Recovery of a fresh simulation from `store_dir`: open the store,
// construct, attach, recover. Returns seconds and the recovered hash.
std::pair<double, std::uint64_t> recover_fresh(const WorkloadSpec& spec,
                                               const Inputs& inputs,
                                               const std::filesystem::path& store_dir) {
  const auto t0 = Clock::now();
  dinar::store::RoundStore store(store_dir.string());
  Instance fresh = construct(spec, inputs, {});
  fresh.sim->attach_store(&store, spec.snapshot_every);
  fresh.sim->recover_from_store();
  const double s = seconds_since(t0);
  const std::uint64_t h = model_hash(fresh.sim->server().global_params());
  fresh.sim->attach_store(nullptr);
  return {s, h};
}

// One pass. `mia` is fitted on first use (untimed). When `keep` is set,
// the store directory and inputs survive in it for the traced replay.
struct Kept {
  std::unique_ptr<TempDir> store_dir;
  std::unique_ptr<Inputs> inputs;
};

PassResult run_pass(const WorkloadSpec& spec, const Args& args, int pass,
                    std::unique_ptr<dinar::attack::ShadowMia>& mia, Kept* keep) {
  PassResult p;
  const auto t0 = Clock::now();
  auto inputs = std::make_unique<Inputs>(make_inputs(spec));
  p.data_s = inputs->data_seconds;
  p.init_s = inputs->init_seconds;
  p.dinar_layer = inputs->dinar_layer;
  std::unique_ptr<TempDir> store_dir;
  if (spec.durable)
    store_dir = std::make_unique<TempDir>(args.work_dir / ("store-" + std::to_string(pass)));
  Instance inst =
      construct(spec, *inputs, store_dir ? store_dir->path() : std::filesystem::path{});
  fl::FederatedSimulation& sim = *inst.sim;
  const auto w0 = Clock::now();
  sim.run_round();
  if (evaluates_after(spec, 1)) sim.evaluate_now();
  p.warmup_s = seconds_since(w0);
  p.setup_s = seconds_since(t0);

  std::vector<std::uint64_t> wal_sizes{inst.store ? inst.store->wal_size_bytes() : 0};
  const fl::TransportStats stats0 = sim.transport().stats();
  fl::RoundRecord last;
  const auto loop0 = Clock::now();
  for (std::int64_t done = 2; done <= spec.rounds(); ++done) {
    const auto r0 = Clock::now();
    sim.run_round();
    if (evaluates_after(spec, done)) last = sim.evaluate_now();
    p.round_ms.push_back(seconds_since(r0) * 1e3);
    if (inst.store) wal_sizes.push_back(inst.store->wal_size_bytes());
  }
  p.timed_s = seconds_since(loop0);

  p.hash = model_hash(sim.server().global_params());
  const fl::TransportStats& stats = sim.transport().stats();
  const double timed = static_cast<double>(p.round_ms.size());
  p.up_bytes_per_round = static_cast<double>(stats.bytes_up - stats0.bytes_up) / timed;
  p.down_bytes_per_round = static_cast<double>(stats.bytes_down - stats0.bytes_down) / timed;
  p.net_errors = net_errors(stats);
  for (std::size_t i = 1; i < sim.round_log().size(); ++i) {
    const fl::RoundOutcome& o = sim.round_log()[i];
    p.selected += static_cast<std::int64_t>(o.selected.size());
    p.accepted += static_cast<std::int64_t>(o.accepted.size());
    p.carried_forward += o.carried_forward ? 1 : 0;
  }
  p.global_acc = last.global_test_accuracy;
  p.personal_acc = last.personalized_test_accuracy;

  // The server-side membership attack on the final uploads (untimed).
  if (mia == nullptr) {
    const auto f0 = Clock::now();
    mia = std::make_unique<dinar::attack::ShadowMia>(
        spec.data.model_factory, inputs->split.attacker_prior, spec.data.mia);
    mia->fit();
    p.mia_fit_ms = seconds_since(f0) * 1e3;
  }
  const auto m0 = Clock::now();
  p.mia_local_auc = dinar::attack::evaluate_privacy(sim, *mia).mean_local_attack_auc;
  p.mia_eval_ms = seconds_since(m0) * 1e3;

  p.ref.final_hash = p.hash;
  for (const fl::RoundOutcome& o : sim.round_log()) p.ref.selected.push_back(o.selected);

  // Recovery. A durable workload recovers its own store; the others a
  // store holding one snapshot of the final state (written untimed).
  std::unique_ptr<TempDir> snapshot_dir;
  if (!spec.durable) {
    snapshot_dir =
        std::make_unique<TempDir>(args.work_dir / ("snapshot-" + std::to_string(pass)));
    dinar::store::RoundStore s(snapshot_dir->path().string());
    dinar::BinaryWriter w;
    sim.save_full_state(w);
    s.install_snapshot(sim.server().round(), w.buffer());
  } else {
    // WAL growth per round. A snapshot round compacts the WAL, so its
    // growth is not observable; it appended a record like its neighbours.
    std::uint64_t prev = 0, growth = 0;
    for (const std::uint64_t size : wal_sizes) {
      if (size >= prev) growth = size - prev;
      p.ref.wal_growth.push_back(growth);
      prev = size;
    }
  }
  inst = Instance{};  // close the store before recovering from it
  const std::filesystem::path recover_dir =
      spec.durable ? store_dir->path() : snapshot_dir->path();
  // Recovery takes milliseconds on the non-durable workloads: repeat it
  // at least twice and for at least half a second (at most 20 times), and
  // keep the median.
  std::vector<double> recover_times;
  double recover_total = 0.0;
  while (recover_times.size() < 2 || (recover_total < 0.5 && recover_times.size() < 20)) {
    const auto [seconds, hash] = recover_fresh(spec, *inputs, recover_dir);
    if (recover_times.empty() || hash != p.hash) p.recovered_hash = hash;
    recover_times.push_back(seconds);
    recover_total += seconds;
  }
  std::sort(recover_times.begin(), recover_times.end());
  const std::size_t n = recover_times.size();
  p.recover_s = n % 2 == 1 ? recover_times[n / 2]
                           : 0.5 * (recover_times[n / 2 - 1] + recover_times[n / 2]);

  if (keep != nullptr) {
    p.ref.store_dir = recover_dir;
    keep->store_dir = spec.durable ? std::move(store_dir) : std::move(snapshot_dir);
    keep->inputs = std::move(inputs);
  }
  return p;
}

// -- JSON output ------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string array(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? "," : "") + num(v[i]);
  return s + "]";
}

std::string pass_json(const PassResult& p) {
  std::ostringstream o;
  o << "{\"setup_s\":" << num(p.setup_s) << ",\"data_s\":" << num(p.data_s)
    << ",\"init_s\":" << num(p.init_s) << ",\"warmup_s\":" << num(p.warmup_s)
    << ",\"timed_s\":" << num(p.timed_s) << ",\"round_ms\":" << array(p.round_ms)
    << ",\"recover_s\":" << num(p.recover_s) << ",\"hash\":" << hex(p.hash)
    << ",\"recovered_hash\":" << hex(p.recovered_hash)
    << ",\"up_bytes_per_round\":" << num(p.up_bytes_per_round)
    << ",\"down_bytes_per_round\":" << num(p.down_bytes_per_round)
    << ",\"selected\":" << p.selected << ",\"accepted\":" << p.accepted
    << ",\"carried_forward\":" << p.carried_forward
    << ",\"global_acc\":" << num(p.global_acc) << ",\"personal_acc\":" << num(p.personal_acc)
    << ",\"mia_local_auc\":" << num(p.mia_local_auc)
    << ",\"dinar_layer\":" << p.dinar_layer << ",\"net_errors\":" << p.net_errors << "}";
  return o.str();
}

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int run(const Args& args) {
  // Keep stdout to the result: no per-round [info] lines.
  dinar::Logger::instance().set_level(dinar::LogLevel::kWarn);
  WorkloadSpec spec = make_workload(args.workload, args.seed);
  if (args.rounds > 0) set_timed_rounds(spec, args.rounds);
  std::filesystem::create_directories(args.work_dir);

  std::ostringstream o;
  o << "{\"workload\":\"" << spec.name << "\",\"seed\":" << args.seed
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
    << ",\"threads\":" << spec.config.exec.threads
    << ",\"gemm_kernel\":\"" << dinar::gemm_kernel_name(dinar::active_gemm_kernel())
    << "\",\"codec_kernel\":\"" << dinar::codec_kernel_name(dinar::active_codec_kernel())
    << "\",\"build_type\":\"" << ROUNDBENCH_BUILD_TYPE
    << "\",\"timed_rounds_per_pass\":" << spec.timed_rounds;

  std::unique_ptr<dinar::attack::ShadowMia> mia;
  std::vector<PassResult> passes;
  if (!args.trace) {
    double timed = 0.0;
    std::size_t rounds = 0;
    while (timed < args.seconds || rounds < static_cast<std::size_t>(args.min_rounds) ||
           passes.size() < static_cast<std::size_t>(args.min_passes)) {
      passes.push_back(run_pass(spec, args, static_cast<int>(passes.size()), mia, nullptr));
      timed += passes.back().timed_s;
      rounds += passes.back().round_ms.size();
    }
  } else {
    Kept kept;
    const auto f0 = Clock::now();
    passes.push_back(run_pass(spec, args, 0, mia, &kept));
    const double pass_s = seconds_since(f0);

    Tracer tracer;
    const ReplayResult replay =
        traced_replay(spec, *kept.inputs, passes[0].ref, tracer, args.work_dir);
    std::map<std::string, double> scalars = replay.scalars;
    scalars["attack.mia_fit_ms"] = passes[0].mia_fit_ms;
    scalars["attack.mia_eval_ms"] = passes[0].mia_eval_ms;
    scalars["fl.round.untraced_rounds_per_s"] =
        static_cast<double>(passes[0].round_ms.size()) / passes[0].timed_s;
    if (spec.dinar) {
      scalars["core.init_ms"] = kept.inputs->init_seconds * 1e3;
    } else {
      // The workload runs without DINAR: time its preliminary phase on
      // the same clients as a probe of the core layer.
      const auto c0 = Clock::now();
      const double t = tracer.now_us();
      run_dinar_init(spec, kept.inputs->split);
      tracer.record("core.dinar_init", t, tracer.now_us(), -1, -1, -1);
      scalars["core.init_ms"] = seconds_since(c0) * 1e3;
    }
    std::ostringstream meta;
    meta << "{\"workload\":\"" << spec.name << "\",\"seed\":" << args.seed
         << ",\"threads\":" << spec.config.exec.threads << "}";
    const std::filesystem::path trace_path = args.work_dir / "trace.json";
    tracer.write_chrome_json(trace_path.string(), meta.str());

    o << ",\"reference_pass_s\":" << num(pass_s) << ",\"trace_file\":\""
      << trace_path.string() << "\",\"replay_hash\":" << hex(replay.final_hash)
      << ",\"replay_recovered_hash\":" << hex(replay.recovered_hash) << ",\"scalars\":{";
    bool first = true;
    for (const auto& [k, v] : scalars) {
      o << (first ? "" : ",") << "\"" << k << "\":" << num(v);
      first = false;
    }
    o << "},\"per_round\":{";
    first = true;
    for (const auto& [k, v] : replay.per_round) {
      o << (first ? "" : ",") << "\"" << k << "\":" << array(v);
      first = false;
    }
    o << "}";
  }
  o << ",\"passes\":[";
  for (std::size_t i = 0; i < passes.size(); ++i) o << (i ? "," : "") << pass_json(passes[i]);
  o << "],\"peak_rss_mb\":" << num(peak_rss_mb()) << "}";
  std::cout << o.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace roundbench

int main(int argc, char** argv) {
  try {
    return roundbench::run(roundbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "roundbench: " << e.what() << "\n";
    return 1;
  }
}
