#include "replay.h"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <optional>
#include <thread>
#include <unordered_set>

#include "fl/socket_transport.h"
#include "nn/loss.h"
#include "opt/optimizers.h"
#include "tensor/codec_kernels.h"
#include "util/error.h"
#include "util/memory_tracker.h"

namespace roundbench {
namespace {

namespace fl = dinar::fl;
using dinar::BinaryWriter;
using dinar::Error;
using dinar::Rng;
using dinar::Tensor;

// One client's exchange within one attempt, as the round engine's task
// builds it.
struct Arrival {
  bool ok = false;
  fl::ModelUpdateMsg msg;
};
struct Exchange {
  bool got_global = false;
  std::vector<Arrival> arrivals;
  fl::ShipReceipt receipt;
  std::vector<std::uint8_t> update_bytes;  // kept for the net probe
  std::int64_t steps = 0;
};

// Times batch assembly, forward, loss, backward and the optimizer step on
// a copy of each client's model over that client's batches. Per-step means
// in ms (the loss stays a trace span only), plus allocation counts per step
// from MemoryTracker.
struct StepProbe {
  double batch_ms = 0, fwd_ms = 0, bwd_ms = 0, opt_ms = 0;
  double allocs = 0, alloc_mb = 0;
};

StepProbe probe_train_steps(fl::FederatedSimulation& sim, const WorkloadSpec& spec,
                            const std::vector<int>& clients, Tracer& tracer) {
  StepProbe p;
  std::int64_t steps = 0;
  const ScopedSpan probe(tracer, "probe.train_step", -1, -1);
  dinar::MemoryTracker& mem = dinar::MemoryTracker::instance();
  for (const int id : clients) {
    fl::FlClient& client = sim.clients()[static_cast<std::size_t>(id)];
    dinar::nn::Model model(client.model());
    model.set_execution_context(&sim.execution_context());
    std::unique_ptr<dinar::opt::Optimizer> optimizer = dinar::opt::make_optimizer(
        spec.config.optimizer, spec.config.learning_rate);
    optimizer->reset();
    Rng rng(spec.data.seed ^ (0x5EED0000ULL + static_cast<std::uint64_t>(id)));
    for (int epoch = 0; epoch < spec.config.train.epochs; ++epoch) {
      dinar::data::BatchIterator batches(client.train_data(), spec.config.train.batch_size,
                                         rng);
      dinar::data::BatchIterator::Batch batch;
      while (true) {
        const std::uint64_t events0 = mem.alloc_events();
        const std::uint64_t bytes0 = mem.allocated_bytes_total();
        double t = tracer.now_us();
        const bool more = batches.next(batch);
        double t1 = tracer.now_us();
        if (!more) break;
        tracer.record("data.batch", t, t1, probe.id(), -1, id);
        p.batch_ms += (t1 - t) / 1e3;
        t = t1;
        const Tensor logits = model.forward(batch.features, /*train=*/true);
        t1 = tracer.now_us();
        tracer.record("nn.forward", t, t1, probe.id(), -1, id);
        p.fwd_ms += (t1 - t) / 1e3;
        t = t1;
        const dinar::nn::LossResult loss =
            dinar::nn::softmax_cross_entropy(logits, batch.labels);
        t1 = tracer.now_us();
        tracer.record("nn.loss", t, t1, probe.id(), -1, id);
        t = t1;
        model.zero_grad();
        model.backward(loss.grad_logits);
        t1 = tracer.now_us();
        tracer.record("nn.backward", t, t1, probe.id(), -1, id);
        p.bwd_ms += (t1 - t) / 1e3;
        t = t1;
        optimizer->step(model);
        t1 = tracer.now_us();
        tracer.record("opt.step", t, t1, probe.id(), -1, id);
        p.opt_ms += (t1 - t) / 1e3;
        p.allocs += static_cast<double>(mem.alloc_events() - events0);
        p.alloc_mb += static_cast<double>(mem.allocated_bytes_total() - bytes0) / 1e6;
        ++steps;
      }
    }
  }
  DINAR_CHECK(steps > 0, "train-step probe ran no steps");
  const double n = static_cast<double>(steps);
  for (double* v : {&p.batch_ms, &p.fwd_ms, &p.bwd_ms, &p.opt_ms, &p.allocs, &p.alloc_mb})
    *v /= n;
  return p;
}

// Forward-only time of one evaluation: the global model and every client
// model over the test set at the inference batch evaluate_now() uses.
double probe_eval_forward_ms(fl::FederatedSimulation& sim, Tracer& tracer) {
  const ScopedSpan probe(tracer, "probe.eval_forward", -1, -1);
  std::vector<dinar::nn::Model> models;
  models.push_back(sim.global_model());
  for (fl::FlClient& c : sim.clients()) models.emplace_back(c.model());
  double total_ms = 0.0;
  for (dinar::nn::Model& m : models) {
    m.set_execution_context(&sim.execution_context());
    Rng no_shuffle(0);
    dinar::data::BatchIterator batches(sim.test_data(), 256, no_shuffle, false);
    dinar::data::BatchIterator::Batch batch;
    while (batches.next(batch)) {
      const double t = tracer.now_us();
      const Tensor logits = m.forward(batch.features, /*train=*/false);
      const double t1 = tracer.now_us();
      tracer.record("nn.forward_eval", t, t1, probe.id(), -1, -1);
      total_ms += (t1 - t) / 1e3;
    }
  }
  return total_ms;
}

// gemm throughput at the model's forward shapes, on the simulation's pool.
double probe_gemm_gflops(const WorkloadSpec& spec, const dinar::ExecutionContext& exec,
                         Tracer& tracer) {
  const ScopedSpan probe(tracer, "probe.gemm", -1, -1);
  Rng rng(spec.data.seed ^ 0x6E33ULL);
  double flops = 0.0, seconds = 0.0;
  for (const auto& [m, n, k] : spec.gemm_shapes) {
    const Tensor a = Tensor::uniform({m, k}, rng);
    const Tensor b = Tensor::uniform({k, n}, rng);
    const double per_call = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                            static_cast<double>(k);
    // Enough calls for ~20 ms of work per shape at ~10 GFLOP/s.
    const int reps = std::clamp(static_cast<int>(2e8 / per_call), 3, 2000);
    const double t = tracer.now_us();
    for (int i = 0; i < reps; ++i) {
      const Tensor c = dinar::gemm(dinar::Trans::kN, dinar::Trans::kN, a, b, &exec);
      DINAR_CHECK(c.numel() == m * n, "gemm probe produced the wrong shape");
    }
    const double t1 = tracer.now_us();
    tracer.record("tensor.gemm", t, t1, probe.id(), -1, -1);
    flops += per_call * reps;
    seconds += (t1 - t) / 1e6;
  }
  return flops / seconds / 1e9;
}

// Dispatched absmax + int8 pack/unpack over the workload's parameter arena.
double probe_codec_gbps(std::span<const float> arena, Tracer& tracer) {
  const ScopedSpan probe(tracer, "probe.codec", -1, -1);
  const dinar::detail::CodecKernelFns& fns = dinar::detail::codec_kernel_fns();
  const std::size_t n = arena.size();
  std::vector<std::int8_t> packed(n);
  std::vector<float> unpacked(n);
  const int reps = std::clamp(static_cast<int>(4e8 / (14.0 * n)), 3, 5000);
  const double t = tracer.now_us();
  for (int i = 0; i < reps; ++i) {
    const dinar::detail::SpanAbsMax mx = fns.absmax(arena.data(), n);
    const float scale = mx.max_abs > 0.0f ? mx.max_abs / 127.0f : 1.0f;
    fns.pack_i8(arena.data(), n, 1.0f / scale, packed.data());
    fns.unpack_i8(packed.data(), n, scale, unpacked.data());
  }
  const double t1 = tracer.now_us();
  tracer.record("tensor.codec_int8", t, t1, probe.id(), -1, -1);
  DINAR_CHECK(unpacked.empty() || std::isfinite(unpacked[n / 2]),
              "codec probe decoded a non-finite value");
  // absmax reads 4n; pack reads 4n, writes n; unpack reads n, writes 4n.
  return 14.0 * static_cast<double>(n) * reps / ((t1 - t) / 1e6) / 1e9;
}

}  // namespace

ReplayResult traced_replay(const WorkloadSpec& spec, const Inputs& inputs,
                           const Reference& ref, Tracer& tracer,
                           const std::filesystem::path& work_dir) {
  const fl::SimulationConfig& cfg = spec.config;
  DINAR_CHECK(ref.selected.size() == static_cast<std::size_t>(spec.rounds()),
              "replay needs the participant list of all " << spec.rounds() << " rounds");
  // The replay drives the parts itself, so the simulation gets no store;
  // store writes go to a probe store sized from the untraced run.
  Instance inst = construct(spec, inputs, {});
  fl::FederatedSimulation& sim = *inst.sim;
  fl::FlServer& server = sim.server();
  std::vector<fl::FlClient>& clients = sim.clients();
  fl::Transport& transport = sim.transport();
  const dinar::ExecutionContext& exec = sim.execution_context();
  const bool codec_active = cfg.codec.active();
  const bool socket = cfg.socket_transport;

  TempDir probe_dir(work_dir / "probe-store");
  dinar::store::RoundStore probe_store(probe_dir.path().string());
  // In-process workloads ship each round's payloads once more through a
  // loopback socket transport after the round, so net is measured at the
  // workload's payload sizes.
  std::unique_ptr<fl::SocketTransport> net_probe =
      socket ? nullptr : std::make_unique<fl::SocketTransport>();
  const fl::Transport& net_transport = socket ? transport : *net_probe;
  const std::uint64_t net_errors_before = net_errors(net_transport.stats());

  ReplayResult res;
  auto& per_round = res.per_round;
  double traced_loop_us = 0.0;
  std::int64_t since_snapshot = 0;
  std::int64_t timed_rounds = 0;

  for (std::int64_t r = 0; r < spec.rounds(); ++r) {
    DINAR_CHECK(server.round() == r, "replay lost round alignment at " << r);
    const fl::TransportStats stats_before = transport.stats();
    const fl::TransportStats net_before = net_transport.stats();
    const std::int64_t round_id = tracer.reserve_id();
    const double round_start = tracer.now_us();

    fl::FaultInjector* faults = transport.faults();
    if (faults != nullptr) faults->begin_round(r);
    const std::vector<int>& selected = ref.selected[static_cast<std::size_t>(r)];
    std::vector<std::size_t> pending;
    for (const int id : selected) {
      if (faults != nullptr && faults->is_crashed(id)) faults->record_crashed_contact();
      else pending.push_back(static_cast<std::size_t>(id));
    }
    const std::size_t live = pending.size();
    const std::size_t quorum =
        cfg.min_clients == 0 ? live : std::min(cfg.min_clients, live);
    const std::vector<std::size_t> touched = pending;

    fl::GlobalModelMsg broadcast_msg;
    std::vector<std::uint8_t> broadcast_bytes;
    {
      const ScopedSpan s(tracer, "fl.server.broadcast", round_id, r);
      broadcast_msg = server.broadcast();
    }
    {
      const ScopedSpan s(tracer, "fl.wire.encode", round_id, r);
      broadcast_bytes = server.serialize_broadcast(broadcast_msg);
    }
    dinar::nn::FlatParams update_reference;
    const dinar::nn::FlatParams* update_ref = nullptr;
    if (cfg.codec.update.topk_fraction < 1.0) {
      const ScopedSpan s(tracer, "fl.wire.decode", round_id, r);
      update_reference = fl::GlobalModelMsg::deserialize(broadcast_bytes).params;
      update_ref = &update_reference;
    }
    const std::uint64_t broadcast_uncoded =
        codec_active ? fl::v2_wire_bytes(broadcast_msg) : 0;

    server.begin_aggregation();
    std::unordered_set<int> accepted_ids;
    std::optional<bool> weighting;
    std::size_t accepted = 0;
    int retries = 0;
    double lost_copies = 0.0;
    std::int64_t round_steps = 0;
    std::vector<std::vector<std::uint8_t>> shipped_updates;
    const double round_start_clock = transport.stats().simulated_latency_seconds;

    for (int attempt = 0; attempt <= cfg.max_retries && !pending.empty(); ++attempt) {
      if (attempt > 0) {
        retries = attempt;
        transport.add_latency(cfg.retry_backoff_seconds * attempt);
      }
      std::vector<Exchange> exchanges(pending.size());
      const auto task = [&](std::size_t idx) {
        const std::size_t i = pending[idx];
        const int id = static_cast<int>(i);
        Exchange& ex = exchanges[idx];
        fl::FlClient& client = clients[i];
        const ScopedSpan task_span(tracer, "fl.client.exchange", round_id, r, id);
        const std::int64_t parent = task_span.id();

        std::vector<std::vector<std::uint8_t>> down;
        {
          const ScopedSpan s(tracer, "fl.transport.ship", parent, r, id);
          down = transport.ship(fl::LinkDir::kDown, id, broadcast_bytes, &ex.receipt);
          if (socket) tracer.record("net.ship", s.start_us(), tracer.now_us(), s.id(), r, id);
        }
        if (codec_active)
          ex.receipt.transport.bytes_down_uncoded += down.size() * broadcast_uncoded;
        for (const auto& copy : down) {
          try {
            fl::GlobalModelMsg msg;
            {
              const ScopedSpan s(tracer, "fl.wire.decode", parent, r, id);
              msg = fl::GlobalModelMsg::deserialize(fl::Transport::open(copy));
            }
            const ScopedSpan s(tracer, "fl.client.receive_global", parent, r, id);
            const double defense0 = client.defense_timer().total_seconds();
            client.receive_global(msg);
            const double end = tracer.now_us();
            const double dur = (client.defense_timer().total_seconds() - defense0) * 1e6;
            tracer.record("core.on_download", std::max(s.start_us(), end - dur), end,
                          s.id(), r, id);
            ex.got_global = true;
            break;
          } catch (const Error&) {
            // A corrupted broadcast copy: wait for the next one.
          }
        }
        if (!ex.got_global) return;

        fl::ModelUpdateMsg update;
        {
          const ScopedSpan s(tracer, "fl.client.train_round", parent, r, id);
          const double train0 = client.train_timer().total_seconds();
          const double defense0 = client.defense_timer().total_seconds();
          update = client.train_round();
          const double end = tracer.now_us();
          // Durations from the client's own timers: local training opens
          // the call, the defense's before_upload closes it.
          const double train_us = (client.train_timer().total_seconds() - train0) * 1e6;
          const double def_us = (client.defense_timer().total_seconds() - defense0) * 1e6;
          tracer.record("fl.client.train_local", s.start_us(),
                        std::min(end, s.start_us() + train_us), s.id(), r, id);
          tracer.record("core.before_upload", std::max(s.start_us(), end - def_us), end,
                        s.id(), r, id);
          ex.steps = client.last_train_stats().steps;
        }
        if (faults != nullptr) {
          const double wall = faults->straggler_wall_seconds(id);
          if (wall > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wall));
        }
        {
          const ScopedSpan s(tracer, "fl.wire.encode", parent, r, id);
          ex.update_bytes = client.serialize_update(update);
        }
        std::vector<std::vector<std::uint8_t>> up;
        {
          const ScopedSpan s(tracer, "fl.transport.ship", parent, r, id);
          up = transport.ship(fl::LinkDir::kUp, id, ex.update_bytes, &ex.receipt);
          if (socket) tracer.record("net.ship", s.start_us(), tracer.now_us(), s.id(), r, id);
        }
        if (codec_active)
          ex.receipt.transport.bytes_up_uncoded += up.size() * fl::v2_wire_bytes(update);
        for (const auto& copy : up) {
          Arrival arrival;
          try {
            const ScopedSpan s(tracer, "fl.wire.decode", parent, r, id);
            arrival.msg = fl::ModelUpdateMsg::deserialize(fl::Transport::open(copy), update_ref);
            arrival.ok = true;
          } catch (const Error&) {
            // Quarantined as corrupt, as the engine does.
          }
          ex.arrivals.push_back(std::move(arrival));
        }
      };

      std::vector<std::size_t> still_pending;
      const auto commit = [&](std::size_t idx) {
        const std::size_t i = pending[idx];
        Exchange& ex = exchanges[idx];
        transport.commit(ex.receipt);
        lost_copies += static_cast<double>(ex.receipt.faults.drops_up +
                                           ex.receipt.faults.drops_down);
        round_steps += ex.steps;
        if (!ex.update_bytes.empty()) shipped_updates.push_back(std::move(ex.update_bytes));
        if (!ex.got_global) {
          still_pending.push_back(i);
          return;
        }
        bool update_accepted = false;
        for (Arrival& arrival : ex.arrivals) {
          if (!arrival.ok) continue;
          fl::UpdateVerdict verdict;
          {
            const ScopedSpan s(tracer, "fl.server.validate", round_id, r,
                               static_cast<int>(i));
            verdict = server.validate_update(arrival.msg, accepted_ids, weighting);
          }
          if (!verdict.accepted) continue;
          weighting = arrival.msg.pre_weighted;
          accepted_ids.insert(arrival.msg.client_id);
          const ScopedSpan s(tracer, "fl.server.absorb", round_id, r, static_cast<int>(i));
          server.absorb_validated(arrival.msg);
          ++accepted;
          update_accepted = true;
        }
        if (!update_accepted) still_pending.push_back(i);
      };

      fl::RoundPipeline(sim.pipeline_mode(), &exec).run(pending.size(), task, commit);
      pending = std::move(still_pending);
      if (accepted >= quorum) break;
      if (cfg.round_deadline_seconds > 0.0 &&
          transport.stats().simulated_latency_seconds - round_start_clock >=
              cfg.round_deadline_seconds)
        break;
    }

    if (accepted > 0 && accepted >= quorum) {
      const ScopedSpan s(tracer, "fl.server.finalize", round_id, r);
      server.finalize_aggregation();
    } else {
      server.carry_forward();
    }

    // Store writes: inside the round for a durable workload (the engine
    // commits the WAL record and snapshot before the round returns), as a
    // probe between rounds otherwise.
    {
      std::optional<ScopedSpan> probe;
      if (!spec.durable) probe.emplace(tracer, "probe.store", -1, r);
      const std::int64_t store_parent = spec.durable ? round_id : probe->id();
      std::size_t payload = 0;
      if (spec.durable) {
        payload = static_cast<std::size_t>(ref.wal_growth[static_cast<std::size_t>(r)]);
      } else {
        // A commit record's bulk: the global arena delta and the touched
        // clients' state.
        payload = server.global_params().numel() * sizeof(float);
        for (const std::size_t i : touched) {
          BinaryWriter w;
          clients[i].save_state(w);
          payload += w.size();
        }
      }
      const std::vector<std::uint8_t> record(payload, static_cast<std::uint8_t>(r));
      {
        const ScopedSpan s(tracer, "store.wal.append", store_parent, r);
        probe_store.append(record);
      }
      if (r > 0) per_round["store.wal.kb_per_round"].push_back(payload / 1024.0);
      if (++since_snapshot >= spec.snapshot_every) {
        since_snapshot = 0;
        BinaryWriter w;
        {
          const ScopedSpan s(tracer, "fl.durable.save_full_state", store_parent, r);
          sim.save_full_state(w);
        }
        {
          const ScopedSpan s(tracer, "store.snapshot", store_parent, r);
          probe_store.install_snapshot(server.round(), w.buffer());
        }
        per_round["store.snapshot_mb"].push_back(w.size() / 1e6);
      }
    }

    if (evaluates_after(spec, r + 1)) {
      const ScopedSpan s(tracer, "fl.eval", round_id, r);
      sim.evaluate_now();
    }
    const double round_end = tracer.now_us();
    tracer.record_with_id(round_id, "fl.round", round_start, round_end, -1, r, -1);

    if (!socket) {
      // Net probe: this round's payloads once more over loopback TCP.
      const ScopedSpan probe(tracer, "probe.net", -1, r);
      std::size_t k = 0;
      for (const std::size_t i : touched) {
        const int id = static_cast<int>(i);
        {
          const ScopedSpan s(tracer, "net.ship", probe.id(), r, id);
          net_probe->ship(fl::LinkDir::kDown, id, broadcast_bytes);
        }
        if (k < shipped_updates.size()) {
          const ScopedSpan s(tracer, "net.ship", probe.id(), r, id);
          net_probe->ship(fl::LinkDir::kUp, id, shipped_updates[k++]);
        }
      }
    }

    if (r == 0) continue;  // warm-up round: not part of the per-round figures
    ++timed_rounds;
    traced_loop_us += round_end - round_start;
    const fl::TransportStats& now = transport.stats();
    per_round["nn.steps"].push_back(static_cast<double>(round_steps));
    per_round["fl.transport.lost_copies"].push_back(lost_copies);
    per_round["fl.round.retries"].push_back(retries);
    per_round["fl.server.accept_ratio"].push_back(
        selected.empty() ? 1.0 : static_cast<double>(accepted) / selected.size());
    const double up = static_cast<double>(now.bytes_up - stats_before.bytes_up);
    const double up_uncoded =
        static_cast<double>(now.bytes_up_uncoded - stats_before.bytes_up_uncoded);
    per_round["fl.wire.saved_x"].push_back(codec_active && up > 0 ? up_uncoded / up : 1.0);
    per_round["net.wire_kb"].push_back(
        static_cast<double>(net_transport.stats().socket_bytes_tx - net_before.socket_bytes_tx) /
        1024.0);
  }
  res.scalars["fl.round.traced_rounds_per_s"] = timed_rounds / (traced_loop_us / 1e6);
  res.scalars["net.errors"] =
      static_cast<double>(net_errors(net_transport.stats()) - net_errors_before);
  res.final_hash = model_hash(server.global_params());

  // Recovery: scan the store, then rebuild a fresh simulation from it. A
  // durable workload recovers the untraced run's store; the others a store
  // holding one snapshot of the replay's final state.
  std::unique_ptr<TempDir> snapshot_dir;
  std::filesystem::path store_dir = ref.store_dir;
  if (!spec.durable) {
    snapshot_dir = std::make_unique<TempDir>(work_dir / "replay-snapshot");
    store_dir = snapshot_dir->path();
    dinar::store::RoundStore s(store_dir.string());
    BinaryWriter w;
    sim.save_full_state(w);
    s.install_snapshot(server.round(), w.buffer());
  }
  {
    const double t = tracer.now_us();
    const dinar::store::RoundStore::Recovered rec =
        dinar::store::RoundStore(store_dir.string()).recover();
    const double t1 = tracer.now_us();
    tracer.record("store.recover_scan", t, t1, -1, -1, -1);
    res.scalars["store.recover_scan_ms"] = (t1 - t) / 1e3;
    DINAR_CHECK(rec.snapshot.has_value() || !rec.wal_records.empty(),
                "recovery scan found an empty store");
  }
  {
    dinar::store::RoundStore store(store_dir.string());
    Instance fresh = construct(spec, inputs, {});
    fresh.sim->attach_store(&store, spec.snapshot_every);
    const double t = tracer.now_us();
    fresh.sim->recover_from_store();
    const double t1 = tracer.now_us();
    tracer.record("fl.durable.recover", t, t1, -1, -1, -1);
    res.scalars["fl.durable.replay_ms"] = (t1 - t) / 1e3;
    res.recovered_hash = model_hash(fresh.sim->server().global_params());
    fresh.sim->attach_store(nullptr);
  }

  // Layer probes at the workload's own sizes.
  const StepProbe step = probe_train_steps(sim, spec, ref.selected.back(), tracer);
  for (const double steps : per_round["nn.steps"]) {
    per_round["nn.fwd_ms"].push_back(step.fwd_ms * steps);
    per_round["nn.bwd_ms"].push_back(step.bwd_ms * steps);
    per_round["opt.step_ms"].push_back(step.opt_ms * steps);
    per_round["data.batch_ms"].push_back(step.batch_ms * steps);
  }
  res.scalars["nn.allocs_per_step"] = step.allocs;
  res.scalars["nn.alloc_mb_per_step"] = step.alloc_mb;
  res.scalars["nn.eval_fwd_ms"] = probe_eval_forward_ms(sim, tracer);
  res.scalars["tensor.gemm.gflops"] = probe_gemm_gflops(spec, exec, tracer);
  res.scalars["tensor.codec.int8_gbps"] =
      probe_codec_gbps(server.global_params().as_span(), tracer);

  return res;
}

}  // namespace roundbench
