// In-memory span recorder for the traced replay.
//
// A span is one timed call into a module's public function, recorded from
// the benchmark's own code: name, start, end, the span that caused it, and
// the round and client it belongs to. Spans stay in memory while the
// replay runs and are written once, at the end, as Chrome trace-event
// JSON (the "X" complete-event form), which Perfetto and chrome://tracing
// open offline.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace roundbench {

struct Span {
  std::string name;
  double start_us = 0.0;  // since the tracer's origin
  double end_us = 0.0;
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1 = top level
  std::int64_t round = -1;
  int client = -1;
  int tid = 0;  // small per-thread index, stable within one tracer
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now_us() const {
    return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                     origin_)
        .count();
  }

  // Records a finished span and returns its id.
  std::int64_t record(std::string name, double start_us, double end_us,
                      std::int64_t parent, std::int64_t round, int client);

  // Reserves an id for a span whose children are recorded before it ends.
  std::int64_t reserve_id();
  void record_with_id(std::int64_t id, std::string name, double start_us,
                      double end_us, std::int64_t parent, std::int64_t round,
                      int client);

  std::vector<Span> spans() const;
  // Chrome trace-event JSON; `metadata` is emitted as the top-level
  // "otherData" object (already-encoded JSON object text).
  void write_chrome_json(const std::string& path, const std::string& metadata) const;

 private:
  int thread_index();

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  // guards everything below
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
  std::vector<std::pair<std::size_t, int>> threads_;  // hashed thread id -> index
};

// RAII span: starts on construction, records on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent, std::int64_t round,
             int client = -1)
      : tracer_(tracer), name_(name), parent_(parent), round_(round), client_(client),
        id_(tracer.reserve_id()), start_us_(tracer.now_us()) {}
  ~ScopedSpan() {
    tracer_.record_with_id(id_, name_, start_us_, tracer_.now_us(), parent_, round_,
                           client_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }
  double start_us() const { return start_us_; }

 private:
  Tracer& tracer_;
  const char* name_;
  std::int64_t parent_;
  std::int64_t round_;
  int client_;
  std::int64_t id_;
  double start_us_;
};

}  // namespace roundbench
