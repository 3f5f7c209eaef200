#include <cstdio>
#include <fstream>
#include <functional>
#include <thread>

#include "tracer.h"
#include "util/error.h"

namespace roundbench {

int Tracer::thread_index() {
  const std::size_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (const auto& [k, idx] : threads_)
    if (k == key) return idx;
  threads_.emplace_back(key, static_cast<int>(threads_.size()));
  return threads_.back().second;
}

std::int64_t Tracer::reserve_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::record_with_id(std::int64_t id, std::string name, double start_us,
                            double end_us, std::int64_t parent, std::int64_t round,
                            int client) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start_us, end_us, id, parent, round, client,
                        thread_index()});
}

std::int64_t Tracer::record(std::string name, double start_us, double end_us,
                            std::int64_t parent, std::int64_t round, int client) {
  const std::int64_t id = reserve_id();
  record_with_id(id, std::move(name), start_us, end_us, parent, round, client);
  return id;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata) const {
  const std::vector<Span> all = spans();
  std::ofstream f(path);
  DINAR_CHECK(f.good(), "cannot write trace file " << path);
  f << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata
    << ",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
       "\"args\":{\"name\":\"roundbench traced replay\"}}";
  char buf[512];
  for (const Span& s : all) {
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"round\":%lld,\"client\":%d}}",
                  s.name.c_str(), static_cast<int>(s.name.find('.')), s.name.c_str(),
                  s.tid, s.start_us, s.end_us - s.start_us,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.round), s.client);
    f << buf;
  }
  f << "\n]}\n";
  DINAR_CHECK(f.good(), "failed writing trace file " << path);
}

}  // namespace roundbench
