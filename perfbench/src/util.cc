#include "util.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

#include <sys/resource.h>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Caps the recorder's memory: a span is ~48 bytes.
constexpr size_t kMaxSpans = 1u << 20;

std::atomic<bool> g_spans_enabled{false};
std::atomic<uint64_t> g_next_span_id{1};
thread_local uint64_t t_parent = 0;
thread_local uint64_t t_op = 0;

}  // namespace

double WallNow() { return ClockSeconds(CLOCK_MONOTONIC); }
double ProcessCpuNow() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
double ThreadCpuNow() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }

double PeakRssMiB() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Zipf(uint64_t n, double theta) {
  double total = 0.0;
  for (uint64_t k = 0; k < n; ++k) total += std::pow(static_cast<double>(k + 1), -theta);
  double target = Unit() * total;
  for (uint64_t k = 0; k < n; ++k) {
    target -= std::pow(static_cast<double>(k + 1), -theta);
    if (target < 0.0) return k;
  }
  return n - 1;
}

uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  Rng rng(a * 0x100000001b3ULL ^ (b + 0x51ed27ULL) * 0x9e3779b97f4a7c15ULL ^ c);
  rng.Next();
  return rng.Next();
}

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

void SpanRecorder::SetEnabled(bool enabled) { g_spans_enabled.store(enabled); }

bool SpanRecorder::enabled() const {
  return g_spans_enabled.load(std::memory_order_relaxed);
}

uint64_t SpanRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::Add(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(record);
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(file,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(file) == 0;
}

Span::Span(const char* name, uint64_t op) {
  if (!g_spans_enabled.load(std::memory_order_relaxed)) return;
  active_ = true;
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  record_.id = g_next_span_id.fetch_add(1, std::memory_order_relaxed);
  record_.name = name;
  if (op != 0) {
    record_.parent = 0;
    t_op = op;
  } else {
    record_.parent = t_parent;
  }
  record_.op = t_op;
  t_parent = record_.id;
  record_.start_ns = SteadyNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = SteadyNs();
  t_parent = saved_parent_;
  t_op = saved_op_;
  SpanRecorder::Get().Add(record_);
}

}  // namespace perfbench
