// Benchmark-side utilities: clocks, percentiles, the input RNG and the
// in-memory span recorder of the traced run. Nothing here calls into the
// HEAVEN library, so a change to the library cannot change how the
// benchmark measures it.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host steady clock, seconds.
double WallNow();
/// CPU time of the whole process (every thread), seconds.
double ProcessCpuNow();
/// CPU time of the calling thread, seconds.
double ThreadCpuNow();
/// Peak resident set size of the process, MiB.
double PeakRssMiB();

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);

/// Deterministic input generator (SplitMix64). The benchmark derives every
/// input from its --seed through this, never through library code.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, bound); bound > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Rank in [0, n) with P(rank = k) proportional to 1 / (k + 1)^theta.
  uint64_t Zipf(uint64_t n, double theta);

 private:
  uint64_t state_;
};

/// Mixes several words into one seed.
uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c = 0);

/// One recorded span: a named interval on the steady clock, the span that
/// caused it (0 = root) and the operation it belongs to.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Collects spans in memory while enabled; WriteJsonLines dumps them when
/// the run ends. Disabled, a Span costs one relaxed load.
class SpanRecorder {
 public:
  static SpanRecorder& Get();

  void SetEnabled(bool enabled);
  bool enabled() const;
  /// Spans dropped after the in-memory cap was reached.
  uint64_t dropped() const;
  size_t size() const;
  /// Writes one JSON object per span; returns false on an I/O error.
  bool WriteJsonLines(const std::string& path) const;

 private:
  friend class Span;
  void Add(const SpanRecord& record);

  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t dropped_ = 0;
};

/// RAII span around one call. Nested spans on the same thread take the
/// enclosing span as parent; `op` != 0 starts a new operation (a root).
class Span {
 public:
  Span(const char* name, uint64_t op = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_op_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
