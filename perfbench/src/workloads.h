// The three workloads: their static description, the set-up that builds
// and exports the archive, and the closed-loop clients of the timed phase.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/env.h"
#include "common/metrics.h"
#include "heaven/heaven_db.h"
#include "model.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke test.
  bool tiny = false;
  /// Perturbs one expected result: the run must then fail.
  bool corrupt_oracle = false;
  /// Where spans and the per-seed sim record are written.
  std::string out_dir = ".";
  /// Identifies the build; a sim record from another build is replaced.
  std::string fingerprint;
};

/// Static description of one workload instance, derived from the
/// workload name, the seed and the size.
struct WorkloadSpec {
  std::string name;
  heaven::HeavenOptions options;
  /// Objects built and exported by set-up.
  std::vector<ObjectSpec> initial;
  int clients = 1;
  /// Set-up reads every object once so the timed phase starts cache-hot.
  bool warm_cache = false;
  /// Set-ups per run, half of them after the timed phase; setup_s is
  /// their median.
  int setups = 4;
  /// The timed phase runs at least this many reads (over all clients), so
  /// the read p99 has at least 10 samples beyond it.
  uint64_t min_reads = 0;
  /// Client 0's first steps form the deterministic sim-clock window.
  uint64_t sim_steps = 0;
  /// Ingest only: the shape of new objects ([0:x-1, 0:yz-1, 0:yz-1] with
  /// x in [new_x_lo, new_x_hi]) and the live objects kept.
  int64_t new_x_lo = 0;
  int64_t new_x_hi = 0;
  int64_t new_yz = 0;
  size_t max_live = 0;
  std::string op_mix;
};

/// Fails on an unknown workload name.
bool MakeSpec(const Config& config, WorkloadSpec* spec, std::string* error);

struct LiveObject {
  ObjectSpec spec;
  heaven::ObjectId id = 0;
  std::shared_ptr<const heaven::MddArray> model;
  /// Boxes that recur across reads (so caches and precomputed results
  /// are used).
  std::vector<heaven::MdInterval> pool;
};

/// A HEAVEN database over a MemEnv plus the live objects and their model.
struct Archive {
  std::unique_ptr<heaven::MemEnv> env;
  std::unique_ptr<heaven::HeavenDb> db;
  heaven::CollectionId collection = 0;
  std::vector<LiveObject> objects;
  uint64_t next_object = 0;
};

/// What one client (or set-up) measured.
struct ClientLog {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// Client-clock seconds per read, inside the sim window only.
  std::vector<double> sim_read_s;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t steps = 0;
  uint64_t result_bytes = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Thread CPU outside library calls (oracle, generators, bookkeeping).
  double outside_cpu_s = 0.0;
  /// Process CPU inside mutator calls.
  double write_cpu_s = 0.0;
  /// User bytes moved to tape, and the wall and tape seconds it took.
  double export_bytes = 0.0;
  double export_wall_s = 0.0;
  /// Exports inside the sim window: user bytes and tape seconds.
  double sim_export_bytes = 0.0;
  double sim_export_tape_s = 0.0;
  /// Used tape bytes per live user byte at the end of the sim window.
  double stored_per_user = 0.0;
  /// Inserted user bytes.
  double insert_bytes = 0.0;
  /// Recent reads' boxes and the first statements, replayed by the layer
  /// pass.
  std::vector<std::pair<heaven::ObjectId, heaven::MdInterval>> boxes;
  std::vector<std::string> statements;
  std::string first_error;

  void RememberBox(const std::pair<heaven::ObjectId, heaven::MdInterval>& box);
  void Merge(const ClientLog& other);
};

/// Gathers the QueryProfiler's per-query profiles during a traced phase.
/// The profiler keeps only its most recent profiles, so clients harvest
/// whenever enough new ones have accumulated.
class ProfileHarvester {
 public:
  explicit ProfileHarvester(heaven::QueryProfiler* profiler) : profiler_(profiler) {}
  void MaybeHarvest();
  void Harvest();
  std::vector<heaven::QueryProfile> profiles() const;

 private:
  heaven::QueryProfiler* profiler_;
  mutable std::mutex mu_;
  uint64_t harvested_at_ = 0;
  std::set<uint64_t> seen_;
  std::vector<heaven::QueryProfile> profiles_;
};

/// Opens a fresh database and inserts, exports and (for hot_storm) warms
/// every initial object, logging each mutator. `models` holds the initial
/// objects' cells.
bool Setup(const WorkloadSpec& spec,
           const std::vector<std::shared_ptr<const heaven::MddArray>>& models,
           Oracle* oracle, Archive* archive, ClientLog* log, double* seconds);

struct PhaseResult {
  ClientLog log;
  double wall_s = 0.0;
  double process_cpu_s = 0.0;
  /// Library counters at the start and end of the phase.
  std::vector<uint64_t> stats_begin;
  std::vector<uint64_t> stats_end;
  std::vector<heaven::QueryProfile> profiles;
};

/// Runs the closed-loop clients for `seconds` (and at least until the
/// read minimum and the sim window are met).
PhaseResult RunPhase(const WorkloadSpec& spec, const Config& config,
                     Archive* archive, Oracle* oracle, bool traced);

/// Deterministic figures of the sim window, in a fixed order.
std::vector<std::pair<std::string, double>> SimSummary(const ClientLog& setup,
                                                       const PhaseResult& phase);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
