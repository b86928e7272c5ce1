#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>

#include "rasql/executor.h"
#include "tertiary/drive_profile.h"

namespace perfbench {

using heaven::HeavenOptions;
using heaven::MddArray;
using heaven::MdInterval;
using heaven::MdPoint;
using heaven::ObjectId;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Seeds the archive's layout: object sizes and their order (ingest_mixed's
/// new objects too), the sparse blobs, the dense fields' phase and the box
/// pools. It is the same for
/// every --seed, which draws the cell values and the request stream. With
/// a seeded layout the read p50 of cold_archive moved by a quarter from
/// seed to seed: with Zipf popularity, a few objects' blob and pool
/// placement decides how many reads the index prunes or the cache serves.
constexpr uint64_t kLayoutSeed = 1;
/// Object popularity within a kind: the Zipf(0.9) query stream of the
/// thesis's caching experiment (EXPERIMENTS.md E8, bench/bench_cache.cc).
constexpr double kZipfTheta = 0.9;
/// A quarter of cold_archive's boxes repeat from a pool of six per object,
/// so the cache and the precomputed catalog see exact repeats. No source
/// gives a repeat rate; these two values are the benchmark's own choice.
constexpr size_t kBoxPool = 6;
constexpr double kPoolShare = 0.25;
/// Boxes and statements remembered for the layer pass.
constexpr size_t kRememberBoxes = 256;
/// ingest_mixed: reads after each write pair, deletes per medium reclaim.
/// No source gives these ratios; they are the benchmark's own choice.
constexpr int kIngestReadsPerWrite = 4;
constexpr uint64_t kIngestDeletesPerReclaim = 2;

std::atomic<uint64_t> g_next_op{1};

/// A 3-D float domain [0:x-1, 0:y-1, 0:z-1].
MdInterval Cube(int64_t x, int64_t y, int64_t z) {
  return MdInterval(MdPoint({0, 0, 0}), MdPoint({x - 1, y - 1, z - 1}));
}

HeavenOptions BaseOptions(bool tiny) {
  HeavenOptions options;
  // The paper's mid-range (AIT-class) library with transfer rates scaled
  // down 250x, so MiB-sized objects keep the cost ratios of GB-sized ones.
  options.library.profile = heaven::ScaledProfile(heaven::MidTapeProfile(), 250.0);
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = tiny ? 4 << 10 : 32 << 10;
  options.supertile_bytes = tiny ? 16 << 10 : 512 << 10;
  // One thread, in every workload: the library's documented path with
  // bit-identical clocks. With a pool, decoded containers enter the cache
  // in completion order, so under eviction pressure the sim clock of later
  // reads differs from run to run. On hot_storm a pool of two hands each
  // small read's tile copies to woken workers: its read p50 was ~30 %
  // higher and moved with the host's scheduling from run to run.
  options.num_threads = 1;
  // Every commit syncs the WAL; on a MemEnv a sync is counted but free.
  options.storage.sync_on_commit = true;
  return options;
}

/// `n` extents spread evenly over [lo, hi], in a seeded order.
std::vector<int64_t> SpreadExtents(size_t n, int64_t lo, int64_t hi, Rng* rng) {
  std::vector<int64_t> extents;
  for (size_t i = 0; i < n; ++i) {
    extents.push_back(n == 1 ? lo
                             : lo + static_cast<int64_t>(i) * (hi - lo) /
                                        static_cast<int64_t>(n - 1));
  }
  for (size_t i = n; i > 1; --i) std::swap(extents[i - 1], extents[rng->Below(i)]);
  return extents;
}

}  // namespace

void ClientLog::RememberBox(const std::pair<ObjectId, MdInterval>& box) {
  // Keeps the most recent boxes: ingest deletes the objects of old ones.
  if (boxes.size() == 2 * kRememberBoxes) {
    boxes.erase(boxes.begin(), boxes.begin() + kRememberBoxes);
  }
  boxes.push_back(box);
}

void ClientLog::Merge(const ClientLog& other) {
  read_ms.insert(read_ms.end(), other.read_ms.begin(), other.read_ms.end());
  write_ms.insert(write_ms.end(), other.write_ms.begin(), other.write_ms.end());
  sim_read_s.insert(sim_read_s.end(), other.sim_read_s.begin(), other.sim_read_s.end());
  reads += other.reads;
  writes += other.writes;
  steps += other.steps;
  result_bytes += other.result_bytes;
  attempted += other.attempted;
  failed += other.failed;
  outside_cpu_s += other.outside_cpu_s;
  write_cpu_s += other.write_cpu_s;
  export_bytes += other.export_bytes;
  export_wall_s += other.export_wall_s;
  sim_export_bytes += other.sim_export_bytes;
  sim_export_tape_s += other.sim_export_tape_s;
  stored_per_user = std::max(stored_per_user, other.stored_per_user);
  insert_bytes += other.insert_bytes;
  for (const auto& box : other.boxes) RememberBox(box);
  for (const auto& statement : other.statements) {
    if (statements.size() < kRememberBoxes) statements.push_back(statement);
  }
  if (first_error.empty()) first_error = other.first_error;
}

bool MakeSpec(const Config& config, WorkloadSpec* spec, std::string* error) {
  const bool tiny = config.tiny;
  spec->name = config.workload;
  spec->options = BaseOptions(tiny);
  // Object sizes come from a fixed list in a fixed order.
  Rng shapes(MixSeed(kLayoutSeed, 0, 7));
  auto object = [&](const std::string& prefix, int64_t x, int64_t yz, FieldKind kind) {
    const size_t i = spec->initial.size();
    spec->initial.push_back(ObjectSpec{prefix + std::to_string(i), Cube(x, yz, yz), kind,
                                       MixSeed(config.seed, i, 1), MixSeed(kLayoutSeed, i, 1)});
  };
  if (config.workload == "cold_archive") {
    // ~64 MiB: 16 dense and 16 sparse objects of 1.6-2.3 MiB; the cache
    // holds 1/8 of the user bytes.
    spec->options.compression = heaven::Compression::kDeltaRle;
    spec->options.cache.capacity_bytes = tiny ? 48 << 10 : 8ull << 20;
    spec->options.supertile_bytes = tiny ? 16 << 10 : 128 << 10;
    const size_t n = tiny ? 2 : 16;
    const std::vector<int64_t> dense = SpreadExtents(n, 64, 96, &shapes);
    const std::vector<int64_t> sparse = SpreadExtents(n, 64, 96, &shapes);
    for (size_t i = 0; i < n; ++i) {
      object("cold", tiny ? 16 : dense[i], tiny ? 16 : 80, FieldKind::kDense);
      object("cold", tiny ? 16 : sparse[i], tiny ? 16 : 80, FieldKind::kSparse);
    }
    spec->clients = 1;
    spec->setups = 6;
    spec->min_reads = tiny ? 20 : 1000;
    spec->sim_steps = tiny ? 10 : 400;
    spec->op_mix =
        "25% ReadRegion, 25% ReadRegions (2-4 boxes), 25% Aggregate "
        "(avg/sum/max), 25% EvaluateQuantifier on sparse objects; reads and "
        "aggregates pick a dense or a sparse object with equal odds; objects "
        "Zipf(0.9) within their kind; boxes 1-10% of the object, 25% of them "
        "from a 6-box pool per object";
  } else if (config.workload == "hot_storm") {
    // ~16 MiB of dense objects, all resident in a 64 MiB cache.
    spec->options.cache.capacity_bytes = tiny ? 8ull << 20 : 64ull << 20;
    const size_t n = tiny ? 4 : 16;
    for (int64_t x : SpreadExtents(n, 56, 71, &shapes)) {
      object("hot", tiny ? 16 : x, tiny ? 16 : 64, FieldKind::kDense);
    }
    // Two clients, no pool workers: within four cores.
    spec->clients = 2;
    spec->warm_cache = true;
    // Set-up is short here: eight of them (256 write samples) spread the
    // write and export figures over a few seconds of wall time.
    spec->setups = 8;
    spec->min_reads = tiny ? 40 : 4000;
    spec->op_mix =
        "80% ReadRegion, 10% rasql subscript, 10% rasql avg_cells; boxes "
        "0.1-2% of an object; objects uniform";
  } else if (config.workload == "ingest_mixed") {
    // Six exported 1-4 MiB objects to start; the client then inserts,
    // exports, updates, re-exports and deletes objects of the same sizes.
    spec->new_x_lo = tiny ? 16 : 64;
    spec->new_x_hi = tiny ? 16 : 256;
    spec->new_yz = tiny ? 16 : 64;
    for (int64_t x : SpreadExtents(tiny ? 2 : 6, spec->new_x_lo, spec->new_x_hi, &shapes)) {
      object("ing", x, spec->new_yz, FieldKind::kDense);
    }
    // A cache of four super-tiles: most reads of freshly exported objects
    // come from tape.
    spec->options.cache.capacity_bytes = tiny ? 48 << 10 : 2ull << 20;
    spec->clients = 1;
    spec->min_reads = tiny ? 16 : 1000;
    spec->sim_steps = tiny ? 2 : 80;
    spec->max_live = tiny ? 3 : 8;
    spec->op_mix =
        "per step: InsertObject (1-4 MiB, sizes cycle through 8 fixed values) "
        "+ ExportObject, 4 reads, UpdateRegion (1-5% box) + re-export, 4 "
        "reads, DeleteObject of the oldest beyond 8 live, ReclaimMedium every "
        "2nd delete; reads 70% ReadRegion (1-10%) / 30% Aggregate avg over "
        "the 4 newest objects";
  } else {
    *error = "unknown workload '" + config.workload +
             "' (cold_archive, hot_storm, ingest_mixed)";
    return false;
  }
  if (tiny) spec->setups = 2;
  return true;
}

void ProfileHarvester::MaybeHarvest() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (profiler_->profiles_recorded() - harvested_at_ < heaven::QueryProfiler::kMaxRecent / 2) {
      return;
    }
  }
  Harvest();
}

void ProfileHarvester::Harvest() {
  std::lock_guard<std::mutex> lock(mu_);
  harvested_at_ = profiler_->profiles_recorded();
  for (heaven::QueryProfile& profile : profiler_->Recent()) {
    if (seen_.insert(profile.query_id).second) profiles_.push_back(std::move(profile));
  }
}

std::vector<heaven::QueryProfile> ProfileHarvester::profiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  return profiles_;
}

namespace {

/// Issues timed library calls for one client and checks their results.
class Caller {
 public:
  Caller(Archive* archive, Oracle* oracle, ClientLog* log)
      : archive_(archive), db_(archive->db.get()), oracle_(oracle), log_(log),
        cpu_mark_(ThreadCpuNow()) {}

  void set_sim_window(bool on) { sim_window_ = on; }
  /// Adds the thread CPU since the last call to the outside share.
  void Finish() { log_->outside_cpu_s += ThreadCpuNow() - cpu_mark_; }

  bool Insert(LiveObject* object) {
    auto id = Call("heaven_db.insert_object", true, [&] {
      return db_->InsertObject(archive_->collection, object->spec.name, *object->model);
    });
    if (!Ok(id.status(), "insert_object")) return false;
    object->id = id.value();
    log_->insert_bytes += static_cast<double>(object->model->size_bytes());
    return true;
  }

  bool Export(const LiveObject& object) {
    const uint64_t disk_before = db_->engine()->blobs()->TotalBytes();
    const double tape_before = db_->TapeSeconds();
    const heaven::Status status =
        Call("heaven_db.export_object", true, [&] { return db_->ExportObject(object.id); });
    if (!Ok(status, "export_object")) return false;
    const double moved = static_cast<double>(disk_before) -
                         static_cast<double>(db_->engine()->blobs()->TotalBytes());
    log_->export_bytes += moved;
    log_->export_wall_s += log_->write_ms.back() / 1e3;
    if (sim_window_) {
      log_->sim_export_bytes += moved;
      log_->sim_export_tape_s += db_->TapeSeconds() - tape_before;
    }
    return true;
  }

  bool Update(LiveObject* object, Rng* rng) {
    const MdInterval box = RandomBox(object->spec.domain, 0.01 + 0.04 * rng->Unit(), rng);
    const MddArray patch = GeneratePatch(box, rng->Next());
    const heaven::Status status = Call("heaven_db.update_region", true,
                                       [&] { return db_->UpdateRegion(object->id, patch); });
    if (!Ok(status, "update_region")) return false;
    auto model = std::make_shared<MddArray>(*object->model);
    ApplyPatch(model.get(), patch);
    object->model = std::move(model);
    return true;
  }

  bool Delete(size_t index) {
    const heaven::Status status =
        Call("heaven_db.delete_object", true,
             [&] { return db_->DeleteObject(archive_->objects[index].id); });
    if (!Ok(status, "delete_object")) return false;
    archive_->objects.erase(archive_->objects.begin() + static_cast<long>(index));
    return true;
  }

  /// Reorganises the cartridge holding the most dead bytes, if any.
  bool Reclaim() {
    std::vector<uint64_t> live(db_->library()->num_media(), 0);
    for (const heaven::SuperTileMeta& meta : db_->RegistrySnapshot()) {
      live[meta.medium] += meta.size_bytes;
    }
    heaven::MediumId best = 0;
    uint64_t best_dead = 0;
    for (heaven::MediumId m = 0; m < live.size(); ++m) {
      const auto used = db_->library()->MediumUsedBytes(m);
      if (!used.ok()) continue;
      const uint64_t dead = used.value() - std::min(used.value(), live[m]);
      if (dead > best_dead) {
        best = m;
        best_dead = dead;
      }
    }
    if (best_dead == 0) return true;
    auto reclaimed = Call("heaven_db.reclaim_medium", true,
                          [&] { return db_->ReclaimMedium(best); });
    return Ok(reclaimed.status(), "reclaim_medium");
  }

  bool ReadRegion(const LiveObject& object, const MdInterval& box) {
    auto result = Call("heaven_db.read_region", false,
                       [&] { return db_->ReadRegion(object.id, box); });
    if (!Ok(result.status(), "read_region")) return false;
    Remember(object, box);
    log_->result_bytes += result->size_bytes();
    return Check(oracle_->CheckArray(*object.model, box, *result), "read_region");
  }

  bool ReadObject(const LiveObject& object) {
    auto result =
        Call("heaven_db.read_object", false, [&] { return db_->ReadObject(object.id); });
    if (!Ok(result.status(), "read_object")) return false;
    log_->result_bytes += result->size_bytes();
    return Check(oracle_->CheckArray(*object.model, object.spec.domain, *result),
                 "read_object");
  }

  bool ReadRegions(const std::vector<std::pair<const LiveObject*, MdInterval>>& parts) {
    std::vector<std::pair<ObjectId, MdInterval>> queries;
    for (const auto& [object, box] : parts) queries.emplace_back(object->id, box);
    auto result = Call("heaven_db.read_regions", false,
                       [&] { return db_->ReadRegions(queries); });
    if (!Ok(result.status(), "read_regions")) return false;
    bool ok = result->size() == parts.size();
    for (size_t i = 0; ok && i < parts.size(); ++i) {
      Remember(*parts[i].first, parts[i].second);
      log_->result_bytes += (*result)[i].size_bytes();
      ok = oracle_->CheckArray(*parts[i].first->model, parts[i].second, (*result)[i]);
    }
    return Check(ok, "read_regions");
  }

  bool Aggregate(const LiveObject& object, const MdInterval& box,
                 heaven::Condenser condenser) {
    auto result = Call("heaven_db.aggregate", false,
                       [&] { return db_->Aggregate(object.id, condenser, box); });
    if (!Ok(result.status(), "aggregate")) return false;
    Remember(object, box);
    log_->result_bytes += sizeof(double);
    return Check(oracle_->CheckScalar(ExpectedCondense(*object.model, condenser, box),
                                      result.value()),
                 "aggregate");
  }

  bool Quantifier(const LiveObject& object, const MdInterval& box,
                  const heaven::CellPredicate& pred, bool universal) {
    auto result = Call("heaven_db.evaluate_quantifier", false, [&] {
      return db_->EvaluateQuantifier(object.id, box, pred, universal);
    });
    if (!Ok(result.status(), "evaluate_quantifier")) return false;
    Remember(object, box);
    log_->result_bytes += 1;
    return Check(oracle_->CheckBool(
                     ExpectedQuantifier(*object.model, box, pred, universal), result.value()),
                 "evaluate_quantifier");
  }

  /// `select <name><box> from bench`, or its avg_cells when `average`.
  bool Rasql(const LiveObject& object, const MdInterval& box, bool average) {
    const std::string target = object.spec.name + box.ToString();
    const std::string statement =
        "select " + (average ? "avg_cells(" + target + ")" : target) + " from bench";
    auto result = Call("rasql.execute_string", false, [&] {
      return heaven::rasql::ExecuteString(db_, statement);
    });
    if (!Ok(result.status(), "rasql")) return false;
    Remember(object, box);
    if (log_->statements.size() < kRememberBoxes) log_->statements.push_back(statement);
    if (average) {
      log_->result_bytes += sizeof(double);
      return Check(result->is_scalar() &&
                       oracle_->CheckScalar(
                           ExpectedCondense(*object.model, heaven::Condenser::kAvg, box),
                           result->scalar()),
                   "rasql avg_cells");
    }
    if (result->is_scalar()) return Check(false, "rasql subscript");
    log_->result_bytes += result->array().size_bytes();
    return Check(oracle_->CheckArray(*object.model, box, result->array()), "rasql subscript");
  }

 private:
  /// Times one library call; the bookkeeping around it stays outside the
  /// timed interval.
  template <typename Fn>
  auto Call(const char* span_name, bool write, Fn&& fn) -> decltype(fn()) {
    const double cpu_enter = ThreadCpuNow();
    log_->outside_cpu_s += cpu_enter - cpu_mark_;
    const double process_enter = write ? ProcessCpuNow() : 0.0;
    const double sim_enter = db_->ClientSeconds();
    const double start = WallNow();
    auto result = [&] {
      Span span(span_name);
      return fn();
    }();
    const double wall = WallNow() - start;
    const double sim = db_->ClientSeconds() - sim_enter;
    if (write) {
      log_->write_cpu_s += ProcessCpuNow() - process_enter;
      log_->write_ms.push_back(wall * 1e3);
      ++log_->writes;
    } else {
      log_->read_ms.push_back(wall * 1e3);
      ++log_->reads;
      if (sim_window_) log_->sim_read_s.push_back(sim);
    }
    ++log_->attempted;
    cpu_mark_ = ThreadCpuNow();
    return result;
  }

  bool Ok(const heaven::Status& status, const char* what) {
    if (status.ok()) return true;
    return Fail(std::string(what) + ": " + status.ToString());
  }

  bool Check(bool ok, const char* what) {
    return ok ? true : Fail(std::string(what) + ": result differs from the model");
  }

  bool Fail(const std::string& message) {
    ++log_->failed;
    if (log_->first_error.empty()) log_->first_error = message;
    return false;
  }

  void Remember(const LiveObject& object, const MdInterval& box) {
    log_->RememberBox({object.id, box});
  }

  Archive* archive_;
  heaven::HeavenDb* db_;
  Oracle* oracle_;
  ClientLog* log_;
  double cpu_mark_;
  bool sim_window_ = false;
};

/// Used tape bytes per live user byte.
double StoredPerUser(const Archive& archive) {
  uint64_t used = 0;
  for (heaven::MediumId m = 0; m < archive.db->library()->num_media(); ++m) {
    const auto bytes = archive.db->library()->MediumUsedBytes(m);
    if (bytes.ok()) used += bytes.value();
  }
  uint64_t user = 0;
  for (const LiveObject& object : archive.objects) user += object.model->size_bytes();
  return user == 0 ? 0.0 : static_cast<double>(used) / static_cast<double>(user);
}

/// Boxes of fractions spread evenly over [lo, hi] at seeded positions.
std::vector<MdInterval> BoxPool(const ObjectSpec& spec, double lo, double hi) {
  Rng rng(MixSeed(spec.layout, 0, 2));
  std::vector<MdInterval> pool;
  for (size_t i = 0; i < kBoxPool; ++i) {
    const double fraction = lo + (hi - lo) * static_cast<double>(i) / (kBoxPool - 1);
    pool.push_back(RandomBox(spec.domain, fraction, &rng));
  }
  return pool;
}

/// One closed-loop client: issues a step, waits for it, issues the next.
class Client {
 public:
  Client(const WorkloadSpec& spec, Archive* archive, Oracle* oracle, ClientLog* log,
         uint64_t seed, int index)
      : spec_(spec), archive_(archive), caller_(archive, oracle, log), log_(log),
        rng_(MixSeed(seed, 100 + static_cast<uint64_t>(index), 3)), index_(index) {
    // Popularity order of the dense and of the sparse objects: a fixed
    // stride through the objects sorted by size, so every seed gives the
    // popular ranks the same sizes.
    for (size_t i = 0; i < archive->objects.size(); ++i) {
      (archive->objects[i].spec.kind == FieldKind::kDense ? dense_ : sparse_).push_back(i);
    }
    for (std::vector<size_t>* order : {&dense_, &sparse_}) {
      if (order->empty()) continue;
      std::vector<size_t> by_size = *order;
      std::stable_sort(by_size.begin(), by_size.end(), [&](size_t a, size_t b) {
        return archive->objects[a].spec.domain.CellCount() <
               archive->objects[b].spec.domain.CellCount();
      });
      size_t stride = 7;
      while (std::gcd(stride, by_size.size()) > 1) ++stride;
      for (size_t r = 0; r < by_size.size(); ++r) {
        (*order)[r] = by_size[(r * stride) % by_size.size()];
      }
    }
  }

  void Run(double deadline, double hard_deadline, uint64_t min_reads,
           ProfileHarvester* harvester) {
    const uint64_t sim_steps = index_ == 0 ? spec_.sim_steps : 0;
    double stored_sum = 0.0;
    for (;;) {
      const bool window = log_->steps < sim_steps;
      caller_.set_sim_window(window);
      {
        Span op("op", g_next_op.fetch_add(1));
        Step();
      }
      ++log_->steps;
      if (window) {
        // Averaged over the window's steps: one snapshot would depend on
        // where the last reclaim fell.
        stored_sum += StoredPerUser(*archive_);
        if (log_->steps == sim_steps) {
          log_->stored_per_user = stored_sum / static_cast<double>(sim_steps);
        }
      }
      if (harvester != nullptr) harvester->MaybeHarvest();
      const double now = WallNow();
      if (now >= hard_deadline) break;
      if (now >= deadline && log_->reads >= min_reads && log_->steps >= sim_steps) break;
    }
    caller_.Finish();
  }

 private:
  void Step() {
    if (spec_.name == "cold_archive") {
      StepCold();
    } else if (spec_.name == "hot_storm") {
      StepHot();
    } else {
      StepIngest();
    }
  }

  const LiveObject& Popular(const std::vector<size_t>& order) {
    return archive_->objects[order[rng_.Zipf(order.size(), kZipfTheta)]];
  }

  /// Half the objects are sparse, and so are half the picks.
  const LiveObject& ColdObject() {
    return Popular(sparse_.empty() || rng_.Unit() < 0.5 ? dense_ : sparse_);
  }

  MdInterval ColdBox(const LiveObject& object) {
    if (rng_.Unit() < kPoolShare) return object.pool[rng_.Below(object.pool.size())];
    return RandomBox(object.spec.domain, 0.01 + 0.09 * rng_.Unit(), &rng_);
  }

  /// The four read kinds in equal shares: no source gives their mix.
  void StepCold() {
    const double r = rng_.Unit();
    if (r < 0.25) {
      const LiveObject& object = ColdObject();
      caller_.ReadRegion(object, ColdBox(object));
    } else if (r < 0.50) {
      std::vector<std::pair<const LiveObject*, MdInterval>> parts;
      const int64_t n = rng_.Range(2, 4);
      for (int64_t i = 0; i < n; ++i) {
        const LiveObject& object = ColdObject();
        parts.emplace_back(&object, ColdBox(object));
      }
      caller_.ReadRegions(parts);
    } else if (r < 0.75) {
      static constexpr heaven::Condenser kCondensers[] = {
          heaven::Condenser::kAvg, heaven::Condenser::kSum, heaven::Condenser::kMax};
      const LiveObject& object = ColdObject();
      caller_.Aggregate(object, ColdBox(object), kCondensers[rng_.Below(3)]);
    } else {
      // some(v > 50), some(v < 0), all(v >= 0), all(v > 0.5).
      static constexpr heaven::CellPredicate kPredicates[] = {
          {heaven::CompareOp::kGt, 50.0}, {heaven::CompareOp::kLt, 0.0},
          {heaven::CompareOp::kGe, 0.0}, {heaven::CompareOp::kGt, 0.5}};
      const size_t which = rng_.Below(4);
      const LiveObject& object = Popular(sparse_.empty() ? dense_ : sparse_);
      caller_.Quantifier(object, ColdBox(object), kPredicates[which], which >= 2);
    }
  }

  /// Uniform over objects, which all sit in the cache: the benchmark's own
  /// choice, as no source gives hot_storm's popularity.
  void StepHot() {
    const LiveObject& object = archive_->objects[rng_.Below(archive_->objects.size())];
    const MdInterval box = RandomBox(object.spec.domain, 0.001 + 0.019 * rng_.Unit(), &rng_);
    const double r = rng_.Unit();
    if (r < 0.8) {
      caller_.ReadRegion(object, box);
    } else {
      caller_.Rasql(object, box, r >= 0.9);
    }
  }

  /// Reads of the newest objects, 70% ReadRegion and 30% Aggregate: the
  /// benchmark's own choice, as no source gives an ingest read mix.
  void IngestReads() {
    for (int i = 0; i < kIngestReadsPerWrite; ++i) {
      const size_t n = archive_->objects.size();
      const LiveObject& object =
          archive_->objects[n - 1 - rng_.Below(std::min<size_t>(4, n))];
      const MdInterval box =
          RandomBox(object.spec.domain, 0.01 + 0.09 * rng_.Unit(), &rng_);
      if (rng_.Unit() < 0.7) {
        caller_.ReadRegion(object, box);
      } else {
        caller_.Aggregate(object, box, heaven::Condenser::kAvg);
      }
    }
  }

  void StepIngest() {
    // New objects' sizes cycle through 8 fixed values in a fixed order,
    // part of the layout.
    if (sizes_.empty()) {
      Rng order(MixSeed(kLayoutSeed, 0, 9));
      sizes_ = SpreadExtents(8, spec_.new_x_lo, spec_.new_x_hi, &order);
    }
    const int64_t x = sizes_.back();
    sizes_.pop_back();
    const uint64_t number = archive_->next_object++;
    LiveObject fresh;
    fresh.spec = ObjectSpec{"new" + std::to_string(number),
                            Cube(x, spec_.new_yz, spec_.new_yz), FieldKind::kDense,
                            rng_.Next(), MixSeed(kLayoutSeed, number, 8)};
    fresh.model = std::make_shared<const MddArray>(GenerateField(fresh.spec));
    if (caller_.Insert(&fresh)) {
      archive_->objects.push_back(std::move(fresh));
      caller_.Export(archive_->objects.back());
    }
    IngestReads();
    LiveObject& target = archive_->objects[rng_.Below(archive_->objects.size())];
    if (caller_.Update(&target, &rng_)) caller_.Export(target);
    IngestReads();
    if (archive_->objects.size() > spec_.max_live && caller_.Delete(0)) {
      if (++deletes_ % kIngestDeletesPerReclaim == 0) caller_.Reclaim();
    }
  }

  const WorkloadSpec& spec_;
  Archive* archive_;
  Caller caller_;
  ClientLog* log_;
  Rng rng_;
  int index_;
  std::vector<size_t> dense_;
  std::vector<size_t> sparse_;
  std::vector<int64_t> sizes_;
  uint64_t deletes_ = 0;
};

}  // namespace

bool Setup(const WorkloadSpec& spec,
           const std::vector<std::shared_ptr<const MddArray>>& models, Oracle* oracle,
           Archive* archive, ClientLog* log, double* seconds) {
  const double start = WallNow();
  archive->env = std::make_unique<heaven::MemEnv>();
  auto db = heaven::HeavenDb::Open(archive->env.get(), "/perfbench", spec.options);
  if (!db.ok()) {
    log->first_error = "open: " + db.status().ToString();
    return false;
  }
  archive->db = std::move(db).value();
  auto collection = archive->db->CreateCollection("bench");
  if (!collection.ok()) {
    log->first_error = "create collection: " + collection.status().ToString();
    return false;
  }
  archive->collection = collection.value();
  archive->objects.clear();
  archive->next_object = 0;
  Caller caller(archive, oracle, log);
  caller.set_sim_window(true);
  const bool cold = spec.name == "cold_archive";
  for (size_t i = 0; i < spec.initial.size(); ++i) {
    LiveObject object;
    object.spec = spec.initial[i];
    object.model = models[i];
    object.pool = BoxPool(object.spec, cold ? 0.01 : 0.001, cold ? 0.10 : 0.02);
    if (!caller.Insert(&object)) return false;
    archive->objects.push_back(std::move(object));
    if (!caller.Export(archive->objects.back())) return false;
  }
  caller.set_sim_window(false);
  if (spec.warm_cache) {
    for (const LiveObject& object : archive->objects) {
      if (!caller.ReadObject(object)) return false;
    }
  }
  caller.Finish();
  log->stored_per_user = StoredPerUser(*archive);
  *seconds = WallNow() - start;
  return log->failed == 0;
}

PhaseResult RunPhase(const WorkloadSpec& spec, const Config& config, Archive* archive,
                     Oracle* oracle, bool traced) {
  PhaseResult result;
  heaven::HeavenDb* db = archive->db.get();
  std::unique_ptr<ProfileHarvester> harvester;
  if (traced) {
    db->profiler()->Clear();
    db->profiler()->SetEnabled(true);
    harvester = std::make_unique<ProfileHarvester>(db->profiler());
    SpanRecorder::Get().SetEnabled(true);
  }
  std::vector<ClientLog> logs(static_cast<size_t>(spec.clients));
  std::vector<std::unique_ptr<Client>> clients;
  for (int c = 0; c < spec.clients; ++c) {
    clients.push_back(std::make_unique<Client>(spec, archive, oracle,
                                               &logs[static_cast<size_t>(c)], config.seed, c));
  }
  // Without a sim window (reads only) tape usage is set-up's.
  if (spec.sim_steps == 0) logs[0].stored_per_user = StoredPerUser(*archive);
  // A traced run times two phases (untraced, then traced) of half the
  // length each; it reports no read percentiles, so needs no read minimum.
  const double seconds = config.trace ? config.seconds / 2 : config.seconds;
  const uint64_t min_reads =
      config.trace ? 0 : spec.min_reads / static_cast<uint64_t>(spec.clients);
  result.stats_begin = db->stats()->Snapshot();
  const double cpu_start = ProcessCpuNow();
  const double start = WallNow();
  const double deadline = start + seconds;
  // A slow build still ends well inside the run's time limit.
  const double hard_deadline = start + seconds + 45.0;
  if (spec.clients == 1) {
    clients[0]->Run(deadline, hard_deadline, min_reads, harvester.get());
  } else {
    std::vector<std::thread> threads;
    for (auto& client : clients) {
      threads.emplace_back([&, c = client.get()] {
        c->Run(deadline, hard_deadline, min_reads, harvester.get());
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  result.wall_s = WallNow() - start;
  result.process_cpu_s = ProcessCpuNow() - cpu_start;
  result.stats_end = db->stats()->Snapshot();
  if (traced) {
    harvester->Harvest();
    result.profiles = harvester->profiles();
    db->profiler()->SetEnabled(false);
    SpanRecorder::Get().SetEnabled(false);
  }
  for (const ClientLog& log : logs) result.log.Merge(log);
  return result;
}

std::vector<std::pair<std::string, double>> SimSummary(const ClientLog& setup,
                                                       const PhaseResult& phase) {
  const ClientLog& log = phase.log;
  const double export_bytes = setup.sim_export_bytes + log.sim_export_bytes;
  const double export_tape_s = setup.sim_export_tape_s + log.sim_export_tape_s;
  return {
      {"sim_reads", static_cast<double>(log.sim_read_s.size())},
      {"sim_read_sum_s", std::accumulate(log.sim_read_s.begin(), log.sim_read_s.end(), 0.0)},
      {"sim_read_p50_s", Percentile(log.sim_read_s, 50)},
      {"sim_read_p99_s", Percentile(log.sim_read_s, 99)},
      {"sim_export_s_per_mib", export_bytes > 0 ? export_tape_s / (export_bytes / kMiB) : 0.0},
      {"stored_bytes_per_user_byte", log.stored_per_user},
  };
}

}  // namespace perfbench
