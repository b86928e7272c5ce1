#include "layers.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "array/compression.h"
#include "common/coding.h"
#include "heaven/bitmap_index.h"
#include "heaven/cache.h"
#include "heaven/scheduler.h"
#include "heaven/super_tile.h"
#include "rasql/executor.h"
#include "rasql/parser.h"
#include "storage/storage_engine.h"
#include "tertiary/tape_library.h"

namespace perfbench {

using heaven::MdInterval;
using heaven::ProfileStage;
using heaven::Ticker;

namespace {

constexpr double kMiB = 1024.0 * 1024.0;
/// Containers the layer pass reads back (in registry order).
constexpr size_t kMaxContainers = 48;
/// Timed repetitions of each batch; the median rate is reported.
constexpr int kRounds = 3;
constexpr uint64_t kLookupsPerThread = 200000;
constexpr uint64_t kAcquiresPerThread = 200000;
constexpr int kCommits = 200;
constexpr size_t kOverheadBoxes = 64;

std::atomic<uint64_t> g_next_pass_op{1ull << 40};
/// Keeps the results of timed calls observable.
std::atomic<uint32_t> g_sink{0};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median over kRounds of bytes / seconds for `fn`, which returns the
/// bytes it processed.
template <typename Fn>
double MedianMiBPerSecond(const char* span_name, Fn&& fn) {
  std::vector<double> rates;
  for (int round = 0; round < kRounds; ++round) {
    Span span(span_name);
    const double start = WallNow();
    const double bytes = fn();
    rates.push_back(Ratio(bytes / kMiB, WallNow() - start));
  }
  return Percentile(rates, 50);
}

/// Nanoseconds per call of `fn` from two threads at once (mean of both).
template <typename Fn>
double TwoThreadNsPerCall(const char* span_name, uint64_t calls, Fn&& fn) {
  std::vector<double> ns(2, 0.0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      Span span(span_name);
      const double start = WallNow();
      for (uint64_t i = 0; i < calls; ++i) fn(t, i);
      ns[static_cast<size_t>(t)] = (WallNow() - start) * 1e9 / static_cast<double>(calls);
    });
  }
  for (std::thread& thread : threads) thread.join();
  return (ns[0] + ns[1]) / 2.0;
}

const LiveObject* FindObject(const Archive& archive, heaven::ObjectId id) {
  for (const LiveObject& object : archive.objects) {
    if (object.id == id) return &object;
  }
  return nullptr;
}

}  // namespace

std::vector<Metric> LayerMetrics(const WorkloadSpec& spec, Archive* archive,
                                 const ClientLog& setup, const PhaseResult& traced,
                                 double untraced_read_p50_ms, Oracle* oracle,
                                 ClientLog* extra) {
  std::vector<Metric> m;
  auto add = [&m](const char* name, const char* unit, double value) {
    m.push_back({name, value, unit});
  };
  heaven::HeavenDb* db = archive->db.get();
  const ClientLog& log = traced.log;
  const double reads = static_cast<double>(log.reads);
  auto delta = [&](Ticker t) {
    const size_t i = static_cast<size_t>(t);
    return static_cast<double>(traced.stats_end[i] - traced.stats_begin[i]);
  };
  // Since the database opened: the set-up's writes plus the phase's.
  auto life = [&](Ticker t) {
    return static_cast<double>(traced.stats_end[static_cast<size_t>(t)]);
  };
  const double writes = static_cast<double>(setup.writes + log.writes);
  const double exported_mib = (setup.export_bytes + log.export_bytes) / kMiB;
  const double inserted_mib = (setup.insert_bytes + log.insert_bytes) / kMiB;

  // ---- Counters of the traced phase --------------------------------------
  add("tertiary.exchanges_per_read", "1/read",
      Ratio(delta(Ticker::kTapeMediaExchanges), reads));
  add("tertiary.seeks_per_read", "1/read", Ratio(delta(Ticker::kTapeSeeks), reads));
  add("tertiary.read_amplification", "ratio",
      Ratio(delta(Ticker::kTapeBytesRead), static_cast<double>(log.result_bytes)));
  add("super_tile.decoded_per_read", "1/read", Ratio(delta(Ticker::kSuperTilesRead), reads));
  const double hits = delta(Ticker::kCacheHits);
  const double misses = delta(Ticker::kCacheMisses);
  add("cache.hit_ratio", "ratio", Ratio(hits, hits + misses));
  add("cache.evictions_per_read", "1/read", Ratio(delta(Ticker::kCacheEvictions), reads));
  const double pruned_st = delta(Ticker::kIndexPrunedSuperTiles);
  add("index.pruned_supertile_ratio", "ratio", Ratio(pruned_st, pruned_st + hits + misses));
  add("index.pruned_tile_ratio", "ratio",
      Ratio(delta(Ticker::kIndexPrunedTiles), delta(Ticker::kIndexLookups)));
  add("scheduler.requests_per_batch", "1/batch",
      Ratio(delta(Ticker::kSchedRequests), delta(Ticker::kSchedBatches)));
  add("snapshot.published_per_write", "1/write",
      Ratio(life(Ticker::kSnapshotsPublished), writes));
  add("snapshot.conflicts", "count", delta(Ticker::kSnapshotConflicts));
  const double pre_hits = delta(Ticker::kPrecomputedHits);
  add("precomputed.hit_ratio", "ratio",
      Ratio(pre_hits, pre_hits + delta(Ticker::kPrecomputedMisses)));
  add("export.supertiles_per_mib", "1/MiB",
      Ratio(life(Ticker::kSuperTilesWritten), exported_mib));
  add("storage.wal_syncs_per_write", "1/write", Ratio(life(Ticker::kWalSyncs), writes));
  add("storage.page_writes_per_mib", "1/MiB",
      Ratio(life(Ticker::kDiskPageWrites), inserted_mib));
  add("sim_read_p50_s", "s", Percentile(log.sim_read_s, 50));
  add("sim_read_p99_s", "s", Percentile(log.sim_read_s, 99));

  // ---- QueryProfiler stages of the traced phase ----------------------------
  std::vector<heaven::ProfileStageData> stages(
      static_cast<size_t>(ProfileStage::kNumStages));
  for (const heaven::QueryProfile& profile : traced.profiles) {
    for (size_t s = 0; s < stages.size(); ++s) {
      stages[s].wall_seconds += profile.stages[s].wall_seconds;
      stages[s].sim_seconds += profile.stages[s].sim_seconds;
    }
  }
  auto wall = [&](ProfileStage s, double scale) {
    return Ratio(stages[static_cast<size_t>(s)].wall_seconds * scale, reads);
  };
  add("profile.decode_ms_per_read", "ms", wall(ProfileStage::kDecode, 1e3));
  add("profile.schedule_us_per_read", "us", wall(ProfileStage::kSchedule, 1e6));
  add("profile.tape_fetch_sim_s_per_read", "s",
      Ratio(stages[static_cast<size_t>(ProfileStage::kTapeFetch)].sim_seconds, reads));
  add("profile.scatter_ms_per_read", "ms", wall(ProfileStage::kScatter, 1e3));
  add("profile.index_lookup_us_per_read", "us", wall(ProfileStage::kIndexLookup, 1e6));
  add("profile.snapshot_acquire_us_per_read", "us", wall(ProfileStage::kSnapshotAcquire, 1e6));
  add("profile.parse_plan_us_per_read", "us", wall(ProfileStage::kParsePlan, 1e6));
  add("trace.overhead_ratio", "ratio",
      Ratio(Percentile(log.read_ms, 50), untraced_read_p50_ms));

  // ---- Layer pass: each layer's public functions on the workload's data ---
  SpanRecorder::Get().SetEnabled(true);
  Span pass("layer_pass", g_next_pass_op.fetch_add(1));

  std::vector<heaven::SuperTileMeta> registry = db->RegistrySnapshot();
  std::sort(registry.begin(), registry.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  if (registry.size() > kMaxContainers) registry.resize(kMaxContainers);
  std::vector<std::string> containers;
  std::vector<const heaven::SuperTileMeta*> container_meta;
  for (const heaven::SuperTileMeta& meta : registry) {
    std::string container;
    if (db->library()->ReadAt(meta.medium, meta.offset, meta.size_bytes, &container).ok()) {
      containers.push_back(std::move(container));
      container_meta.push_back(&meta);
    }
  }

  // tertiary: Append into a fresh library with the same options, ReadAt back.
  heaven::Statistics scratch_stats;
  add("tertiary.append_mib_per_s", "MiB/s", MedianMiBPerSecond("tertiary.append", [&] {
        heaven::TapeLibrary library(spec.options.library, &scratch_stats);
        double bytes = 0;
        for (size_t i = 0; i < containers.size(); ++i) {
          if (library.Append(container_meta[i]->medium, containers[i]).ok()) {
            bytes += static_cast<double>(containers[i].size());
          }
        }
        return bytes;
      }));
  {
    heaven::TapeLibrary library(spec.options.library, &scratch_stats);
    std::vector<uint64_t> offsets;
    for (size_t i = 0; i < containers.size(); ++i) {
      auto offset = library.Append(container_meta[i]->medium, containers[i]);
      offsets.push_back(offset.ok() ? offset.value() : 0);
    }
    add("tertiary.read_at_mib_per_s", "MiB/s", MedianMiBPerSecond("tertiary.read_at", [&] {
          double bytes = 0;
          std::string out;
          for (size_t i = 0; i < containers.size(); ++i) {
            if (library.ReadAt(container_meta[i]->medium, offsets[i], containers[i].size(), &out)
                    .ok()) {
              bytes += static_cast<double>(out.size());
            }
          }
          return bytes;
        }));
  }

  // common: CRC32C over the containers.
  uint32_t sink = 0;
  add("common.crc32c_mib_per_s", "MiB/s", MedianMiBPerSecond("common.crc32c", [&] {
        double bytes = 0;
        for (const std::string& container : containers) {
          sink ^= heaven::Crc32c(container);
          bytes += static_cast<double>(container.size());
        }
        return bytes;
      }));

  // super_tile: Deserialize the containers; Serialize with the workload's codec.
  std::vector<heaven::SuperTile> decoded;
  std::vector<const heaven::SuperTileMeta*> decoded_meta;
  add("super_tile.deserialize_mib_per_s", "MiB/s",
      MedianMiBPerSecond("super_tile.deserialize", [&] {
        decoded.clear();
        decoded_meta.clear();
        double bytes = 0;
        for (size_t i = 0; i < containers.size(); ++i) {
          auto st = heaven::SuperTile::Deserialize(containers[i]);
          if (!st.ok()) continue;
          bytes += static_cast<double>(st->PayloadBytes());
          decoded.push_back(std::move(st).value());
          decoded_meta.push_back(container_meta[i]);
        }
        return bytes;
      }));
  add("super_tile.serialize_mib_per_s", "MiB/s",
      MedianMiBPerSecond("super_tile.serialize", [&] {
        double bytes = 0;
        for (const heaven::SuperTile& st : decoded) {
          sink ^= static_cast<uint32_t>(st.Serialize(spec.options.compression).size());
          bytes += static_cast<double>(st.PayloadBytes());
        }
        return bytes;
      }));

  // array: Decompress(kDeltaRle) of the member tiles; CopyRegionFrom into
  // the workload's boxes.
  std::vector<std::pair<std::string, size_t>> compressed;
  for (const heaven::SuperTile& st : decoded) {
    for (const heaven::Tile& tile : st.tiles()) {
      compressed.emplace_back(
          heaven::Compress(heaven::Compression::kDeltaRle, tile.data(), tile.cell_size()),
          tile.data().size());
    }
  }
  add("array.decompress_mib_per_s", "MiB/s", MedianMiBPerSecond("array.decompress", [&] {
        double bytes = 0;
        for (const auto& [data, size] : compressed) {
          auto out =
              heaven::Decompress(heaven::Compression::kDeltaRle, data, size, sizeof(float));
          if (out.ok()) bytes += static_cast<double>(out->size());
        }
        return bytes;
      }));
  std::vector<std::pair<const LiveObject*, MdInterval>> boxes;
  for (const auto& [id, box] : log.boxes) {
    if (const LiveObject* object = FindObject(*archive, id)) boxes.emplace_back(object, box);
  }
  add("array.copy_region_mib_per_s", "MiB/s", MedianMiBPerSecond("array.copy_region", [&] {
        double bytes = 0;
        for (const auto& [object, box] : boxes) {
          heaven::Tile dest(box, heaven::CellType::kFloat);
          if (dest.CopyRegionFrom(object->model->tile(), box).ok()) {
            bytes += static_cast<double>(dest.size_bytes());
          }
        }
        return bytes;
      }));

  // bitmap_index: BuildFrom over the decoded super-tiles.
  {
    Span span("bitmap_index.build");
    const double start = WallNow();
    for (const heaven::SuperTile& st : decoded) {
      sink ^= static_cast<uint32_t>(heaven::SuperTileIndex::BuildFrom(st).nonzero_cells());
    }
    add("index.build_us_per_supertile", "us",
        Ratio((WallNow() - start) * 1e6, static_cast<double>(decoded.size())));
  }

  // cache: Lookup from two threads on a cache built with the same options.
  {
    heaven::SuperTileCache cache(spec.options.cache, &scratch_stats);
    std::vector<heaven::SuperTileId> ids;
    for (size_t i = 0; i < decoded.size(); ++i) {
      cache.Insert(decoded_meta[i]->id, std::make_shared<const heaven::SuperTile>(decoded[i]),
                   decoded_meta[i]->size_bytes);
      ids.push_back(decoded_meta[i]->id);
    }
    if (ids.empty()) ids.push_back(1);
    add("cache.lookup_ns", "ns",
        TwoThreadNsPerCall("cache.lookup", kLookupsPerThread, [&](int t, uint64_t i) {
          (void)cache.Lookup(ids[(i * 7 + static_cast<uint64_t>(t)) % ids.size()]);
        }));
  }

  // scheduler: ScheduleRequests over each box's super-tiles from the registry.
  {
    const std::vector<heaven::SuperTileMeta> all = db->RegistrySnapshot();
    std::vector<std::vector<heaven::SuperTileRequest>> batches;
    for (const auto& [object, box] : boxes) {
      std::vector<heaven::SuperTileRequest> requests;
      for (const heaven::SuperTileMeta& meta : all) {
        if (meta.object_id == object->id && meta.hull.Intersects(box)) {
          requests.push_back({meta.id, meta.medium, meta.offset, meta.size_bytes, meta.crc32c});
        }
      }
      if (!requests.empty()) batches.push_back(std::move(requests));
    }
    Span span("scheduler.schedule");
    const double start = WallNow();
    for (const auto& requests : batches) {
      sink ^= static_cast<uint32_t>(
          heaven::ScheduleRequests(requests, *db->library(), spec.options.schedule_policy)
              .size());
    }
    add("scheduler.schedule_us_per_batch", "us",
        Ratio((WallNow() - start) * 1e6, static_cast<double>(batches.size())));
  }

  // db_snapshot: AcquireReadSnapshot from two threads.
  add("snapshot.acquire_ns", "ns",
      TwoThreadNsPerCall("db_snapshot.acquire", kAcquiresPerThread,
                         [&](int, uint64_t) { (void)db->AcquireReadSnapshot(); }));

  // storage: Transaction::Commit of a tile-sized blob on a separate engine.
  {
    heaven::MemEnv env;
    auto engine =
        heaven::StorageEngine::Open(&env, "/commit", spec.options.storage, &scratch_stats);
    std::vector<double> us;
    if (engine.ok()) {
      const std::string blob(spec.options.disk_tile_bytes, 'x');
      Span span("storage.commit");
      for (int i = 0; i < kCommits; ++i) {
        std::unique_ptr<heaven::Transaction> txn = engine.value()->Begin();
        txn->PutBlob(engine.value()->blobs()->NextBlobId(), blob);
        const double start = WallNow();
        const heaven::Status status = txn->Commit();
        us.push_back((WallNow() - start) * 1e6);
        ++extra->attempted;
        if (!status.ok()) ++extra->failed;
      }
    } else {
      ++extra->failed;
    }
    add("storage.commit_us", "us", Percentile(us, 50));
  }

  // rasql: Parse the workload's statements; ExecuteString against the
  // direct HeavenDb call for the same box.
  std::vector<std::string> statements = log.statements;
  if (statements.empty()) {
    for (const auto& [object, box] : boxes) {
      const std::string target = object->spec.name + box.ToString();
      statements.push_back("select " + target + " from bench");
      statements.push_back("select avg_cells(" + target + ") from bench");
    }
  }
  {
    std::vector<double> us;
    Span span("rasql.parse");
    for (int round = 0; round < kRounds; ++round) {
      for (const std::string& statement : statements) {
        const double start = WallNow();
        auto query = heaven::rasql::Parse(statement);
        us.push_back((WallNow() - start) * 1e6);
        if (!query.ok()) ++extra->failed;
        ++extra->attempted;
      }
    }
    add("rasql.parse_us", "us", Percentile(us, 50));
  }
  {
    std::vector<double> diff_us;
    Span span("rasql.overhead");
    for (size_t i = 0; i < boxes.size() && i < kOverheadBoxes; ++i) {
      const auto& [object, box] = boxes[i];
      const std::string statement = "select " + object->spec.name + box.ToString() + " from bench";
      (void)db->ReadRegion(object->id, box);  // brings the box's super-tiles in
      for (int round = 0; round < kRounds; ++round) {
        const double t0 = WallNow();
        auto direct = db->ReadRegion(object->id, box);
        const double t1 = WallNow();
        auto via_rasql = heaven::rasql::ExecuteString(db, statement);
        const double t2 = WallNow();
        extra->attempted += 2;
        const bool ok = direct.ok() && via_rasql.ok() && !via_rasql->is_scalar() &&
                        oracle->CheckArray(*object->model, box, *direct) &&
                        oracle->CheckArray(*object->model, box, via_rasql->array());
        if (!ok) {
          ++extra->failed;
          if (extra->first_error.empty()) extra->first_error = "rasql overhead pass: " + statement;
          continue;
        }
        diff_us.push_back(((t2 - t1) - (t1 - t0)) * 1e6);
      }
    }
    add("rasql.overhead_us", "us", Percentile(diff_us, 50));
  }
  g_sink.store(sink, std::memory_order_relaxed);
  SpanRecorder::Get().SetEnabled(false);
  const double attempted = static_cast<double>(log.attempted + extra->attempted);
  add("error_rate", "ratio",
      Ratio(static_cast<double>(log.failed + extra->failed), attempted));
  return m;
}

}  // namespace perfbench
