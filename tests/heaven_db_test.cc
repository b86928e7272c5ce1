#include "heaven/heaven_db.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>

#include "common/env.h"
#include "common/logging.h"

namespace heaven {
namespace {

MddArray Ramp(const MdInterval& domain, CellType type = CellType::kFloat) {
  MddArray data(domain, type);
  data.Generate([](const MdPoint& p) {
    double v = 0.0;
    for (size_t d = 0; d < p.dims(); ++d) {
      v = v * 100.0 + static_cast<double>(p[d] % 50);
    }
    return v;
  });
  return data;
}

class HeavenDbTest : public ::testing::Test {
 protected:
  void OpenDb(std::function<void(HeavenOptions*)> tweak = nullptr) {
    db_.reset();
    HeavenOptions options;
    options.library.profile = MidTapeProfile();
    options.library.num_drives = 2;
    options.library.num_media = 8;
    options.disk_tile_bytes = 2048;
    options.supertile_bytes = 16 << 10;
    if (tweak) tweak(&options);
    auto db = HeavenDb::Open(env_.get(), "/db", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(db).value();
  }

  void SetUp() override {
    env_ = std::make_unique<MemEnv>();
    OpenDb();
    auto coll = db_->CreateCollection("c");
    ASSERT_TRUE(coll.ok());
    collection_ = coll.value();
  }

  ObjectId Insert(const std::string& name, const MdInterval& domain) {
    auto id = db_->InsertObject(collection_, name, Ramp(domain));
    HEAVEN_CHECK(id.ok()) << id.status().ToString();
    return id.value();
  }

  std::unique_ptr<MemEnv> env_;
  std::unique_ptr<HeavenDb> db_;
  CollectionId collection_ = 0;
};

TEST_F(HeavenDbTest, DuplicateCollectionRejected) {
  EXPECT_FALSE(db_->CreateCollection("c").ok());
}

TEST_F(HeavenDbTest, DuplicateObjectNameRejected) {
  Insert("a", MdInterval({0, 0}, {9, 9}));
  auto dup = db_->InsertObject(collection_, "a", Ramp(MdInterval({0}, {9})));
  EXPECT_FALSE(dup.ok());
}

TEST_F(HeavenDbTest, InsertChargesClientDiskTime) {
  EXPECT_EQ(db_->ClientSeconds(), 0.0);
  Insert("a", MdInterval({0, 0}, {49, 49}));
  EXPECT_GT(db_->ClientSeconds(), 0.0);
  EXPECT_EQ(db_->TapeSeconds(), 0.0);  // nothing on tape yet
}

TEST_F(HeavenDbTest, ExportMovesAllTilesToTertiary) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {49, 49}));
  const size_t blobs_before = db_->engine()->blobs()->NumBlobs();
  EXPECT_GT(blobs_before, 0u);
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_EQ(db_->engine()->blobs()->NumBlobs(), 0u);  // disk blobs gone
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  EXPECT_GT(db_->TapeSeconds(), 0.0);
}

TEST_F(HeavenDbTest, ExportIsIdempotent) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const size_t supertiles = db_->RegisteredSuperTiles();
  ASSERT_TRUE(db_->ExportObject(id).ok());  // nothing left to export
  EXPECT_EQ(db_->RegisteredSuperTiles(), supertiles);
}

TEST_F(HeavenDbTest, ReadSpansDiskAndTape) {
  // Two objects: one on disk, one on tape; both readable transparently.
  ObjectId disk_obj = Insert("disk", MdInterval({0, 0}, {19, 19}));
  ObjectId tape_obj = Insert("tape", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(tape_obj).ok());
  auto a = db_->ReadObject(disk_obj);
  auto b = db_->ReadObject(tape_obj);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value(), b.value());  // same ramp
}

TEST_F(HeavenDbTest, CacheServesRepeatedReads) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MdInterval region({0, 0}, {9, 9});
  ASSERT_TRUE(db_->ReadRegion(id, region).ok());
  const double tape_after_first = db_->TapeSeconds();
  const uint64_t st_reads = db_->stats()->Get(Ticker::kSuperTilesRead);
  ASSERT_TRUE(db_->ReadRegion(id, region).ok());
  EXPECT_EQ(db_->TapeSeconds(), tape_after_first);  // no new tape work
  EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead), st_reads);
  EXPECT_GT(db_->stats()->Get(Ticker::kCacheHits), 0u);
}

TEST_F(HeavenDbTest, StatePersistsAcrossReopen) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  OpenDb();  // reopen over the same MemEnv

  // Catalog + super-tile registry rehydrate from the storage engine...
  auto object = db_->FindObject("a");
  ASSERT_TRUE(object.ok());
  EXPECT_EQ(object->object_id, id);
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kTertiary);
  }
  // ...and the cartridges themselves reload from their backing files, so
  // the archived data is fully readable after the reopen.
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), expected);
}

TEST_F(HeavenDbTest, MixedStateSurvivesReopen) {
  ObjectId tape_obj = Insert("t", MdInterval({0, 0}, {19, 19}));
  ObjectId disk_obj = Insert("d", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(tape_obj).ok());
  OpenDb();
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  auto a = db_->ReadObject(tape_obj);
  auto b = db_->ReadObject(disk_obj);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(a.value(), expected);
  EXPECT_EQ(b.value(), expected);
  // And the archive keeps working after reopen: export the disk object.
  ASSERT_TRUE(db_->ExportObject(disk_obj).ok());
  auto again = db_->ReadObject(disk_obj);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), expected);
}

TEST_F(HeavenDbTest, ReimportBringsTilesBackToDisk) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  MddArray original = Ramp(MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->ReimportObject(id).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), original);
}

TEST_F(HeavenDbTest, ReimportOfDiskObjectIsNoOp) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  EXPECT_TRUE(db_->ReimportObject(id).ok());
}

TEST_F(HeavenDbTest, DeleteRemovesEverything) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  ASSERT_TRUE(db_->Aggregate(id, Condenser::kAvg,
                             MdInterval({0, 0}, {19, 19}))
                  .ok());
  ASSERT_TRUE(db_->DeleteObject(id).ok());
  EXPECT_FALSE(db_->ReadObject(id).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_EQ(db_->precomputed()->size(), 0u);
  EXPECT_FALSE(db_->FindObject("a").ok());
}

TEST_F(HeavenDbTest, AggregateUsesPrecomputedCatalog) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MdInterval region({0, 0}, {19, 19});
  auto first = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(first.ok());
  const double tape_after_first = db_->TapeSeconds();
  // Clear the cache so a recomputation would hit tape.
  db_->cache()->Clear();
  auto second = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(db_->TapeSeconds(), tape_after_first);  // served from catalog
  EXPECT_GT(db_->stats()->Get(Ticker::kPrecomputedHits), 0u);
}

TEST_F(HeavenDbTest, PrecomputedDisabledRecomputes) {
  OpenDb([](HeavenOptions* options) { options->enable_precomputed = false; });
  auto coll = db_->CreateCollection("c2");
  ASSERT_TRUE(coll.ok());
  auto id = db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {9, 9})));
  ASSERT_TRUE(id.ok());
  MdInterval region({0, 0}, {9, 9});
  ASSERT_TRUE(db_->Aggregate(*id, Condenser::kSum, region).ok());
  ASSERT_TRUE(db_->Aggregate(*id, Condenser::kSum, region).ok());
  EXPECT_EQ(db_->precomputed()->size(), 0u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrecomputedHits), 0u);
}

TEST_F(HeavenDbTest, DecoupledExportKeepsClientClockFlat) {
  OpenDb([](HeavenOptions* options) { options->decoupled_export = true; });
  auto coll = db_->CreateCollection("c3");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {49, 49})));
  ASSERT_TRUE(id.ok());
  const double client_before = db_->ClientSeconds();
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  // Handoff is free for the client.
  EXPECT_EQ(db_->ClientSeconds(), client_before);
  ASSERT_TRUE(db_->DrainExports().ok());
  EXPECT_EQ(db_->ClientSeconds(), client_before);  // TCT did the tape work
  EXPECT_GT(db_->TapeSeconds(), 0.0);
  // Data still correct.
  auto read = db_->ReadObject(*id);
  ASSERT_TRUE(read.ok());
}

TEST_F(HeavenDbTest, SynchronousExportChargesClient) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {49, 49}));
  const double client_before = db_->ClientSeconds();
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_GT(db_->ClientSeconds(), client_before);
}

TEST_F(HeavenDbTest, TileAtATimeBaselineUsesManySuperTiles) {
  ObjectId a = Insert("a", MdInterval({0, 0}, {29, 29}));
  ObjectId b = Insert("b", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObjectTileAtATime(a).ok());
  const size_t baseline_sts = db_->RegisteredSuperTiles();
  ASSERT_TRUE(db_->ExportObject(b).ok());
  const size_t heaven_sts = db_->RegisteredSuperTiles() - baseline_sts;
  // Tile-at-a-time creates one container per tile; STAR groups them.
  EXPECT_GT(baseline_sts, heaven_sts);
  // Both stay readable.
  EXPECT_TRUE(db_->ReadObject(a).ok());
  EXPECT_TRUE(db_->ReadObject(b).ok());
}

TEST_F(HeavenDbTest, ReadRegionsBatchesSuperTileFetches) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  std::vector<std::pair<ObjectId, MdInterval>> queries = {
      {id, MdInterval({0, 0}, {9, 9})},
      {id, MdInterval({30, 30}, {39, 39})},
      {id, MdInterval({10, 10}, {19, 19})},
  };
  auto results = db_->ReadRegions(queries);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  MddArray full = Ramp(MdInterval({0, 0}, {39, 39}));
  for (size_t i = 0; i < queries.size(); ++i) {
    auto expected = Trim(full, queries[i].second);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*results)[i], *expected) << i;
  }

  // A larger batch of overlapping boxes: each distinct super-tile any box
  // needs is fetched exactly once.
  const MdInterval big_domain({0, 0}, {159, 159});
  ObjectId big = Insert("b", big_domain);
  ASSERT_TRUE(db_->ExportObject(big).ok());
  std::vector<std::pair<ObjectId, MdInterval>> batch;
  for (int64_t i = 0; i < 12; ++i) {
    batch.push_back({big, MdInterval({i * 10, 150 - i * 12},
                                     {i * 10 + 39, 159 - i * 10})});
  }
  const std::vector<TileDescriptor> tiles =
      db_->engine()->catalog()->ListTiles(big);
  std::set<SuperTileId> distinct;
  size_t per_box_sum = 0;  // super-tiles needed, counted once per box
  for (const auto& [object_id, box] : batch) {
    std::set<SuperTileId> needed;
    for (const TileDescriptor& tile : tiles) {
      if (tile.domain.Intersection(box).has_value()) {
        needed.insert(tile.super_tile);
      }
    }
    per_box_sum += needed.size();
    distinct.insert(needed.begin(), needed.end());
  }
  ASSERT_GT(distinct.size(), 2u);
  ASSERT_GT(per_box_sum, distinct.size()) << "the boxes must share super-tiles";
  const uint64_t reads_before = db_->stats()->Get(Ticker::kSuperTilesRead);
  auto batch_results = db_->ReadRegions(batch);
  ASSERT_TRUE(batch_results.ok()) << batch_results.status().ToString();
  EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead) - reads_before,
            distinct.size());
  MddArray big_full = Ramp(big_domain);
  for (size_t i = 0; i < batch.size(); ++i) {
    auto expected = Trim(big_full, batch[i].second);
    ASSERT_TRUE(expected.ok());
    EXPECT_EQ((*batch_results)[i], *expected) << i;
  }
}

TEST_F(HeavenDbTest, ReadRegionsRejectsBadBoxBeforeAnyFetch) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const double tape_before = db_->TapeSeconds();
  const uint64_t reads_before = db_->stats()->Get(Ticker::kSuperTilesRead);
  auto results = db_->ReadRegions({{id, MdInterval({0, 0}, {19, 19})},
                                   {id, MdInterval({30, 30}, {45, 45})}});
  ASSERT_FALSE(results.ok());
  EXPECT_EQ(results.status().code(), StatusCode::kOutOfRange);
  // The bad box is caught by the plan, before any super-tile transfer.
  EXPECT_EQ(db_->TapeSeconds(), tape_before);
  EXPECT_EQ(db_->stats()->Get(Ticker::kSuperTilesRead), reads_before);
}

TEST_F(HeavenDbTest, QuerySecondsRecordedOncePerClientQuery) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  const MdInterval box({5, 5}, {24, 24});
  ASSERT_TRUE(db_->ReadRegion(id, box).ok());
  ASSERT_TRUE(
      db_->ReadRegions({{id, box}, {id, MdInterval({0, 0}, {9, 9})}}).ok());
  auto frame = ObjectFrame::FromBoxes(
      {MdInterval({0, 0}, {9, 9}), MdInterval({20, 20}, {29, 29})});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(db_->ReadFrame(id, *frame).ok());
  CellPredicate pred;
  pred.cmp = CompareOp::kGt;
  pred.value = 100.0;
  ASSERT_TRUE(db_->EvaluateQuantifier(id, box, pred, false).ok());
  ASSERT_TRUE(db_->Aggregate(id, Condenser::kSum, box).ok());  // miss
  ASSERT_TRUE(db_->Aggregate(id, Condenser::kSum, box).ok());  // hit
  EXPECT_EQ(db_->stats()->Get(Ticker::kPrecomputedHits), 1u);
  EXPECT_EQ(db_->stats()->Get(Ticker::kQueriesExecuted), 7u);
  EXPECT_EQ(db_->stats()->histogram(HistogramKind::kQuerySeconds).count(),
            db_->stats()->Get(Ticker::kQueriesExecuted));
}

TEST_F(HeavenDbTest, PrefetchPopulatesCache) {
  OpenDb([](HeavenOptions* options) {
    options->enable_prefetch = true;
    options->prefetch_depth = 2;
  });
  auto coll = db_->CreateCollection("c4");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {49, 49})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  ASSERT_TRUE(db_->ReadRegion(*id, MdInterval({0, 0}, {4, 4})).ok());
  EXPECT_GT(db_->stats()->Get(Ticker::kPrefetchIssued), 0u);
}

TEST_F(HeavenDbTest, EStarPartitionerExportWorks) {
  OpenDb([](HeavenOptions* options) {
    options->partitioner = PartitionerKind::kEStar;
  });
  auto coll = db_->CreateCollection("c5");
  ASSERT_TRUE(coll.ok());
  MddArray data = Ramp(MdInterval({0, 0}, {29, 29}));
  auto id = db_->InsertObject(*coll, "a", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  auto read = db_->ReadObject(*id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), data);
}

TEST_F(HeavenDbTest, ReadRegionValidation) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  EXPECT_FALSE(db_->ReadRegion(id, MdInterval({0, 0}, {10, 10})).ok());
  EXPECT_FALSE(db_->ReadRegion(9999, MdInterval({0, 0}, {1, 1})).ok());
}

TEST_F(HeavenDbTest, FrameReadOutsideDomainRejected) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  auto frame = ObjectFrame::FromBoxes({MdInterval({5, 5}, {15, 15})});
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(db_->ReadFrame(id, *frame).ok());
}

TEST_F(HeavenDbTest, FrameReadTouchesFewerSuperTilesThanHull) {
  OpenDb([](HeavenOptions* options) {
    options->disk_tile_bytes = 1024;
    options->supertile_bytes = 2048;
  });
  auto coll = db_->CreateCollection("c6");
  ASSERT_TRUE(coll.ok());
  auto id =
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {63, 63})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  // Two opposite corners; the hull is the whole object.
  auto frame = ObjectFrame::FromBoxes(
      {MdInterval({0, 0}, {7, 7}), MdInterval({56, 56}, {63, 63})});
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(db_->ReadFrame(*id, *frame).ok());
  const uint64_t frame_sts = db_->stats()->Get(Ticker::kSuperTilesRead);

  db_->cache()->Clear();
  db_->stats()->Reset();
  ASSERT_TRUE(db_->ReadRegion(*id, MdInterval({0, 0}, {63, 63})).ok());
  const uint64_t hull_sts = db_->stats()->Get(Ticker::kSuperTilesRead);
  EXPECT_LT(frame_sts, hull_sts);
}

// What one read sequence leaves behind: its results and the clocks and
// counters it ends with.
struct ReadOutcome {
  std::vector<MddArray> results;
  double tape_seconds = 0.0;
  double client_seconds = 0.0;
  std::vector<uint64_t> tickers;
};

// Runs `reads` against a fresh database with `num_threads` workers holding
// one exported 160x160 float object.
ReadOutcome RunReads(size_t num_threads, uint64_t cache_bytes,
                     const std::function<void(HeavenDb*, ObjectId,
                                              std::vector<MddArray>*)>& reads) {
  MemEnv env;
  HeavenOptions options;
  options.library.profile = MidTapeProfile();
  options.library.num_drives = 2;
  options.library.num_media = 8;
  options.disk_tile_bytes = 2048;
  options.supertile_bytes = 16 << 10;
  options.compression = Compression::kDeltaRle;
  options.cache.capacity_bytes = cache_bytes;
  options.num_threads = num_threads;
  auto db = HeavenDb::Open(&env, "/db", options);
  HEAVEN_CHECK(db.ok()) << db.status().ToString();
  auto coll = (*db)->CreateCollection("c");
  HEAVEN_CHECK(coll.ok());
  auto id =
      (*db)->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {159, 159})));
  HEAVEN_CHECK(id.ok());
  HEAVEN_CHECK((*db)->ExportObject(*id).ok());
  ReadOutcome outcome;
  reads(db->get(), *id, &outcome.results);
  outcome.tape_seconds = (*db)->TapeSeconds();
  outcome.client_seconds = (*db)->ClientSeconds();
  outcome.tickers = (*db)->stats()->Snapshot();
  return outcome;
}

TEST(HeavenDbPoolTest, FrameReadWithPoolMatchesSerial) {
  auto frame = ObjectFrame::FromBoxes({MdInterval({0, 0}, {30, 70}),
                                       MdInterval({20, 60}, {120, 90}),
                                       MdInterval({100, 100}, {159, 159})});
  ASSERT_TRUE(frame.ok());
  auto reads = [&](HeavenDb* db, ObjectId id, std::vector<MddArray>* out) {
    auto read = db->ReadFrame(id, *frame);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    out->push_back(std::move(read).value());
  };
  const ReadOutcome serial = RunReads(1, 1ull << 30, reads);
  const ReadOutcome pooled = RunReads(4, 1ull << 30, reads);
  ASSERT_EQ(serial.results.size(), 1u);
  ASSERT_EQ(pooled.results.size(), 1u);
  EXPECT_EQ(serial.results[0], pooled.results[0]);
  EXPECT_EQ(serial.tape_seconds, pooled.tape_seconds);
  EXPECT_EQ(serial.client_seconds, pooled.client_seconds);
  EXPECT_EQ(serial.tickers, pooled.tickers);
}

// Under eviction the cache's admission order decides later hits and
// misses, so it must not depend on which worker finishes decoding first.
TEST(HeavenDbPoolTest, EvictingReadSequenceIsIndependentOfThreads) {
  auto reads = [](HeavenDb* db, ObjectId id, std::vector<MddArray>* out) {
    for (int64_t i = 0; i < 48; ++i) {
      const int64_t lo = (i * 37) % 100;
      const int64_t hi = (i * 53) % 80;
      auto read = db->ReadRegion(
          id, MdInterval({lo, hi}, {lo + 59, hi + 79}));
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      out->push_back(std::move(read).value());
    }
  };
  // A few super-tiles' worth of cache against a working set of the whole
  // object.
  const ReadOutcome serial = RunReads(1, 48 << 10, reads);
  const ReadOutcome pooled = RunReads(4, 48 << 10, reads);
  ASSERT_GT(serial.tickers[static_cast<size_t>(Ticker::kCacheEvictions)], 0u);
  EXPECT_EQ(serial.results, pooled.results);
  EXPECT_EQ(serial.tape_seconds, pooled.tape_seconds);
  EXPECT_EQ(serial.client_seconds, pooled.client_seconds);
  EXPECT_EQ(serial.tickers[static_cast<size_t>(Ticker::kSuperTilesRead)],
            pooled.tickers[static_cast<size_t>(Ticker::kSuperTilesRead)]);
}

TEST_F(HeavenDbTest, UpdateRegionOnDiskObject) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  MddArray patch(MdInterval({5, 5}, {8, 8}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 7.5; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->At(MdPoint{6, 6}), 7.5);
  // Cells outside the patch are untouched.
  MddArray original = Ramp(MdInterval({0, 0}, {19, 19}));
  EXPECT_EQ(read->At(MdPoint{0, 0}), original.At(MdPoint{0, 0}));
  EXPECT_EQ(read->At(MdPoint{15, 15}), original.At(MdPoint{15, 15}));
}

TEST_F(HeavenDbTest, UpdateRegionOnTapeObjectReimportsTiles) {
  // 40x40 floats -> several 2 KiB tiles, so the patch hits only some.
  ObjectId id = Insert("a", MdInterval({0, 0}, {39, 39}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  MddArray patch(MdInterval({0, 0}, {3, 3}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return -1.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  // The patched tiles moved back to disk; others stay on tape.
  bool any_disk = false;
  bool any_tape = false;
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    if (tile.location == TileLocation::kDisk) any_disk = true;
    if (tile.location == TileLocation::kTertiary) any_tape = true;
  }
  EXPECT_TRUE(any_disk);
  EXPECT_TRUE(any_tape);
  auto read = db_->ReadObject(id);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->At(MdPoint{1, 1}), -1.0);
  MddArray original = Ramp(MdInterval({0, 0}, {39, 39}));
  EXPECT_EQ(read->At(MdPoint{30, 30}), original.At(MdPoint{30, 30}));
  // The object can be migrated again after the update.
  ASSERT_TRUE(db_->ExportObject(id).ok());
  auto after = db_->ReadObject(id);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), read.value());
}

TEST_F(HeavenDbTest, UpdateRegionInvalidatesPrecomputed) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  MdInterval region({0, 0}, {9, 9});
  auto before = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(before.ok());
  MddArray patch(region, CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 42.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  auto after = db_->Aggregate(id, Condenser::kAvg, region);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(*after, 42.0);
  EXPECT_NE(*before, *after);
}

TEST_F(HeavenDbTest, UpdateRegionValidation) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {9, 9}));
  MddArray outside(MdInterval({5, 5}, {12, 12}), CellType::kFloat);
  EXPECT_FALSE(db_->UpdateRegion(id, outside).ok());
  MddArray wrong_type(MdInterval({0, 0}, {3, 3}), CellType::kDouble);
  EXPECT_FALSE(db_->UpdateRegion(id, wrong_type).ok());
  EXPECT_FALSE(db_->UpdateRegion(9999, wrong_type).ok());
}

TEST_F(HeavenDbTest, WholeObjectUpdateOnTapeDropsAllSuperTiles) {
  ObjectId id = Insert("a", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  MddArray patch(MdInterval({0, 0}, {19, 19}), CellType::kFloat);
  patch.Generate([](const MdPoint&) { return 3.0; });
  ASSERT_TRUE(db_->UpdateRegion(id, patch).ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
}


TEST_F(HeavenDbTest, MigrationPolicyDisabledByDefault) {
  Insert("a", MdInterval({0, 0}, {39, 39}));
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);
  EXPECT_GT(db_->engine()->blobs()->TotalBytes(), 0u);
}

TEST_F(HeavenDbTest, MigrationPolicyMigratesOldestFirst) {
  // Each 40x40 float object is 6.4 KB; watermarks force migration after
  // the second insert.
  OpenDb([](HeavenOptions* options) {
    options->migrate_high_watermark_bytes = 10 << 10;
    options->migrate_low_watermark_bytes = 7 << 10;
  });
  auto coll = db_->CreateCollection("cm");
  ASSERT_TRUE(coll.ok());
  auto a = db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39})));
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(db_->RegisteredSuperTiles(), 0u);  // below watermark
  auto b = db_->InsertObject(*coll, "b", Ramp(MdInterval({0, 0}, {39, 39})));
  ASSERT_TRUE(b.ok());
  // The oldest object (a) was migrated; b stays on disk.
  bool a_on_tape = true;
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(*a)) {
    if (tile.location != TileLocation::kTertiary) a_on_tape = false;
  }
  bool b_on_disk = true;
  for (const TileDescriptor& tile : db_->engine()->catalog()->ListTiles(*b)) {
    if (tile.location != TileLocation::kDisk) b_on_disk = false;
  }
  EXPECT_TRUE(a_on_tape);
  EXPECT_TRUE(b_on_disk);
  EXPECT_LE(db_->engine()->blobs()->TotalBytes(), 7u << 10);
}

TEST_F(HeavenDbTest, MigrationPolicyViaTct) {
  OpenDb([](HeavenOptions* options) {
    options->decoupled_export = true;
    options->migrate_high_watermark_bytes = 10 << 10;
    options->migrate_low_watermark_bytes = 7 << 10;
  });
  auto coll = db_->CreateCollection("cm2");
  ASSERT_TRUE(coll.ok());
  ASSERT_TRUE(
      db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39}))).ok());
  ASSERT_TRUE(
      db_->InsertObject(*coll, "b", Ramp(MdInterval({0, 0}, {39, 39}))).ok());
  ASSERT_TRUE(db_->DrainExports().ok());
  EXPECT_GT(db_->RegisteredSuperTiles(), 0u);
  // Background migration never charged the client clock with tape time.
  EXPECT_LT(db_->ClientSeconds(), 1.0);
  EXPECT_GT(db_->TapeSeconds(), 0.0);
}


TEST_F(HeavenDbTest, ReclaimMediumRecoversDeadBytes) {
  // Two objects exported to tape; deleting one leaves dead extents.
  ObjectId a = Insert("a", MdInterval({0, 0}, {29, 29}));
  ObjectId b = Insert("b", MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->ExportObject(a).ok());
  ASSERT_TRUE(db_->ExportObject(b).ok());
  MddArray b_data = Ramp(MdInterval({0, 0}, {29, 29}));
  ASSERT_TRUE(db_->DeleteObject(a).ok());

  // Find the medium holding b's (live) super-tiles — reclamation must
  // relocate them and erase the source.
  uint64_t reclaimed_total = 0;
  for (MediumId m = 0; m < db_->library()->num_media(); ++m) {
    auto used = db_->library()->MediumUsedBytes(m);
    ASSERT_TRUE(used.ok());
    if (*used == 0) continue;
    auto reclaimed = db_->ReclaimMedium(m);
    ASSERT_TRUE(reclaimed.ok()) << reclaimed.status().ToString();
    reclaimed_total += *reclaimed;
    auto after = db_->library()->MediumUsedBytes(m);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, 0u);
    break;  // one source medium is enough for the test
  }
  EXPECT_GT(reclaimed_total, 0u);  // a's dead extents were freed
  // b survives intact after relocation.
  auto read = db_->ReadObject(b);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), b_data);
}

TEST_F(HeavenDbTest, ReclaimEmptyMediumIsNoOp) {
  auto reclaimed = db_->ReclaimMedium(3);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(*reclaimed, 0u);
}

TEST_F(HeavenDbTest, ConcurrentTctExportAndReads) {
  OpenDb([](HeavenOptions* options) { options->decoupled_export = true; });
  auto coll = db_->CreateCollection("cc");
  ASSERT_TRUE(coll.ok());
  std::vector<ObjectId> objects;
  for (int i = 0; i < 6; ++i) {
    auto id = db_->InsertObject(*coll, "o" + std::to_string(i),
                                Ramp(MdInterval({0, 0}, {19, 19})));
    ASSERT_TRUE(id.ok());
    objects.push_back(*id);
    ASSERT_TRUE(db_->ExportObject(*id).ok());  // enqueue on the TCT
  }
  // Read while the TCT drains — results must be correct regardless of
  // whether each object is still on disk or already migrated.
  MddArray expected = Ramp(MdInterval({0, 0}, {19, 19}));
  for (int round = 0; round < 3; ++round) {
    for (ObjectId id : objects) {
      auto read = db_->ReadObject(id);
      ASSERT_TRUE(read.ok()) << read.status().ToString();
      ASSERT_EQ(read.value(), expected);
    }
  }
  ASSERT_TRUE(db_->DrainExports().ok());
}


TEST_F(HeavenDbTest, OverviewMaterializedOnExport) {
  OpenDb([](HeavenOptions* options) { options->overview_scale_factor = 4; });
  auto coll = db_->CreateCollection("ov");
  ASSERT_TRUE(coll.ok());
  MddArray data = Ramp(MdInterval({0, 0}, {39, 39}));
  auto id = db_->InsertObject(*coll, "scene", data);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  // The overview sibling exists, is disk-resident and 1:4 scaled.
  auto overview = db_->FindObject("scene__overview");
  ASSERT_TRUE(overview.ok()) << overview.status().ToString();
  EXPECT_EQ(overview->domain, MdInterval({0, 0}, {9, 9}));
  for (const TileDescriptor& tile :
       db_->engine()->catalog()->ListTiles(overview->object_id)) {
    EXPECT_EQ(tile.location, TileLocation::kDisk);
  }
  // Browsing the overview costs no tape time.
  const double tape_before = db_->TapeSeconds();
  auto preview = db_->ReadObject(overview->object_id);
  ASSERT_TRUE(preview.ok());
  EXPECT_EQ(db_->TapeSeconds(), tape_before);
  auto expected = ScaleDown(data, 4);
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(preview.value(), *expected);
  // Re-export does not duplicate the overview.
  ASSERT_TRUE(db_->ReimportObject(*id).ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());
  EXPECT_FALSE(
      db_->InsertObject(*coll, "scene__overview", data).ok());  // exists
}

TEST_F(HeavenDbTest, OverviewDisabledByDefault) {
  ObjectId id = Insert("plain", MdInterval({0, 0}, {19, 19}));
  ASSERT_TRUE(db_->ExportObject(id).ok());
  EXPECT_FALSE(db_->FindObject("plain__overview").ok());
}


TEST_F(HeavenDbTest, ElevatorScheduleVisibleInTapeTrace) {
  // Property: with media-elevator scheduling, the read offsets within each
  // medium form a non-decreasing sequence per batch (the tape only sweeps
  // forward) — verified against the recorded I/O trace.
  OpenDb([](HeavenOptions* options) {
    options->inter_clustering = false;  // scatter across media
    options->supertile_bytes = 4096;
    options->cache.capacity_bytes = 1;
  });
  auto coll = db_->CreateCollection("tr");
  ASSERT_TRUE(coll.ok());
  auto id = db_->InsertObject(*coll, "a", Ramp(MdInterval({0, 0}, {39, 39})));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(db_->ExportObject(*id).ok());

  db_->library()->EnableTrace(true);
  std::vector<std::pair<ObjectId, MdInterval>> queries = {
      {*id, MdInterval({0, 0}, {15, 15})},
      {*id, MdInterval({24, 24}, {39, 39})},
      {*id, MdInterval({8, 8}, {31, 31})},
  };
  ASSERT_TRUE(db_->ReadRegions(queries).ok());

  std::map<MediumId, uint64_t> last_offset;
  for (const TapeTraceEvent& event : db_->library()->Trace()) {
    if (event.kind != TapeTraceEvent::Kind::kRead) continue;
    auto it = last_offset.find(event.medium);
    if (it != last_offset.end()) {
      EXPECT_GE(event.offset, it->second)
          << "backward seek within medium " << event.medium;
    }
    last_offset[event.medium] = event.offset;
  }
  EXPECT_FALSE(last_offset.empty());
}

}  // namespace
}  // namespace heaven
