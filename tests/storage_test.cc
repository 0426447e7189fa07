// Unit tests of the run-indexed stream storage (src/storage/): the k-way
// run-merge iterator (witness preservation, empty/singleton runs), the
// RunIndex roll policy and its duplicate-epoch fence, StoredRelation's
// O(batch) append path + O(1) fact tails + view folding + retention
// compaction, the executor integration (Find folds runs; one-shot Execute
// over an appended-to relation matches the merged reference), and the
// multi-writer epoch fence under concurrent appends.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "incremental/delta.h"
#include "obs/metrics.h"
#include "parallel/partition.h"
#include "parallel/thread_pool.h"
#include "query/executor.h"
#include "query/explain.h"
#include "relation/relation.h"
#include "storage/run_index.h"
#include "storage/stored_relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;

// Payload-only tuples for the pure storage tests (no context needed: the
// storage layer treats lineage ids as opaque).
TpTuple T(FactId fact, TimePoint ts, TimePoint te, LineageId lin = 7) {
  return {fact, Interval(ts, te), lin};
}

std::vector<TpTuple> Drain(const std::vector<TupleSpan>& spans) {
  std::vector<TpTuple> out;
  for (RunMergeIterator it(spans); it.Valid(); it.Next()) out.push_back(it.Get());
  return out;
}

TupleSpan SpanOf(const std::vector<TpTuple>& v) { return {v.data(), v.size()}; }

// ---- RunMergeIterator ------------------------------------------------------

TEST(RunMergeIteratorTest, MergesRunsIntoGlobalFactTimeOrder) {
  const std::vector<TpTuple> a = {T(1, 0, 5), T(1, 8, 9), T(3, 0, 2)};
  const std::vector<TpTuple> b = {T(1, 5, 8), T(2, 1, 4), T(3, 4, 6)};
  const std::vector<TpTuple> c = {T(0, 3, 4), T(3, 2, 3)};
  const std::vector<TpTuple> merged = Drain({SpanOf(a), SpanOf(b), SpanOf(c)});
  ASSERT_EQ(merged.size(), 8u);
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), FactTimeOrder()));
  EXPECT_EQ(merged.front(), T(0, 3, 4));
  EXPECT_EQ(merged.back(), T(3, 4, 6));
}

TEST(RunMergeIteratorTest, EmptyAndSingletonRuns) {
  EXPECT_TRUE(Drain({}).empty());
  const std::vector<TpTuple> empty;
  EXPECT_TRUE(Drain({SpanOf(empty), SpanOf(empty)}).empty());

  const std::vector<TpTuple> one = {T(5, 2, 3)};
  const std::vector<TpTuple> merged =
      Drain({SpanOf(empty), SpanOf(one), SpanOf(empty)});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0], T(5, 2, 3));
}

TEST(RunMergeIteratorTest, MergedViewPreservesSortednessWitness) {
  // The merge feeds a relation via mutable_tuples (clearing the witness);
  // MergeRuns output order lets MarkSortedUnchecked re-arm it — this is the
  // View() fold path.
  const std::vector<TpTuple> a = {T(1, 0, 2), T(2, 0, 2)};
  const std::vector<TpTuple> b = {T(1, 2, 4), T(9, 0, 1)};
  TpRelation rel;
  std::size_t dropped =
      MergeRuns({SpanOf(a), SpanOf(b)}, kNoWatermark, &rel.mutable_tuples());
  rel.MarkSortedUnchecked();
  EXPECT_EQ(dropped, 0u);
  EXPECT_TRUE(rel.known_sorted());
  EXPECT_TRUE(rel.IsSortedFactTime());
  EXPECT_EQ(rel.size(), 4u);
}

TEST(RunMergeIteratorTest, WatermarkRetiresWindowsEntirelyBelow) {
  // end <= watermark is retired; a straddling interval survives intact.
  const std::vector<TpTuple> a = {T(1, 0, 3), T(1, 3, 10), T(2, 0, 5)};
  std::vector<TpTuple> out;
  std::size_t dropped = MergeRuns({SpanOf(a)}, /*watermark=*/5, &out);
  EXPECT_EQ(dropped, 2u);  // [0,3) and [0,5) retired; [3,10) straddles
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], T(1, 3, 10));
}

// ---- RunIndex --------------------------------------------------------------

TEST(RunIndexTest, RejectsStaleOrDuplicateEpochs) {
  RunIndex idx;
  StorageStats stats;
  ASSERT_TRUE(idx.Append({T(1, 0, 1)}, 3, &stats).ok());
  EXPECT_FALSE(idx.Append({T(1, 1, 2)}, 3, &stats).ok());  // duplicate
  EXPECT_FALSE(idx.Append({T(1, 1, 2)}, 2, &stats).ok());  // stale
  EXPECT_EQ(idx.size(), 1u);
  EXPECT_EQ(idx.last_epoch(), 3u);
  ASSERT_TRUE(idx.Append({T(1, 1, 2)}, 4, &stats).ok());
  EXPECT_EQ(idx.size(), 2u);
}

TEST(RunIndexTest, EmptyBatchRecordsEpochWithoutARun) {
  RunIndex idx;
  StorageStats stats;
  ASSERT_TRUE(idx.Append({}, 1, &stats).ok());
  EXPECT_EQ(idx.run_count(), 0u);
  EXPECT_EQ(idx.last_epoch(), 1u);
  EXPECT_FALSE(idx.Append({}, 1, &stats).ok());  // fence holds for empties too
}

TEST(RunIndexTest, RollPolicyKeepsRunCountLogarithmic) {
  RunIndex idx;
  StorageStats stats;
  // 256 single-tuple appends on one fact: a naive index would hold 256 runs;
  // the size-tiered roll keeps O(log n).
  for (std::size_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(idx.Append({T(1, static_cast<TimePoint>(i),
                              static_cast<TimePoint>(i + 1))},
                           i + 1, &stats)
                    .ok());
  }
  EXPECT_EQ(idx.size(), 256u);
  EXPECT_LE(idx.run_count(), 10u);
  EXPECT_GT(stats.runs_merged, 0u);
  for (const std::shared_ptr<const SortedRun>& run : idx.runs()) {
    EXPECT_TRUE(std::is_sorted(run->tuples.begin(), run->tuples.end(),
                               FactTimeOrder()));
  }
  const std::vector<TpTuple> merged = Drain(idx.spans());
  EXPECT_TRUE(std::is_sorted(merged.begin(), merged.end(), FactTimeOrder()));
}

// ---- StoredRelation --------------------------------------------------------

TEST(StoredRelationTest, AppendRunTracksFactTailsAcrossBaseAndRuns) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 4), T(2, 0, 2)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));

  EXPECT_EQ(stored.FactTail(1), (std::pair<bool, TimePoint>{true, 4}));
  EXPECT_EQ(stored.FactTail(9), (std::pair<bool, TimePoint>{false, 0}));

  ASSERT_TRUE(stored.AppendRun({T(1, 4, 7), T(3, 0, 5)}, 1).ok());
  EXPECT_EQ(stored.FactTail(1), (std::pair<bool, TimePoint>{true, 7}));
  EXPECT_EQ(stored.FactTail(3), (std::pair<bool, TimePoint>{true, 5}));
  EXPECT_EQ(stored.size(), 4u);
  EXPECT_GT(stored.stats().tail_hits, 0u);

  // Chain violation: starts before fact 1's tail. Nothing is mutated.
  EXPECT_FALSE(stored.AppendRun({T(1, 6, 8)}, 2).ok());
  EXPECT_EQ(stored.size(), 4u);
  EXPECT_EQ(stored.FactTail(1), (std::pair<bool, TimePoint>{true, 7}));
  // Within-batch overlap on one fact is also a chain violation.
  EXPECT_FALSE(stored.AppendRun({T(4, 0, 5), T(4, 3, 6)}, 2).ok());
  // The rejected epochs were never consumed.
  EXPECT_TRUE(stored.AppendRun({T(1, 7, 8)}, 2).ok());
}

TEST(StoredRelationTest, ViewFoldsRunsIntoOneSortedWitnessedRelation) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 4), T(5, 0, 2)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));
  ASSERT_TRUE(stored.AppendRun({T(1, 4, 7), T(2, 0, 3)}, 1).ok());
  ASSERT_TRUE(stored.AppendRun({T(2, 3, 4), T(6, 1, 2)}, 2).ok());

  // Materialize streams without folding.
  TpRelation copy = stored.Materialize();
  EXPECT_EQ(copy.size(), 6u);
  EXPECT_TRUE(copy.known_sorted());
  EXPECT_GT(stored.run_count(), 0u);

  const TpRelation& view = stored.View();
  EXPECT_EQ(view.size(), 6u);
  EXPECT_TRUE(view.known_sorted());
  EXPECT_TRUE(view.IsSortedFactTime());
  EXPECT_EQ(stored.run_count(), 0u);  // folded
  EXPECT_EQ(view.tuples(), copy.tuples());

  // The fold must match the reference O(n) merge path.
  TpRelation reference;
  reference.mutable_tuples() = {T(1, 0, 4), T(5, 0, 2)};
  reference.MarkSortedUnchecked();
  reference.MergeSortedAppend({T(1, 4, 7), T(2, 0, 3)});
  reference.MergeSortedAppend({T(2, 3, 4), T(6, 1, 2)});
  EXPECT_EQ(view.tuples(), reference.tuples());
}

TEST(StoredRelationTest, RetentionCompactionRetiresBelowWatermark) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 3), T(1, 3, 12), T(2, 0, 2)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));
  ASSERT_TRUE(stored.AppendRun({T(1, 12, 14), T(2, 2, 4)}, 1).ok());

  EXPECT_FALSE(stored.has_watermark());
  ASSERT_TRUE(stored.SetWatermark(4).ok());
  EXPECT_FALSE(stored.SetWatermark(2).ok());  // monotone
  ASSERT_TRUE(stored.SetWatermark(4).ok());   // idempotent re-set is fine
  stored.Compact();

  // Retired: (1,[0,3)), (2,[0,2)), (2,[2,4)). Straddler (1,[3,12)) survives.
  EXPECT_EQ(stored.size(), 2u);
  EXPECT_EQ(stored.stats().tuples_retired, 3u);
  EXPECT_EQ(stored.run_count(), 0u);
  const TpRelation& view = stored.View();
  ASSERT_EQ(view.size(), 2u);
  EXPECT_EQ(view[0], T(1, 3, 12));
  EXPECT_EQ(view[1], T(1, 12, 14));

  // Fact tails survive retention: time does not rewind for fact 2.
  EXPECT_EQ(stored.FactTail(2), (std::pair<bool, TimePoint>{true, 4}));
  EXPECT_FALSE(stored.AppendRun({T(2, 1, 2)}, 2).ok());
  EXPECT_TRUE(stored.AppendRun({T(2, 5, 6)}, 2).ok());
}

TEST(StoredRelationTest, SnapshotsAreEpochPinnedAndImmutable) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 4), T(5, 0, 2)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));
  ASSERT_TRUE(stored.AppendRun({T(1, 4, 7), T(2, 0, 3)}, 1).ok());

  const StorageSnapshot snap = stored.Snapshot();
  EXPECT_TRUE(snap.valid());
  EXPECT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.epoch(), 1u);
  const TpRelation pinned = snap.Materialize();

  // Later appends, folds and a retention compaction publish successor
  // generations; the pinned snapshot must not move a tuple.
  ASSERT_TRUE(stored.AppendRun({T(2, 3, 9), T(6, 1, 2)}, 2).ok());
  (void)stored.View();
  ASSERT_TRUE(stored.SetWatermark(3).ok());
  stored.Compact();
  EXPECT_EQ(stored.size(), 3u);  // (2,[0,3)), (5,[0,2)), (6,[1,2)) retired

  EXPECT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.epoch(), 1u);
  EXPECT_EQ(snap.Materialize().tuples(), pinned.tuples());
  EXPECT_EQ(Drain(snap.spans()), pinned.tuples());
  // The live relation moved on: new generation, new epoch, retired content.
  const StorageSnapshot now = stored.Snapshot();
  EXPECT_GT(now.generation(), snap.generation());
  EXPECT_EQ(now.epoch(), 2u);
  EXPECT_EQ(now.watermark(), 3);
  EXPECT_EQ(now.size(), 3u);
}

// Regression for the retired `base_unretained_` flag footgun: a View() fold
// moves run tuples into the base without retention; a following SetWatermark
// + Compact must still retire them (the fold now publishes its generation
// with base_watermark = kNoWatermark, so the skip-when-unchanged check can
// never mistake folded content for compacted content).
TEST(StoredRelationTest, FoldThenSetWatermarkThenCompactStillRetires) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 3)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));
  ASSERT_TRUE(stored.AppendRun({T(2, 0, 2)}, 1).ok());

  // Fold first (no watermark set yet): run_count drops to 0.
  const TpRelation& view = stored.View();
  EXPECT_EQ(view.size(), 2u);
  EXPECT_EQ(stored.run_count(), 0u);

  ASSERT_TRUE(stored.SetWatermark(5).ok());
  EXPECT_EQ(stored.compaction_debt(), 1u);  // retention pending, no runs
  stored.Compact();
  EXPECT_EQ(stored.size(), 0u);  // both windows end at or below 5
  EXPECT_EQ(stored.stats().tuples_retired, 2u);
  EXPECT_EQ(stored.compaction_debt(), 0u);

  // And the skip path stays a skip: a second Compact is a no-op.
  const std::size_t compactions = stored.stats().compactions;
  stored.Compact();
  EXPECT_EQ(stored.stats().compactions, compactions);
}

TEST(StoredRelationTest, CompactStepClaimsOldestRunsWithinBudget) {
  TpRelation base;
  base.mutable_tuples() = {T(1, 0, 1)};
  base.MarkSortedUnchecked();
  StoredRelation stored(std::move(base));
  // Halving batch sizes defeat the roll policy, leaving four runs.
  EpochId epoch = 1;
  TimePoint t = 1;
  for (std::size_t n : {8u, 4u, 2u, 1u}) {
    std::vector<TpTuple> batch;
    for (std::size_t i = 0; i < n; ++i) {
      batch.push_back(T(1, t, t + 1));
      ++t;
    }
    ASSERT_TRUE(stored.AppendRun(std::move(batch), epoch++).ok());
  }
  ASSERT_EQ(stored.run_count(), 4u);
  EXPECT_EQ(stored.compaction_debt(), 4u);
  const TpRelation before = stored.Materialize();

  // One budgeted step claims the two oldest runs; content is unchanged.
  EXPECT_EQ(stored.CompactStep(2), 2u);
  EXPECT_EQ(stored.run_count(), 2u);
  EXPECT_EQ(stored.Materialize().tuples(), before.tuples());
  // Draining the debt leaves one folded, retention-clean base.
  EXPECT_EQ(stored.CompactStep(2), 0u);
  EXPECT_EQ(stored.run_count(), 0u);
  EXPECT_EQ(stored.Materialize().tuples(), before.tuples());
  EXPECT_EQ(stored.generation(), stored.Snapshot().generation());
}

TEST(StoredRelationTest, ParallelCompactionMatchesSequential) {
  Rng rng(0xC0FFEE);
  auto build = [&]() {
    TpRelation base;
    StoredRelation* stored = new StoredRelation(std::move(base));
    std::vector<TimePoint> tails(64, 0);
    EpochId epoch = 1;
    for (int b = 0; b < 20; ++b) {
      std::vector<TpTuple> batch;
      for (int i = 0; i < 50; ++i) {
        FactId f = static_cast<FactId>(rng.Below(64));
        TimePoint ts = tails[f] + static_cast<TimePoint>(rng.Below(3));
        TimePoint te = ts + 1 + static_cast<TimePoint>(rng.Below(4));
        batch.push_back(T(f, ts, te, static_cast<LineageId>(rng.Below(1000))));
        tails[f] = te;
      }
      std::sort(batch.begin(), batch.end(), FactTimeOrder());
      EXPECT_TRUE(stored->AppendRun(std::move(batch), epoch++).ok());
    }
    return stored;
  };

  Rng rng_copy = rng;
  std::unique_ptr<StoredRelation> seq(build());
  rng = rng_copy;  // identical content for the parallel twin
  std::unique_ptr<StoredRelation> par(build());

  ASSERT_TRUE(seq->SetWatermark(10).ok());
  ASSERT_TRUE(par->SetWatermark(10).ok());
  ThreadPool pool(4);
  seq->Compact();
  par->Compact(PoolLane(&pool, 4));
  EXPECT_EQ(seq->View().tuples(), par->View().tuples());
  EXPECT_EQ(seq->stats().tuples_retired, par->stats().tuples_retired);
  EXPECT_TRUE(par->View().IsSortedFactTime());

  // The lane's width bounds the merge: with both slots of a 2-wide lane
  // held, its partitions queue behind them although two workers sit idle.
  rng = rng_copy;
  std::unique_ptr<StoredRelation> narrow(build());
  ASSERT_TRUE(narrow->SetWatermark(10).ok());
  const PoolLane lane(&pool, 2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  for (int i = 0; i < 2; ++i) lane.Submit([released]() { released.wait(); });
  std::future<void> compact =
      std::async(std::launch::async, [&]() { narrow->Compact(lane); });
  EXPECT_EQ(compact.wait_for(std::chrono::milliseconds(50)),
            std::future_status::timeout);
  release.set_value();
  compact.get();
  EXPECT_EQ(seq->View().tuples(), narrow->View().tuples());
}

TEST(PartitionRunsByFactTest, CutsAllRunsAtCommonFactBoundaries) {
  const std::vector<TpTuple> a = {T(1, 0, 1), T(1, 1, 2), T(2, 0, 1),
                                  T(3, 0, 1)};
  const std::vector<TpTuple> b = {T(2, 1, 2), T(4, 0, 1), T(4, 1, 2)};
  std::vector<std::pair<const TpTuple*, std::size_t>> runs = {
      {a.data(), a.size()}, {b.data(), b.size()}};
  const std::vector<RunPartition> parts = PartitionRunsByFact(runs, 3);
  ASSERT_GE(parts.size(), 2u);
  std::size_t total = 0;
  FactId prev_max = 0;
  bool first = true;
  for (const RunPartition& p : parts) {
    ASSERT_EQ(p.slices.size(), runs.size());
    std::size_t count = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const auto& [begin, end] = p.slices[r];
      count += end - begin;
      for (std::size_t i = begin; i < end; ++i) {
        const FactId f = runs[r].first[i].fact;
        if (!first) {
          EXPECT_GT(f, prev_max) << "fact ranges must be disjoint";
        }
      }
    }
    // Track the partition's max fact for the disjointness check.
    for (std::size_t r = 0; r < runs.size(); ++r) {
      const auto& [begin, end] = p.slices[r];
      if (begin < end) {
        prev_max = std::max(prev_max, runs[r].first[end - 1].fact);
        first = false;
      }
    }
    EXPECT_EQ(count, p.size);
    total += count;
  }
  EXPECT_EQ(total, a.size() + b.size());
}

// ---- Executor integration --------------------------------------------------

TEST(ExecutorStorageTest, FindFoldsRunsAndOneShotExecuteStaysCorrect) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 2, 6, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());

  DeltaBatch batch;
  batch.Add({Value(std::string("milk"))}, Interval(6, 9), 0.5);
  batch.Add({Value(std::string("chips"))}, Interval(1, 3), 0.7);
  ASSERT_TRUE(exec.Append("a", batch).ok());
  EXPECT_EQ(exec.FindStored("a").value()->run_count(), 1u);

  const TpRelation* view = exec.Find("a").value();
  EXPECT_EQ(view->size(), 3u);
  EXPECT_TRUE(view->known_sorted());
  EXPECT_EQ(exec.FindStored("a").value()->run_count(), 0u);  // folded

  Result<TpRelation> out = exec.Execute("a - b");
  ASSERT_TRUE(out.ok());
  Result<TpRelation> out_union = exec.Execute("a | b");
  ASSERT_TRUE(out_union.ok());
  EXPECT_GT(out_union->size(), 0u);
}

TEST(ExecutorStorageTest, ExplainContinuousSurfacesStorageCounters) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  TpRelation b = MakeRelation(ctx, "b", {{"milk", "b1", 2, 6, 0.6}});
  a.SortFactTime();
  b.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Register(b).ok());
  ASSERT_TRUE(exec.RegisterContinuous("u", "a | b").ok());

  DeltaBatch row;
  row.Add({Value(std::string("milk"))}, Interval(6, 9), 0.5);
  ASSERT_TRUE(exec.Append("a", row).ok());
  ASSERT_TRUE(exec.Retain("a", 2).ok());
  ASSERT_TRUE(exec.Retain("b", 2).ok());

  std::string plan = ExplainContinuous(exec, "u").value();
  EXPECT_NE(plan.find("runs="), std::string::npos) << plan;
  EXPECT_NE(plan.find("tail_hits="), std::string::npos) << plan;
  EXPECT_NE(plan.find("tuples_retired="), std::string::npos) << plan;
  EXPECT_NE(plan.find("watermark=2"), std::string::npos) << plan;
}

TEST(ExecutorStorageTest, AppendGateDropsRowsEndingAtOrBelowWatermark) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  TpRelation a = MakeRelation(ctx, "a", {{"milk", "a1", 0, 4, 0.5}});
  a.SortFactTime();
  ASSERT_TRUE(exec.Register(a).ok());
  ASSERT_TRUE(exec.Retain("a", 5).ok());  // retires milk [0,4)
  ASSERT_EQ(exec.FindStored("a").value()->size(), 0u);

  obs::Counter& below = obs::MetricsRegistry::Global().GetCounter(
      "tpset_storage_append_below_watermark_total", "");
  const std::uint64_t dropped_before = below.Value();

  // One dead row (ends at the watermark), one straddler, one clean row. The
  // batch is accepted; only the dead row is dropped at the gate.
  DeltaBatch batch;
  batch.Add({Value(std::string("chips"))}, Interval(1, 5), 0.7);
  batch.Add({Value(std::string("soda"))}, Interval(4, 9), 0.6);
  batch.Add({Value(std::string("beer"))}, Interval(7, 8), 0.5);
  Result<EpochId> epoch = exec.Append("a", batch);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(below.Value(), dropped_before + 1);

  const StoredRelation* stored = exec.FindStored("a").value();
  EXPECT_EQ(stored->size(), 2u);  // soda + beer landed, chips never did
  // A dropped row leaves no fact tail behind: the fact can still append
  // normally above the watermark later.
  DeltaBatch retry;
  retry.Add({Value(std::string("chips"))}, Interval(6, 7), 0.7);
  ASSERT_TRUE(exec.Append("a", retry).ok());
  EXPECT_EQ(exec.FindStored("a").value()->size(), 3u);

  // An all-dead batch still lands as an empty epoch (the retry fence moves).
  const EpochId last = exec.last_epoch();
  DeltaBatch dead;
  dead.Add({Value(std::string("candy"))}, Interval(0, 2), 0.5);
  Result<EpochId> dead_epoch = exec.Append("a", dead);
  ASSERT_TRUE(dead_epoch.ok());
  EXPECT_EQ(*dead_epoch, last + 1);
  EXPECT_EQ(exec.FindStored("a").value()->size(), 3u);
  EXPECT_EQ(below.Value(), dropped_before + 2);
}

// ---- Multi-writer epoch fence ----------------------------------------------

TEST(EpochFenceTest, ConcurrentAppendsGetDistinctGaplessEpochsInOrder) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  const int kWriters = 4;
  const int kEpochsPerWriter = 25;
  for (int w = 0; w < kWriters; ++w) {
    TpRelation rel(ctx, Schema::SingleInt("fact"), "rel" + std::to_string(w));
    ASSERT_TRUE(exec.Register(rel).ok());
  }
  // One continuous query on rel0: its callbacks fire under the write fence,
  // so observed epochs must be strictly increasing even with racing writers.
  ContinuousQuery* cq = exec.RegisterContinuous("watch", "rel0 | rel0").value();
  std::atomic<bool> epochs_ordered{true};
  EpochId last_seen = 0;
  cq->Subscribe([&](const EpochDelta& d) {
    if (d.epoch <= last_seen) epochs_ordered = false;
    last_seen = d.epoch;
  });

  std::vector<std::vector<EpochId>> seen(kWriters);
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w]() {
      for (int e = 0; e < kEpochsPerWriter; ++e) {
        DeltaBatch batch;
        batch.Add({Value(static_cast<std::int64_t>(e % 5))},
                  Interval(e * 10, e * 10 + 5), 0.5);
        Result<EpochId> epoch = exec.Append("rel" + std::to_string(w), batch);
        ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
        seen[static_cast<std::size_t>(w)].push_back(*epoch);
      }
    });
  }
  for (std::thread& t : writers) t.join();

  // Epochs are distinct and gapless across writers, and per-writer monotone.
  std::set<EpochId> all;
  for (const std::vector<EpochId>& s : seen) {
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    all.insert(s.begin(), s.end());
  }
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kWriters * kEpochsPerWriter));
  EXPECT_EQ(*all.begin(), 1u);
  EXPECT_EQ(*all.rbegin(), static_cast<EpochId>(kWriters * kEpochsPerWriter));
  EXPECT_EQ(exec.last_epoch(), static_cast<EpochId>(kWriters * kEpochsPerWriter));
  EXPECT_TRUE(epochs_ordered);

  // Every relation holds its writer's tuples; content is intact.
  for (int w = 0; w < kWriters; ++w) {
    const TpRelation* rel = exec.Find("rel" + std::to_string(w)).value();
    EXPECT_EQ(rel->size(), static_cast<std::size_t>(kEpochsPerWriter));
    EXPECT_TRUE(rel->IsSortedFactTime());
  }
  // The fenced continuous query agrees with a one-shot over the final state.
  Result<TpRelation> oneshot = exec.Execute("rel0 | rel0");
  ASSERT_TRUE(oneshot.ok());
  EXPECT_TRUE(RelationsEquivalent(cq->Current(), *oneshot));
}

}  // namespace
}  // namespace tpset
