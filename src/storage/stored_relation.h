// StoredRelation: a catalog relation backed by the run index, published as a
// sequence of refcounted immutable *generations*.
//
// The executor's catalog used to hold a plain TpRelation, so every append
// epoch paid an O(n) MergeSortedAppend into it. A StoredRelation splits the
// physical layout into a *base level* (one big sorted TpRelation, the
// product of the last compaction) and a *tail* of sorted runs (run_index.h).
// Every published state of that layout is a StorageGeneration — an immutable
// {base, tail runs, watermark} triple held by shared_ptr. Mutations never
// edit the current generation in place: they build a successor (sharing
// every untouched run and usually the base) and swap the published pointer
// under a lock held O(1). A generation is freed when the last snapshot
// pinning it drops.
//
//  * AppendRun — O(batch) amortized. Validates the per-fact chain contract
//    against an O(1) fact-tail map (no binary search over n tuples), stamps
//    the run with its epoch (stale/duplicate epochs rejected) and publishes
//    a successor generation whose tail gained the run (roll policy applied).
//  * Snapshot — an O(1) epoch-pinned read view: the generation current at
//    the call, refcounted. Readers iterate its spans with no lock held while
//    appends land and compaction rewrites levels underneath; the snapshot's
//    content never changes.
//  * FoldedView / View — the one logical sorted relation. When tail runs
//    are pending, the fold claims them like a compaction pass (rolls
//    frozen, compact_mu_ try-locked) and merges *off-lock* on a snapshot,
//    so the fold publishes as a new generation even while appends land —
//    a read never blocks a writer, and a sustained writer cannot starve
//    the fold cache. This retires the old reader-thread in-lock fold.
//    O(1) when the tail is empty.
//  * ForEachTuple / Materialize — streaming and copying reads through the
//    merge iterator on a snapshot, without folding anything and without
//    holding the lock across callbacks.
//  * CompactStep — the budgeted compaction pass: claims the oldest ≤k runs,
//    merges them with the base *off-lock* applying *retention* (the monotone
//    per-relation watermark retires every tuple whose interval ends at or
//    below it; a straddling tuple survives), and publishes the successor.
//    Appends land concurrently (rolls are frozen while a claim is pending so
//    the claimed prefix stays positionally stable). Compact() is the
//    unbudgeted single pass over everything pending. Continuous queries that
//    read the relation must rebase their checkpoints after retention
//    (QueryExecutor::Retain drives both; see incremental_set_op.h Rebase).
//
// The fact-tail map deliberately survives retention: the stream contract
// stays monotone per fact — forgetting history does not rewind time, so an
// append below an already-seen tail is still rejected.
//
// Thread safety: all members are guarded by mu_, which is only ever held
// O(1) (pointer swaps, map updates) — never across a merge or a user
// callback. Mutations (AppendRun, SetWatermark, Compact, CompactStep) may
// run concurrently with each other and with any number of readers;
// compaction passes additionally serialize on compact_mu_. Reads taken
// through Snapshot()/FoldedView() are lock-free after the O(1) pointer
// acquisition.
#ifndef TPSET_STORAGE_STORED_RELATION_H_
#define TPSET_STORAGE_STORED_RELATION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "parallel/thread_pool.h"
#include "relation/relation.h"
#include "storage/run_index.h"

namespace tpset {

/// One immutable published version of a StoredRelation's physical layout.
/// Built by a mutation, published by an O(1) pointer swap, freed when the
/// last snapshot referencing it drops. `base_watermark` records the
/// retention watermark actually applied to the base level's content
/// (kNoWatermark when a fold moved unretained run tuples in — the
/// generation-swap replacement for the old `base_unretained_` flag, so
/// Compact's skip-when-unchanged check can never leak retained tuples).
struct StorageGeneration {
  StorageGeneration();
  ~StorageGeneration();
  StorageGeneration(const StorageGeneration&) = delete;
  StorageGeneration& operator=(const StorageGeneration&) = delete;

  std::shared_ptr<const TpRelation> base;
  RunIndex tail;
  TimePoint base_watermark = kNoWatermark;
  TimePoint watermark = kNoWatermark;
  std::uint64_t id = 0;
};

/// An epoch-pinned, immutable read view of a StoredRelation: the generation
/// current when Snapshot() was called, refcounted. Cheap to take (O(1)) and
/// to copy; holding one keeps every span it exposes valid, no matter how
/// many appends, folds or compactions publish newer generations meanwhile.
class StorageSnapshot {
 public:
  StorageSnapshot() = default;

  bool valid() const { return gen_ != nullptr; }

  /// Total logical tuple count (base + tail runs) at the pinned epoch.
  std::size_t size() const {
    return gen_ == nullptr ? 0 : gen_->base->size() + gen_->tail.size();
  }
  std::size_t run_count() const {
    return gen_ == nullptr ? 0 : gen_->tail.run_count();
  }
  /// Latest append epoch folded into this view (0 before any append).
  EpochId epoch() const { return gen_ == nullptr ? 0 : gen_->tail.last_epoch(); }
  /// Monotone id of the pinned generation (0 for an invalid snapshot).
  std::uint64_t generation() const { return gen_ == nullptr ? 0 : gen_->id; }
  /// Retention watermark of the relation when this generation published.
  TimePoint watermark() const {
    return gen_ == nullptr ? kNoWatermark : gen_->watermark;
  }
  bool has_watermark() const { return watermark() != kNoWatermark; }

  /// Borrowed spans of the base level plus every tail run, oldest first.
  /// Valid while this snapshot (or any copy) is alive.
  std::vector<TupleSpan> spans() const;

  /// Streams every tuple in (fact, start, end) order through the merge
  /// iterator. No lock is held; `fn` may do anything, including reading the
  /// owning StoredRelation.
  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    const std::vector<TupleSpan> s = spans();
    for (RunMergeIterator it(s); it.Valid(); it.Next()) fn(it.Get());
  }

  /// Copies the pinned content into a fresh TpRelation (same context, schema
  /// and name; witness armed).
  TpRelation Materialize() const;

 private:
  friend class StoredRelation;
  explicit StorageSnapshot(std::shared_ptr<const StorageGeneration> gen)
      : gen_(std::move(gen)) {}

  std::shared_ptr<const StorageGeneration> gen_;
};

/// A run-indexed catalog relation published as refcounted generations. See
/// the file comment.
class StoredRelation {
 public:
  StoredRelation();
  /// Takes ownership of `base` as the base level. The relation must be
  /// (fact, start, end)-sorted with the witness armed (the executor
  /// validates at Register); the per-fact tail map is built in one O(n)
  /// scan.
  explicit StoredRelation(TpRelation base);
  ~StoredRelation();

  StoredRelation(const StoredRelation&) = delete;
  StoredRelation& operator=(const StoredRelation&) = delete;

  const std::shared_ptr<TpContext>& context() const { return proto_.context(); }
  const Schema& schema() const { return proto_.schema(); }
  const std::string& name() const { return proto_.name(); }

  /// Total logical tuple count (base + tail runs).
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Appends one (fact, start, end)-sorted batch as a run: O(batch)
  /// amortized, published as a successor generation (readers holding
  /// snapshots are unaffected). Every tuple must extend its fact's timeline
  /// (start at or after the fact's stored tail end — checked against the
  /// O(1) tail map, nothing is mutated on failure) and `epoch` must exceed
  /// every previously accepted epoch. Duplicate-freeness within the batch
  /// follows from the chain check; AppendLog validates the richer row-level
  /// contract first.
  Status AppendRun(std::vector<TpTuple> batch, EpochId epoch);

  /// Last stored interval end of `fact` across base and tails, or
  /// {false, 0} when the fact was never appended. O(1); counts a tail hit.
  std::pair<bool, TimePoint> FactTail(FactId fact) const;

  /// Maximum interval end ever stored (kNoWatermark while empty). Monotone
  /// and unaffected by retention — it tracks how far event time has
  /// advanced, which is what continuous-query low watermarks fold over.
  TimePoint max_interval_end() const;

  /// Sets the retention watermark (monotone: lowering it is rejected).
  /// Takes effect at the next compaction pass; QueryExecutor::Retain couples
  /// the two and rebases dependent continuous queries against the swapped-in
  /// generation.
  Status SetWatermark(TimePoint watermark);
  TimePoint watermark() const;
  bool has_watermark() const { return watermark() != kNoWatermark; }

  /// O(1): pins the current generation for lock-free reading. See
  /// StorageSnapshot.
  StorageSnapshot Snapshot() const;

  /// Unbudgeted compaction pass: merges the base and every tail run present
  /// at the claim into a fresh base level, retiring tuples at or below the
  /// watermark, and publishes the successor generation. O(n), off-lock;
  /// on a parallel `lane`, 2 × its width fact-range partitions merge
  /// concurrently (PartitionRunsByFact) and concatenate in order — the
  /// caller must not be a worker of the lane's pool. Skips the merge when
  /// nothing could change (no pending runs and the watermark already applied
  /// to the base).
  void Compact(const PoolLane& lane = PoolLane());

  /// Budgeted compaction step: like Compact but claims at most `max_runs`
  /// of the oldest tail runs. Returns the debt remaining after the pass —
  /// runs still pending plus one if the watermark is still unapplied — so
  /// background drivers know whether to reschedule. Passes serialize on an
  /// internal lock; appends proceed concurrently (rolls frozen while a claim
  /// is pending).
  std::size_t CompactStep(std::size_t max_runs,
                          const PoolLane& lane = PoolLane());

  /// Pending compaction work: tail run count, plus 1 when the watermark has
  /// not yet been applied to the base level.
  std::size_t compaction_debt() const;

  /// The one logical sorted relation, witness armed, refcounted. When tail
  /// runs are pending, claims them like a compaction pass (so concurrent
  /// appends cannot preempt the publish), merges them with the base
  /// *off-lock* on a snapshot and publishes the folded result as a
  /// successor generation; O(1) when the tail is empty. When a compaction
  /// pass holds the claim, falls back to an unpublished fold — correct for
  /// its snapshot either way. This is what query execution leaves read.
  std::shared_ptr<const TpRelation> FoldedView() const;

  /// Legacy reference-returning fold, kept for single-threaded callers
  /// (REPL, tests): FoldedView() with the result pinned inside this
  /// StoredRelation. The reference stays valid until the next View() call —
  /// concurrent readers should hold FoldedView()/Snapshot() instead.
  const TpRelation& View() const;

  /// Streams every tuple in (fact, start, end) order through the merge
  /// iterator on a snapshot. No lock is held across `fn`.
  template <typename Fn>
  void ForEachTuple(Fn&& fn) const {
    Snapshot().ForEachTuple(std::forward<Fn>(fn));
  }

  /// Materializes the logical content into a fresh TpRelation (same context,
  /// schema and name; witness armed) without mutating the storage layout.
  TpRelation Materialize() const { return Snapshot().Materialize(); }

  /// Pending tail runs (0 right after a full compaction or View fold).
  std::size_t run_count() const;
  /// Latest accepted append epoch (0 before any append).
  EpochId last_epoch() const;
  /// Monotone id of the currently published generation.
  std::uint64_t generation() const;
  /// Counter snapshot, by value: concurrent mutators bump the counters
  /// under the lock, so handing out a reference would race.
  StorageStats stats() const;

 private:
  /// Builds the successor-generation skeleton (no tail/base yet) — requires
  /// mu_.
  std::shared_ptr<StorageGeneration> NewGenerationLocked() const;
  /// Publishes `next` as the current generation — requires mu_.
  void PublishLocked(std::shared_ptr<StorageGeneration> next) const;

  mutable std::mutex mu_;
  /// Serializes compaction passes (claim → off-lock merge → publish).
  /// Mutable because FoldedView() (a const read) try-locks it to claim a
  /// roll-frozen prefix, which makes its fold publishable even while
  /// appends land concurrently.
  mutable std::mutex compact_mu_;
  /// The published generation; swapped under mu_, read via Snapshot().
  /// Mutable because FoldedView() (a const read) may publish the fold.
  mutable std::shared_ptr<const StorageGeneration> gen_;
  /// Keeps the last View() result alive for the legacy reference contract.
  mutable std::shared_ptr<const TpRelation> view_pin_;
  mutable StorageStats stats_;
  mutable std::uint64_t next_gen_id_ = 1;
  /// True while a compaction claim is outstanding: appends must not roll
  /// runs together, or the claimed prefix would shift under the compactor.
  mutable bool compacting_ = false;
  std::unordered_map<FactId, TimePoint> fact_tails_;
  TimePoint max_interval_end_ = kNoWatermark;
  TimePoint watermark_ = kNoWatermark;
  /// Empty relation carrying the stable context/schema/name, so the
  /// accessors hand out references that survive generation swaps.
  TpRelation proto_;
};

}  // namespace tpset

#endif  // TPSET_STORAGE_STORED_RELATION_H_
