// Partitioned parallel LAWA: the paper's sweep run per fact-range
// partition on a thread pool.
//
// Execution of one operation (Fig. 5 pipeline, parallelized):
//   1. sort    — inputs are chunk-sorted and merged on the pool; an input
//                carrying the sortedness witness (TpRelation::known_sorted —
//                catalog relations, set-op outputs) is swept in place with
//                no copy and no sort at all (the zero-sort fast path);
//   2. split   — PartitionByFactRange cuts both inputs at fact boundaries,
//                then BuildMorsels refines the plan into ~morsel_size
//                chunks, time-splitting facts heavier than the budget at
//                clean time boundaries (see parallel/scheduler.h);
//   3. advance — morsels are swept by the columnar kernel on a
//                MorselBatch (per-worker deques + work stealing); what
//                happens to the surviving windows depends on the apply mode
//                (below);
//   4. apply   — the sequential, arena-mutating tail, on the calling
//                thread (the executor evaluates one operation at a time, so
//                nothing else mutates the arena meanwhile). The apply
//                overlaps phase 3: morsel i is applied as soon as morsels
//                <= i finished sweeping, while later morsels are still
//                advancing — apply *order* (the determinism invariant) is
//                preserved, barrier completion is not required.
//
// Two apply modes trade strictness of the equivalence guarantee for the
// size of the sequential term:
//
//  * ApplyMode::kBitIdentical (default): phase 3 emits *pending* windows
//    (fact, interval, λr, λs) and phase 4 runs the same Concat calls in the
//    same order as sequential LawaSetOp — the arena evolves identically and
//    every output tuple (fact, interval, lineage id) matches the sequential
//    run bit for bit.
//  * ApplyMode::kStaged: each partition sweep interns its concatenations
//    into a thread-local StagingArena during phase 3 and builds its output
//    tuples with partition-local ids; phase 4 shrinks to
//    LineageManager::SpliceStaged per partition (deterministic id remap +
//    append) plus a bulk tuple splice. Output is deterministic and equals
//    the sequential run tuple for tuple in (fact, interval) with
//    probability-equal lineage — node *ids* may differ (see
//    lineage/staging.h). The sequential tail shrinks from
//    O(output · intern cost) to O(staged cells).
//
// See DESIGN.md ("Partitioned parallel execution", "Staged apply") for the
// independence and determinism arguments.
#ifndef TPSET_PARALLEL_PARALLEL_SET_OP_H_
#define TPSET_PARALLEL_PARALLEL_SET_OP_H_

#include <memory>
#include <mutex>
#include <string>

#include "baselines/algorithm.h"
#include "common/setop.h"
#include "lawa/set_ops.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "relation/relation.h"

namespace tpset {

/// How the arena-mutating apply phase of a parallel set operation runs.
enum class ApplyMode {
  kBitIdentical = 0,  ///< serialized Concat replay; bit-equal to sequential
  kStaged = 1,        ///< per-partition staging arenas + sequential splice
};

/// LAWA over fact-range partitions with `num_threads` workers. Registered
/// as "LAWA-P"; supports all three operations (Table II row of LAWA).
class ParallelSetOpAlgorithm final : public SetOpAlgorithm {
 public:
  /// `num_threads` <= 1 degrades to plain sequential LawaSetOp (no pool is
  /// used; `apply_mode` is then irrelevant — the sequential algorithm is
  /// bit-identical by definition). The instance holds no threads until a
  /// call without a lane first needs its own pool. `morsel_size` is the
  /// combined (r + s) tuple budget per morsel (scheduler.h); 0 picks
  /// MorselAutoBudget, 1 is legal (every tuple its own morsel — the property
  /// tests use it). Morsel granularity changes scheduling, never the output.
  explicit ParallelSetOpAlgorithm(std::size_t num_threads,
                                  SortMode sort_mode = SortMode::kComparison,
                                  ApplyMode apply_mode = ApplyMode::kBitIdentical,
                                  std::size_t morsel_size = 0);
  ~ParallelSetOpAlgorithm() override;

  std::string name() const override { return "LAWA-P"; }
  bool Supports(SetOpKind) const override { return true; }

  /// Standalone entry point (registry / benchmarks): ComputeSequenced on
  /// the instance's own pool.
  TpRelation Compute(SetOpKind op, const TpRelation& r,
                     const TpRelation& s) const override;

  /// Executor entry point: the four phases, with optional stats, span and
  /// lane. The caller must not mutate the shared context concurrently — the
  /// same contract as sequential LawaSetOp.
  ///
  /// `stats`: output_tuples matches the sequential run exactly;
  /// windows_produced may be smaller — a partition whose other input is
  /// empty never sweeps, skipping candidate windows the sequential global
  /// loop produces only to filter out. Proposition 1 bounds both counts.
  ///
  /// `span`: when non-null, the operation records its phase walls as child
  /// spans ("sort", "split", "advance", "apply"; the degenerate sequential
  /// path records only "advance" — the whole interleaved wall) and attaches
  /// the LawaStats to `span` itself. The span's own wall/cpu cover the full
  /// call. Because apply overlaps the sweeps, "apply" is the time actually
  /// spent splicing/replaying and "advance" the rest of the overlapped span
  /// (sweeps + waits), so the two still sum to the phase-3+4 wall.
  /// "advance" includes staged-mode lineage staging and any columnar view
  /// builds.
  ///
  /// `lane`: the pool share the phases run on (an executor hands a lane of
  /// its one pool; the call must not itself run on a worker of that pool).
  /// Null uses the instance's own pool of num_threads() workers, created on
  /// first use. Ignored when num_threads() <= 1.
  TpRelation ComputeSequenced(SetOpKind op, const TpRelation& r,
                              const TpRelation& s, LawaStats* stats = nullptr,
                              obs::Span* span = nullptr,
                              const PoolLane* lane = nullptr) const;

  std::size_t num_threads() const { return num_threads_; }
  ApplyMode apply_mode() const { return apply_mode_; }

 private:
  const PoolLane& OwnLane() const;

  std::size_t num_threads_;
  SortMode sort_mode_;
  ApplyMode apply_mode_;
  std::size_t morsel_size_;
  mutable std::once_flag pool_once_;
  mutable std::unique_ptr<ThreadPool> pool_;
  mutable PoolLane lane_;  // over pool_
};

/// Sorts `count` independent arrays into (fact, start, end) order at once:
/// each array is cut into one chunk per unit of `lane` width, the chunks
/// sorted as lane tasks (each with `mode`, see SortTuples) and merged
/// pairwise, the arrays' chunk and merge tasks interleaved so no array's
/// merge tail leaves workers idle. A sequential lane sorts on the calling
/// thread.
void ParallelSortBatch(std::vector<TpTuple>* const* arrays, std::size_t count,
                       SortMode mode, const PoolLane& lane);

}  // namespace tpset

#endif  // TPSET_PARALLEL_PARALLEL_SET_OP_H_
