#include "parallel/parallel_set_op.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <future>
#include <utility>
#include <vector>

#include "lawa/sweep.h"
#include "lineage/staging.h"
#include "parallel/partition.h"
#include "parallel/scheduler.h"
#include "relation/columnar.h"
#include "relation/validate.h"

namespace tpset {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Phase-3 result of one morsel under ApplyMode::kBitIdentical: the windows
// that passed the per-operation λ-filter, their lineage concatenation
// deferred to the sequential apply phase.
struct PendingSweep {
  struct Window {
    FactId fact;
    Interval t;
    LineageId lr;
    LineageId ls;
  };
  std::vector<Window> windows;
  std::size_t windows_produced = 0;

  void Add(SetOpKind, const LineageAwareWindow& w) {
    windows.push_back({w.fact, w.t, w.lr, w.ls});
  }
};

// Phase-3 result of one morsel under ApplyMode::kStaged: output tuples
// whose lineage was interned on the pool thread into a thread-local staging
// arena; ids >= arena.frozen_size() are morsel-local, resolved at splice
// time. Default-constructible so the batch can pre-size its result slots.
struct StagedSweep {
  StagingArena arena{2, false};
  std::vector<TpTuple> tuples;
  std::size_t windows_produced = 0;

  void Add(SetOpKind op, const LineageAwareWindow& w) {
    tuples.push_back({w.fact, w.t, Concat(op, arena, w.lr, w.ls)});
  }
};

// Phase 3 for one morsel: the shared sweep (lawa/sweep.h — the same drain
// conditions and λ-filters as LawaSetOp, which bit-identity depends on;
// the cross-check is the parallel_set_op_test property suite), collected
// into the result's sink. Reads shared data only.
template <typename Sweep>
void SweepMorsel(SetOpKind op, const SweepInput& r, const SweepInput& s,
                 Sweep* out) {
  AdvancerCheckpoint ckpt;
  SweepWindows(op, r, s, &ckpt,
               [&](const LineageAwareWindow& w) { out->Add(op, w); });
  out->windows_produced = ckpt.windows_produced;
}

}  // namespace

void ParallelSortBatch(std::vector<TpTuple>* const* arrays, std::size_t count,
                       SortMode mode, const PoolLane& lane) {
  const std::size_t chunks = lane.width();

  // One merge-sort state per array still large enough to split; small arrays
  // are handled sequentially up front. All arrays share each round of task
  // submissions, so one array's narrow merge tail overlaps another's wide
  // chunk phase instead of idling the pool between the two sorts.
  struct Job {
    TpTuple* base;
    std::vector<std::size_t> bounds;  // chunk boundaries, shrinking per round
  };
  std::vector<Job> jobs;
  for (std::size_t a = 0; a < count; ++a) {
    const std::size_t n = arrays[a]->size();
    if (chunks < 2 || n < 2 * chunks) {
      SortTuples(arrays[a], mode);
      continue;
    }
    Job job;
    job.base = arrays[a]->data();
    job.bounds.reserve(chunks + 1);
    for (std::size_t c = 0; c <= chunks; ++c) job.bounds.push_back(n * c / chunks);
    jobs.push_back(std::move(job));
  }
  if (jobs.empty()) return;

  {
    std::vector<std::future<void>> sorted;
    for (const Job& job : jobs) {
      TpTuple* base = job.base;
      for (std::size_t c = 0; c + 1 < job.bounds.size(); ++c) {
        std::size_t lo = job.bounds[c], hi = job.bounds[c + 1];
        sorted.push_back(lane.Submit([base, lo, hi, mode]() {
          // SortTuples operates on a vector; sort the span directly instead.
          if (mode == SortMode::kComparison) {
            std::sort(base + lo, base + hi, FactTimeOrder());
          } else {
            std::vector<TpTuple> span(base + lo, base + hi);
            SortTuples(&span, mode);
            std::copy(span.begin(), span.end(), base + lo);
          }
        }));
      }
    }
    for (std::future<void>& f : sorted) f.get();
  }

  bool merging = true;
  while (merging) {
    merging = false;
    std::vector<std::future<void>> merged;
    for (Job& job : jobs) {
      if (job.bounds.size() <= 2) continue;
      TpTuple* base = job.base;
      std::vector<std::size_t> next;
      next.reserve(job.bounds.size() / 2 + 2);
      next.push_back(job.bounds[0]);
      for (std::size_t i = 0; i + 2 < job.bounds.size(); i += 2) {
        std::size_t lo = job.bounds[i], mid = job.bounds[i + 1],
                    hi = job.bounds[i + 2];
        merged.push_back(lane.Submit([base, lo, mid, hi]() {
          std::inplace_merge(base + lo, base + mid, base + hi, FactTimeOrder());
        }));
        next.push_back(hi);
      }
      if (job.bounds.size() % 2 == 0) next.push_back(job.bounds.back());
      job.bounds = std::move(next);
      if (job.bounds.size() > 2) merging = true;
    }
    for (std::future<void>& f : merged) f.get();
  }
}

ParallelSetOpAlgorithm::ParallelSetOpAlgorithm(std::size_t num_threads,
                                               SortMode sort_mode,
                                               ApplyMode apply_mode,
                                               std::size_t morsel_size)
    : num_threads_(num_threads),
      sort_mode_(sort_mode),
      apply_mode_(apply_mode),
      morsel_size_(morsel_size) {}

ParallelSetOpAlgorithm::~ParallelSetOpAlgorithm() = default;

const PoolLane& ParallelSetOpAlgorithm::OwnLane() const {
  std::call_once(pool_once_, [this]() {
    pool_ = std::make_unique<ThreadPool>(num_threads_);
    lane_ = PoolLane(pool_.get(), num_threads_);
  });
  return lane_;
}

TpRelation ParallelSetOpAlgorithm::Compute(SetOpKind op, const TpRelation& r,
                                           const TpRelation& s) const {
  return ComputeSequenced(op, r, s);
}

TpRelation ParallelSetOpAlgorithm::ComputeSequenced(
    SetOpKind op, const TpRelation& r, const TpRelation& s, LawaStats* stats,
    obs::Span* span, const PoolLane* lane) const {
  obs::SpanTimer span_timer(span);
  if (num_threads_ <= 1) {
    // Degenerate pool: the sequential algorithm *is* the partition sweep.
    Clock::time_point t0 = Clock::now();
    LawaStats local_stats;
    TpRelation out = LawaSetOp(op, r, s, sort_mode_, &local_stats);
    if (span != nullptr) {
      // The sequential algorithm interleaves all phases; report its whole
      // wall time as the sweep.
      span->AddChild("advance")->wall_ms = MsSince(t0);
      span->AttachStats(local_stats);
      span->SetAttr("out", out.size());
    }
    if (stats != nullptr) *stats = local_stats;
    return out;
  }
  if (lane == nullptr) lane = &OwnLane();

  assert(ValidateSetOpInputs(r, s).ok());
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + SetOpName(op) + " " + s.name() + ")");
  std::size_t sort_skipped = 0;
  Clock::time_point t0 = Clock::now();

  // Phase 1: bring both inputs into (F, Ts) order. An input carrying the
  // sortedness witness is swept in place — zero copy, zero sort; the rest
  // are copied and chunk-sorted on the pool jointly, so one array's merge
  // tail (few wide tasks) overlaps the other's fully-parallel chunks.
  std::vector<TpTuple> rs, ss;
  const TpTuple* rdata = r.tuples().data();
  std::size_t rn = r.tuples().size();
  const TpTuple* sdata = s.tuples().data();
  std::size_t sn = s.tuples().size();
  {
    std::vector<TpTuple>* arrays[2];
    std::size_t to_sort = 0;
    if (r.known_sorted()) {
      ++sort_skipped;
    } else {
      rs = r.tuples();
      arrays[to_sort++] = &rs;
    }
    if (s.known_sorted()) {
      ++sort_skipped;
    } else {
      ss = s.tuples();
      arrays[to_sort++] = &ss;
    }
    if (to_sort > 0) ParallelSortBatch(arrays, to_sort, sort_mode_, *lane);
    if (!r.known_sorted()) {
      rdata = rs.data();
      rn = rs.size();
    }
    if (!s.known_sorted()) {
      sdata = ss.data();
      sn = ss.size();
    }
  }
  double sort_ms = MsSince(t0);
  t0 = Clock::now();

  // Phase 2: cut at fact boundaries, oversubscribed for balance, then
  // refine into morsels — facts heavier than the morsel budget are split at
  // clean time boundaries (scheduler.h), so a one-hot-fact input no longer
  // pins a single worker. Staged mode also fixes the frozen arena snapshot
  // here: one linear scan for the largest input lineage id — every id the
  // staged cells may reference — without touching the arena itself, which
  // the overlapped apply below grows while later morsels still stage.
  const std::vector<FactPartition> parts = PartitionByFactRange(
      rdata, rn, sdata, sn, num_threads_ * kPartitionsPerThread);
  const std::size_t budget =
      morsel_size_ != 0 ? morsel_size_ : MorselAutoBudget(rn + sn, num_threads_);
  const MorselPlan plan = BuildMorsels(rdata, sdata, parts, budget);
  const std::size_t n_morsels = plan.morsels.size();
  const bool staged = apply_mode_ == ApplyMode::kStaged;
  LineageId frozen = 2;  // constants stay below the snapshot
  if (staged) {
    for (std::size_t i = 0; i < rn; ++i) {
      if (rdata[i].lineage != kNullLineage && rdata[i].lineage >= frozen) {
        frozen = rdata[i].lineage + 1;
      }
    }
    for (std::size_t i = 0; i < sn; ++i) {
      if (sdata[i].lineage != kNullLineage && sdata[i].lineage >= frozen) {
        frozen = sdata[i].lineage + 1;
      }
    }
    assert(frozen != kNullLineage && "lineage id space exhausted");
  }
  const bool hash_consing = r.context()->lineage().hash_consing();
  double split_ms = MsSince(t0);
  t0 = Clock::now();

  // Morsels sweep slices of one shared SoA view per input: witnessed
  // inputs lend the relation's cached view, locally sorted copies get a
  // local projection. The builds count into advance_ms — they are work the
  // columnar kernel needs. The local views outlive every morsel sweep (the
  // batch completes before they leave scope).
  ColumnarView local_rview, local_sview;
  ColumnSpan rcols, scols;
  if (r.known_sorted()) {
    rcols = r.columnar();
  } else {
    local_rview.Build(rdata, rn);
    rcols = local_rview.Columns();
  }
  if (s.known_sorted()) {
    scols = s.columnar();
  } else {
    local_sview.Build(sdata, sn);
    scols = local_sview.Columns();
  }
  auto morsel_input = [](const TpTuple* data, const ColumnSpan& cols,
                         std::size_t begin, std::size_t end) {
    return SweepInput{data + begin, end - begin, cols.Slice(begin, end)};
  };

  // Phase 3: sweep morsels on the work-stealing batch; each result lands in
  // its own slot, so the apply below can consume them strictly in morsel
  // index order regardless of which worker ran what. In staged mode the
  // sweeps also intern their concatenations thread-locally and build
  // morsel-local output tuples.
  std::vector<PendingSweep> pending;
  std::vector<StagedSweep> staged_results;
  if (staged) {
    staged_results.resize(n_morsels);
  } else {
    pending.resize(n_morsels);
  }
  MorselBatch batch(*lane, n_morsels, [&](std::size_t i) {
    const FactPartition& part = plan.morsels[i];
    const SweepInput r_in =
        morsel_input(rdata, rcols, part.r_begin, part.r_end);
    const SweepInput s_in =
        morsel_input(sdata, scols, part.s_begin, part.s_end);
    if (staged) {
      StagedSweep sweep{StagingArena(frozen, hash_consing), {}, 0};
      SweepMorsel(op, r_in, s_in, &sweep);
      staged_results[i] = std::move(sweep);
    } else {
      SweepMorsel(op, r_in, s_in, &pending[i]);
    }
  });

  // Phase 4: the sequential arena-mutating tail, on the calling thread.
  // kBitIdentical replays every deferred concatenation; kStaged only
  // splices pre-interned cells and bulk-appends tuples. The apply overlaps
  // the sweeps: morsel i is applied as soon as morsels <= i finished, while
  // later morsels are still advancing — apply order (and therefore the
  // output) is unchanged, only the barrier is gone.
  LineageManager& mgr = r.context()->lineage();
  std::size_t total_windows = 0;
  std::vector<LineageId> remap;
  double apply_ms = 0.0;
  for (std::size_t i = 0; i < n_morsels; ++i) {
    batch.WaitMorsel(i);
    const Clock::time_point a0 = Clock::now();
    if (staged) {
      const StagedSweep& sweep = staged_results[i];
      total_windows += sweep.windows_produced;
      mgr.SpliceStaged(sweep.arena, &remap);
      std::vector<TpTuple>& out_tuples = out.mutable_tuples();
      const std::size_t base = out_tuples.size();
      out_tuples.insert(out_tuples.end(), sweep.tuples.begin(),
                        sweep.tuples.end());
      for (std::size_t j = base; j < out_tuples.size(); ++j) {
        LineageId& lin = out_tuples[j].lineage;
        if (lin >= frozen) lin = remap[lin - frozen];
      }
    } else {
      const PendingSweep& sweep = pending[i];
      total_windows += sweep.windows_produced;
      for (const PendingSweep::Window& w : sweep.windows) {
        out.AddDerived(w.fact, w.t, Concat(op, mgr, w.lr, w.ls));
      }
    }
    apply_ms += MsSince(a0);
  }
  // Overlapped phases: the splice work is apply, the rest of the combined
  // span (sweeps + waits) is advance, so the two sum to the phase-3+4 wall.
  const double advance_ms = MsSince(t0) - apply_ms;
  // Windows come out in fact order with increasing starts per fact.
  out.MarkSortedUnchecked();

  LawaStats local_stats;
  local_stats.windows_produced = total_windows;
  local_stats.output_tuples = out.size();
  local_stats.sort_skipped = sort_skipped;
  local_stats.morsels_run = batch.morsels_run();
  local_stats.morsels_stolen = batch.morsels_stolen();
  local_stats.facts_split = plan.facts_split;
  NoteSweeps(n_morsels, &local_stats);
  if (stats != nullptr) *stats = local_stats;
  if (span != nullptr) {
    span->AddChild("sort")->wall_ms = sort_ms;
    span->AddChild("split")->wall_ms = split_ms;
    span->AddChild("advance")->wall_ms = advance_ms;
    span->AddChild("apply")->wall_ms = apply_ms;
    span->AttachStats(local_stats);
    span->SetAttr("out", out.size());
    span->SetAttr("morsels", batch.morsels_run());
  }
  return out;
}

}  // namespace tpset
