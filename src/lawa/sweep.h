// The one LAWA sweep and the one kernel rule. Sequential LawaSetOp, the
// parallel morsel sweep and both incremental paths (resume from a
// checkpoint, full resweep) all run SweepWindows with their own emit, and
// all pick its kernel with SweepsColumnar applied to the tuples they are
// about to sweep: the whole inputs (LawaSetOp, a resweep), the whole
// operation once (LAWA-P, whose morsels then slice one shared view), or the
// unswept suffix past the checkpoint cursors (a resume).
//
// Both kernels emit the identical window stream and leave the identical
// advancer status (tests/columnar_kernel_test.cc), so the choice moves only
// cost. The columnar kernel (lawa/columnar_advancer.h) needs an SoA
// projection of its inputs — four vector allocations per side when none is
// cached — a cost argued to outweigh the fused loop on the incremental
// engine's per-fact resumes, which typically sweep a handful of new tuples
// (end to end, e2ebench's stream_maintain shows no difference either way).
// Hence the rule: columnar at kColumnarMinTuples swept tuples or more, the
// scalar advancer below.
#ifndef TPSET_LAWA_SWEEP_H_
#define TPSET_LAWA_SWEEP_H_

#include <cstddef>
#include <optional>

#include "common/setop.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "relation/columnar.h"

namespace tpset {

/// Swept tuples (both sides, past the checkpoint cursors) at or above which
/// the columnar kernel runs.
inline constexpr std::size_t kColumnarMinTuples = 64;

/// The kernel rule: true when a sweep over `swept_tuples` runs columnar.
inline bool SweepsColumnar(std::size_t swept_tuples) {
  return swept_tuples >= kColumnarMinTuples;
}

/// One input of a sweep: (fact, start)-sorted, duplicate-free tuples and,
/// optionally, their SoA projection over the same indices (a relation's
/// cached view, or a morsel's slice of one operation-wide view). `columns`
/// is read only by a columnar sweep; a scalar sweep ignores it.
struct SweepInput {
  const TpTuple* tuples = nullptr;
  std::size_t n = 0;
  std::optional<ColumnSpan> columns;
};

/// Runs one LAWA sweep for `op` on the kernel the caller picked (`columnar`,
/// from SweepsColumnar), invoking emit(w) for every window that survives the
/// per-operation λ-filter. Resumes from `*ckpt` (a default-constructed
/// checkpoint is a fresh sweep) and leaves the drain-point status,
/// windows_produced included, in `*ckpt`. A columnar sweep over a side
/// without columns projects only that side's unswept suffix, so an O(delta)
/// resume stays O(delta).
template <typename Emit>
void SweepWindows(SetOpKind op, bool columnar, const SweepInput& r,
                  const SweepInput& s, AdvancerCheckpoint* ckpt, Emit&& emit) {
  if (!columnar) {
    LineageAwareWindowAdvancer adv(r.tuples, r.n, s.tuples, s.n);
    adv.Restore(*ckpt);
    ForEachSurvivingWindow(op, adv, emit);
    *ckpt = adv.Checkpoint();
    return;
  }
  // Sides projected here cover only their unswept suffix: the checkpoint
  // cursors shift into suffix space for the sweep and back afterwards.
  ColumnarView local_r, local_s;
  std::size_t base_r = 0, base_s = 0;
  ColumnSpan rc, sc;
  if (r.columns) {
    rc = *r.columns;
  } else {
    base_r = ckpt->ri;
    local_r.Build(r.tuples + base_r, r.n - base_r);
    rc = local_r.Columns();
  }
  if (s.columns) {
    sc = *s.columns;
  } else {
    base_s = ckpt->si;
    local_s.Build(s.tuples + base_s, s.n - base_s);
    sc = local_s.Columns();
  }
  ColumnarAdvancer adv(rc, sc);
  AdvancerCheckpoint local = *ckpt;
  local.ri -= base_r;
  local.si -= base_s;
  adv.Restore(local);
  adv.Sweep(op, emit);
  *ckpt = adv.Checkpoint();
  ckpt->ri += base_r;
  ckpt->si += base_s;
}

}  // namespace tpset

#endif  // TPSET_LAWA_SWEEP_H_
