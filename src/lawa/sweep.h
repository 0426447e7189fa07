// The one LAWA sweep of the engine. Sequential LawaSetOp, the parallel
// morsel sweep and both incremental paths (resume from a checkpoint, full
// resweep) all run SweepWindows with their own emit, and every one of them
// runs the columnar kernel (lawa/columnar_advancer.h).
//
// The paper-literal scalar advancer (lawa/advancer.h, driven by
// ForEachSurvivingWindow) is no engine path: it is the reference the
// columnar kernel is tested against (tests/columnar_kernel_test.cc,
// testing::ScalarLawaSetOp) and the baseline of bench_parallel's kernel A/B.
// Both kernels emit the identical window stream and leave the identical
// advancer status, and checkpoints round-trip between them.
#ifndef TPSET_LAWA_SWEEP_H_
#define TPSET_LAWA_SWEEP_H_

#include <cstddef>
#include <optional>

#include "common/setop.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "relation/columnar.h"

namespace tpset {

/// One input of a sweep: (fact, start)-sorted, duplicate-free tuples and,
/// optionally, their SoA projection over the same indices (a relation's
/// cached view, or a morsel's slice of one operation-wide view). A side
/// without columns is projected by the sweep itself.
struct SweepInput {
  const TpTuple* tuples = nullptr;
  std::size_t n = 0;
  std::optional<ColumnSpan> columns;
};

/// Runs one LAWA sweep for `op` on the columnar kernel, invoking emit(w) for
/// every window that survives the per-operation λ-filter. Resumes from
/// `*ckpt` (a default-constructed checkpoint is a fresh sweep) and leaves
/// the drain-point status, windows_produced included, in `*ckpt`. A side
/// without columns is projected over its unswept suffix only, so an
/// O(delta) resume stays O(delta).
template <typename Emit>
void SweepWindows(SetOpKind op, const SweepInput& r, const SweepInput& s,
                  AdvancerCheckpoint* ckpt, Emit&& emit) {
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
