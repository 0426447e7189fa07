// Differential belt for the columnar SoA sweep kernel: ColumnarAdvancer
// must be indistinguishable from LineageAwareWindowAdvancer at every
// observable surface — the window stream (fact, interval, λr, λs in emit
// order) and the final advancer status (AdvancerCheckpoint). Checkpoints
// are additionally round-tripped across kernels in both directions: state
// saved by one kernel, restored into the other, must continue the sweep
// identically. The engine paths, which all sweep columnar (lawa/sweep.h) —
// sequential LawaSetOp and LAWA-P bit-identical across thread counts and
// morsel sizes — must equal the paper-literal scalar reference
// (testing::ScalarLawaSetOp) byte for byte, lineage ids included; a
// columnar resume from a non-zero checkpoint (the incremental engine's
// per-fact resume: one-row, one-sided and end-of-side suffixes included)
// must continue exactly like the scalar advancer; and a continuous schedule
// must sweep columnar throughout and still fold to a from-scratch Execute.
//
// Shapes are the ones that stress distinct kernel paths: zipf and one-hot
// fact skew (many short groups vs one huge group), all-one-fact (a single
// group, the bulk fast path's home turf once a side drains), and the
// hand-built paper example plus empty/one-sided edges.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "incremental/continuous_query.h"
#include "incremental/incremental_set_op.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "lawa/sweep.h"
#include "parallel/parallel_set_op.h"
#include "query/executor.h"
#include "relation/columnar.h"
#include "relation/relation.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

// One emitted window, as both kernels must produce it.
struct Win {
  FactId fact;
  TimePoint start, end;
  LineageId lr, ls;
  bool operator==(const Win& o) const {
    return fact == o.fact && start == o.start && end == o.end && lr == o.lr &&
           ls == o.ls;
  }
};

struct SweepResult {
  std::vector<Win> windows;
  AdvancerCheckpoint ckpt;
};

SweepResult ScalarSweep(SetOpKind op, const std::vector<TpTuple>& r,
                        const std::vector<TpTuple>& s) {
  SweepResult out;
  LineageAwareWindowAdvancer adv(r.data(), r.size(), s.data(), s.size());
  ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
    out.windows.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
  });
  out.ckpt = adv.Checkpoint();
  return out;
}

SweepResult ColumnarSweep(SetOpKind op, const std::vector<TpTuple>& r,
                          const std::vector<TpTuple>& s) {
  ColumnarView rv, sv;
  rv.Build(r.data(), r.size());
  sv.Build(s.data(), s.size());
  SweepResult out;
  ColumnarAdvancer adv(rv.Columns(), sv.Columns());
  adv.Sweep(op, [&](const LineageAwareWindow& w) {
    out.windows.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
  });
  out.ckpt = adv.Checkpoint();
  return out;
}

// Field-wise checkpoint equality; the held valid tuples are only compared
// while their flag is set (when clear, the slot is stale by contract — the
// scalar advancer never clears it on expiry, and the columnar kernel only
// writes it back when it loaded one, so the don't-care bytes may differ).
void ExpectCkptEqual(const AdvancerCheckpoint& a, const AdvancerCheckpoint& b,
                     const std::string& what) {
  EXPECT_EQ(a.ri, b.ri) << what;
  EXPECT_EQ(a.si, b.si) << what;
  EXPECT_EQ(a.r_valid, b.r_valid) << what;
  EXPECT_EQ(a.s_valid, b.s_valid) << what;
  EXPECT_EQ(a.have_fact, b.have_fact) << what;
  EXPECT_EQ(a.curr_fact, b.curr_fact) << what;
  EXPECT_EQ(a.prev_win_te, b.prev_win_te) << what;
  EXPECT_EQ(a.windows_produced, b.windows_produced) << what;
  if (a.r_valid && b.r_valid) {
    EXPECT_EQ(a.r_valid_tuple, b.r_valid_tuple) << what;
  }
  if (a.s_valid && b.s_valid) {
    EXPECT_EQ(a.s_valid_tuple, b.s_valid_tuple) << what;
  }
}

void ExpectBitEqual(const TpRelation& a, const TpRelation& b,
                    const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " tuple " << i;
  }
}

// Per-fact chain generation (non-overlapping intervals per fact, the input
// contract), fact weights under test control — same scheme as the skew
// property belt.
TpRelation ChainRelation(std::shared_ptr<TpContext> ctx,
                         const std::string& name,
                         const std::vector<std::size_t>& counts,
                         TimePoint max_len, TimePoint max_gap, Rng* rng) {
  TpRelation rel(ctx, Schema::SingleInt("fact"), name);
  for (std::size_t f = 0; f < counts.size(); ++f) {
    FactId fact = ctx->facts().Intern({Value(static_cast<std::int64_t>(f))});
    TimePoint cursor = 0;
    for (std::size_t i = 0; i < counts[f]; ++i) {
      TimePoint start = cursor + rng->Uniform(0, max_gap);
      TimePoint end = start + rng->Uniform(1, max_len);
      rel.AddBaseFast(fact, Interval(start, end),
                      0.1 + 0.8 * rng->NextDouble());
      cursor = end;
    }
  }
  rel.SortFactTime();
  return rel;
}

std::vector<std::size_t> ZipfCounts(std::size_t facts, double s,
                                    std::size_t total) {
  std::vector<double> weight(facts);
  double norm = 0.0;
  for (std::size_t f = 0; f < facts; ++f) {
    weight[f] = 1.0 / std::pow(static_cast<double>(f + 1), s);
    norm += weight[f];
  }
  std::vector<std::size_t> counts(facts);
  for (std::size_t f = 0; f < facts; ++f) {
    counts[f] = std::max<std::size_t>(
        1,
        static_cast<std::size_t>(weight[f] / norm * static_cast<double>(total)));
  }
  return counts;
}

struct Shape {
  std::string name;
  std::vector<std::size_t> counts_r, counts_s;
};

std::vector<Shape> Shapes(std::size_t scale) {
  std::vector<Shape> shapes;
  shapes.push_back({"zipf", ZipfCounts(20, 1.2, scale),
                    ZipfCounts(20, 1.2, scale)});
  {
    std::vector<std::size_t> hot(8, std::max<std::size_t>(1, scale / 80));
    hot[0] = scale * 9 / 10;
    shapes.push_back({"one_hot", hot, hot});
  }
  shapes.push_back({"all_one_fact", std::vector<std::size_t>{scale},
                    std::vector<std::size_t>{scale}});
  // Lopsided: r-heavy and one-sided facts, so one side drains early and the
  // bulk fast paths run long.
  shapes.push_back({"lopsided",
                    std::vector<std::size_t>{scale, 1, scale / 2, 0, 3},
                    std::vector<std::size_t>{2, scale / 2, 0, scale / 4, 3}});
  return shapes;
}

std::pair<TpRelation, TpRelation> FreshPair(const Shape& shape,
                                            std::uint64_t seed,
                                            std::shared_ptr<TpContext>* ctx) {
  *ctx = std::make_shared<TpContext>();
  Rng rng(seed);
  TpRelation r = ChainRelation(*ctx, "r", shape.counts_r, 6, 3, &rng);
  TpRelation s = ChainRelation(*ctx, "s", shape.counts_s, 9, 2, &rng);
  return {std::move(r), std::move(s)};
}

// ---- Window stream + final checkpoint, property shapes --------------------

TEST(ColumnarKernelTest, StreamAndCheckpointEqualScalarOnShapes) {
  for (std::uint64_t seed : testing::PropertySeeds({101, 102, 103})) {
    for (const Shape& shape : Shapes(500)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      std::shared_ptr<TpContext> ctx;
      auto [r, s] = FreshPair(shape, seed, &ctx);
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        SweepResult scalar = ScalarSweep(op, r.tuples(), s.tuples());
        SweepResult columnar = ColumnarSweep(op, r.tuples(), s.tuples());
        EXPECT_TRUE(scalar.windows == columnar.windows)
            << "window streams differ: scalar " << scalar.windows.size()
            << " vs columnar " << columnar.windows.size();
        ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
      }
    }
  }
}

// ---- Hand-built edges -----------------------------------------------------

TEST(ColumnarKernelTest, HandBuiltEdges) {
  testing::SupermarketDb db;
  const std::vector<std::pair<const TpRelation*, const TpRelation*>> pairs = {
      {&db.a, &db.b}, {&db.a, &db.c}, {&db.c, &db.a}, {&db.b, &db.c}};
  for (const auto& [r, s] : pairs) {
    for (SetOpKind op : kAllSetOps) {
      SCOPED_TRACE(std::string(r->name()) + " " + SetOpName(op) + " " +
                   s->name());
      // The paper relations are added via AddBase in sorted-enough order;
      // sort copies to satisfy the advancer contract explicitly.
      std::vector<TpTuple> rt = r->tuples(), st = s->tuples();
      SortTuples(&rt, SortMode::kComparison);
      SortTuples(&st, SortMode::kComparison);
      SweepResult scalar = ScalarSweep(op, rt, st);
      SweepResult columnar = ColumnarSweep(op, rt, st);
      EXPECT_TRUE(scalar.windows == columnar.windows);
      ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
    }
  }
}

TEST(ColumnarKernelTest, EmptyAndOneSidedInputs) {
  auto ctx = std::make_shared<TpContext>();
  Rng rng(7);
  TpRelation r = ChainRelation(ctx, "r", {4, 0, 2}, 5, 2, &rng);
  TpRelation empty(ctx, Schema::SingleInt("fact"), "empty");
  empty.SortFactTime();
  for (SetOpKind op : kAllSetOps) {
    SCOPED_TRACE(SetOpName(op));
    for (const auto& [a, b] : {std::make_pair(&r, &empty),
                               std::make_pair(&empty, &r),
                               std::make_pair(&empty, &empty)}) {
      SweepResult scalar = ScalarSweep(op, a->tuples(), b->tuples());
      SweepResult columnar = ColumnarSweep(op, a->tuples(), b->tuples());
      EXPECT_TRUE(scalar.windows == columnar.windows);
      ExpectCkptEqual(scalar.ckpt, columnar.ckpt, "final checkpoint");
    }
  }
}

// ---- Sequential LawaSetOp: byte-equal to the scalar reference -------------

TEST(ColumnarKernelTest, SequentialLawaByteEqual) {
  for (std::uint64_t seed : testing::PropertySeeds({111, 112})) {
    for (const Shape& shape : Shapes(400)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        // Fresh, identically seeded contexts: with identical window streams
        // the concatenation order — and so every interned lineage id — must
        // coincide.
        std::shared_ptr<TpContext> ctx1, ctx2;
        auto [r1, s1] = FreshPair(shape, seed, &ctx1);
        auto [r2, s2] = FreshPair(shape, seed, &ctx2);
        TpRelation scalar = testing::ScalarLawaSetOp(op, r1, s1);
        LawaStats stats;
        TpRelation lawa =
            LawaSetOp(op, r2, s2, SortMode::kComparison, &stats);
        EXPECT_EQ(stats.sweeps_columnar, 1u);
        ExpectBitEqual(scalar, lawa, "LawaSetOp vs scalar reference");
      }
    }
  }
}

// ---- Parallel bit-identical: byte-equal across threads and morsels --------

TEST(ColumnarKernelTest, ParallelBitIdenticalByteEqual) {
  const std::size_t thread_counts[] = {1, 4, 8};
  const std::size_t morsel_sizes[] = {1, 16, 0};  // 0 = auto
  for (std::uint64_t seed : testing::PropertySeeds({121})) {
    for (const Shape& shape : Shapes(400)) {
      SCOPED_TRACE("shape=" + shape.name + " seed=" + std::to_string(seed));
      for (SetOpKind op : kAllSetOps) {
        SCOPED_TRACE(SetOpName(op));
        std::shared_ptr<TpContext> oracle_ctx;
        auto [ro, so] = FreshPair(shape, seed, &oracle_ctx);
        TpRelation expected = testing::ScalarLawaSetOp(op, ro, so);
        for (std::size_t threads : thread_counts) {
          for (std::size_t morsel_size : morsel_sizes) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " morsel_size=" + std::to_string(morsel_size));
            ParallelSetOpAlgorithm algo(threads, SortMode::kComparison,
                                        ApplyMode::kBitIdentical, morsel_size);
            std::shared_ptr<TpContext> ctx;
            auto [r, s] = FreshPair(shape, seed, &ctx);
            TpRelation out = algo.Compute(op, r, s);
            ExpectBitEqual(out, expected, "LAWA-P vs scalar reference");
          }
        }
      }
    }
  }
}

// LAWA-P/8 bit-identical on a synthetic pair: every morsel sweeps columnar
// slices of one shared view, and the output must equal the paper-literal
// scalar reference field for field (fact, interval, lineage id).
TEST(ColumnarKernelTest, ParallelEightThreadsEqualsScalarReference) {
  auto make_pair = [](std::shared_ptr<TpContext> ctx) {
    Rng rng(0x9A7A11E1);
    SyntheticPairSpec spec = TableIIIPreset(0.6);
    spec.num_tuples = 4000;
    spec.num_facts = 8;
    return GenerateSyntheticPair(std::move(ctx), spec, &rng);
  };
  ParallelSetOpAlgorithm algo(8, SortMode::kComparison,
                              ApplyMode::kBitIdentical);
  for (SetOpKind op : kAllSetOps) {
    SCOPED_TRACE(SetOpName(op));
    auto ref_ctx = std::make_shared<TpContext>();
    auto ctx = std::make_shared<TpContext>();
    auto [ro, so] = make_pair(ref_ctx);
    auto [r, s] = make_pair(ctx);
    TpRelation expected = testing::ScalarLawaSetOp(op, ro, so);
    LawaStats stats;
    TpRelation out = algo.ComputeSequenced(op, r, s, &stats);
    EXPECT_EQ(stats.sweeps_columnar, stats.morsels_run);
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].fact, expected[i].fact) << "tuple " << i;
      ASSERT_EQ(out[i].t, expected[i].t) << "tuple " << i;
      ASSERT_EQ(out[i].lineage, expected[i].lineage) << "tuple " << i;
    }
  }
}

// ---- Checkpoint round-trips across kernels --------------------------------

TEST(ColumnarKernelTest, CheckpointRoundTripsAcrossKernels) {
  for (std::uint64_t seed : testing::PropertySeeds({131, 132})) {
    std::shared_ptr<TpContext> ctx;
    auto [r, s] = FreshPair(Shapes(300)[0], seed, &ctx);
    const std::vector<TpTuple>& rt = r.tuples();
    const std::vector<TpTuple>& st = s.tuples();
    for (SetOpKind op : kAllSetOps) {
      // Cut both sides mid-array (any per-side prefix of chain inputs is a
      // valid advancer input) and sweep the prefix to its drain point under
      // each kernel — the saved status must already be identical.
      for (const auto& [fr, fs] : {std::make_pair(2, 3), std::make_pair(3, 2),
                                   std::make_pair(1, 1)}) {
        SCOPED_TRACE(std::string(SetOpName(op)) + " seed=" +
                     std::to_string(seed) + " cut=" + std::to_string(fr) +
                     "/" + std::to_string(fs));
        std::vector<TpTuple> rp(rt.begin(),
                                rt.begin() + rt.size() * fr / (fr + fs));
        std::vector<TpTuple> sp(st.begin(),
                                st.begin() + st.size() * fs / (fr + fs));
        SweepResult scalar_prefix = ScalarSweep(op, rp, sp);
        SweepResult columnar_prefix = ColumnarSweep(op, rp, sp);
        EXPECT_TRUE(scalar_prefix.windows == columnar_prefix.windows);
        ExpectCkptEqual(scalar_prefix.ckpt, columnar_prefix.ckpt,
                        "prefix checkpoint");

        // Cross-restore over the full inputs: the columnar-saved status
        // continues under the scalar kernel and vice versa; continuation
        // streams and final status must agree.
        SweepResult cont_scalar;
        {
          LineageAwareWindowAdvancer adv(rt.data(), rt.size(), st.data(),
                                         st.size());
          adv.Restore(columnar_prefix.ckpt);
          ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
            cont_scalar.windows.push_back(
                {w.fact, w.t.start, w.t.end, w.lr, w.ls});
          });
          cont_scalar.ckpt = adv.Checkpoint();
        }
        SweepResult cont_columnar;
        {
          ColumnarView rv, sv;
          rv.Build(rt.data(), rt.size());
          sv.Build(st.data(), st.size());
          ColumnarAdvancer adv(rv.Columns(), sv.Columns());
          adv.Restore(scalar_prefix.ckpt);
          adv.Sweep(op, [&](const LineageAwareWindow& w) {
            cont_columnar.windows.push_back(
                {w.fact, w.t.start, w.t.end, w.lr, w.ls});
          });
          cont_columnar.ckpt = adv.Checkpoint();
        }
        EXPECT_TRUE(cont_scalar.windows == cont_columnar.windows)
            << "continuation streams differ: scalar "
            << cont_scalar.windows.size() << " vs columnar "
            << cont_columnar.windows.size();
        ExpectCkptEqual(cont_scalar.ckpt, cont_columnar.ckpt,
                        "continuation checkpoint");
      }
    }
  }
}

// ---- The columnar resume --------------------------------------------------

// A columnar resume from a non-zero checkpoint over inputs that carry no
// columns projects only the unswept suffix, shifting the checkpoint cursors
// into suffix space and back. From the same prefix checkpoint (saved by
// either kernel) it must continue exactly like the scalar advancer — the
// mid-array cut, a one-row suffix, rows appended to r only (an empty s
// suffix) and a checkpoint at the end of r — and from a fact-boundary cut
// the stitched union stream and final status must equal one full sweep.
TEST(ColumnarKernelTest, ColumnarResumeProjectsUnsweptSuffix) {
  std::shared_ptr<TpContext> ctx;
  auto [r, s] = FreshPair(Shapes(300)[0], 161, &ctx);
  const std::vector<TpTuple>& rt = r.tuples();
  const std::vector<TpTuple>& st = s.tuples();
  auto record = [](SweepResult* out) {
    return [out](const LineageAwareWindow& w) {
      out->windows.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
    };
  };
  // Continues `from` over the first nr / ns tuples: the paper-literal
  // scalar advancer (the reference) or SweepWindows (the engine's resume).
  auto scalar = [&](SetOpKind op, std::size_t nr, std::size_t ns,
                    const AdvancerCheckpoint& from) {
    SweepResult out;
    LineageAwareWindowAdvancer adv(rt.data(), nr, st.data(), ns);
    adv.Restore(from);
    ForEachSurvivingWindow(op, adv, record(&out));
    out.ckpt = adv.Checkpoint();
    return out;
  };
  auto columnar = [&](SetOpKind op, std::size_t nr, std::size_t ns,
                      const AdvancerCheckpoint& from) {
    SweepResult out;
    out.ckpt = from;
    SweepWindows(op, {rt.data(), nr, std::nullopt},
                 {st.data(), ns, std::nullopt}, &out.ckpt, record(&out));
    return out;
  };

  struct Cut {
    const char* name;
    std::size_t nr, ns;  // prefix swept before the resume over everything
  };
  const Cut cuts[] = {{"mid", rt.size() / 3, st.size() / 2},
                      {"one_row", rt.size() - 1, st.size()},
                      {"r_only", rt.size() / 2, st.size()},
                      {"r_end", rt.size(), st.size() / 2}};
  for (const Cut& cut : cuts) {
    for (SetOpKind op : kAllSetOps) {
      for (bool prefix_columnar : {false, true}) {
        SCOPED_TRACE(std::string(cut.name) + " " + SetOpName(op) +
                     " prefix " + (prefix_columnar ? "columnar" : "scalar"));
        const AdvancerCheckpoint prefix =
            prefix_columnar ? columnar(op, cut.nr, cut.ns, {}).ckpt
                            : scalar(op, cut.nr, cut.ns, {}).ckpt;
        // Every resume starts from a non-zero checkpoint, the only case
        // that shifts the cursors into suffix space and back.
        ASSERT_GT(prefix.ri + prefix.si, 0u);
        if (op == SetOpKind::kUnion) {
          // Union drains both prefixes, so the cut shapes the suffix
          // exactly: one row, nothing on s, nothing left on r.
          ASSERT_EQ(prefix.ri, cut.nr);
          ASSERT_EQ(prefix.si, cut.ns);
        }
        const SweepResult expected = scalar(op, rt.size(), st.size(), prefix);
        const SweepResult resumed = columnar(op, rt.size(), st.size(), prefix);
        EXPECT_TRUE(expected.windows == resumed.windows)
            << "resumed streams differ: scalar " << expected.windows.size()
            << " vs columnar " << resumed.windows.size();
        ExpectCkptEqual(expected.ckpt, resumed.ckpt, "resumed checkpoint");
      }
    }
  }

  // Union from a fact-boundary cut: the prefix sweep drains both sides up
  // to the cut, so resuming its checkpoint over the full inputs is exact.
  auto first_of = [](const std::vector<TpTuple>& side, FactId f) {
    return static_cast<std::size_t>(
        std::lower_bound(side.begin(), side.end(), f,
                         [](const TpTuple& t, FactId v) { return t.fact < v; }) -
        side.begin());
  };
  FactId cut = 1;
  while (first_of(rt, cut) == 0 || first_of(st, cut) == 0) ++cut;
  const SweepResult full = ScalarSweep(SetOpKind::kUnion, rt, st);
  const SweepResult prefix = scalar(SetOpKind::kUnion, first_of(rt, cut),
                                    first_of(st, cut), {});
  EXPECT_EQ(prefix.ckpt.ri, first_of(rt, cut));
  EXPECT_EQ(prefix.ckpt.si, first_of(st, cut));
  SweepResult stitched = columnar(SetOpKind::kUnion, rt.size(), st.size(),
                                  prefix.ckpt);
  stitched.windows.insert(stitched.windows.begin(), prefix.windows.begin(),
                          prefix.windows.end());
  EXPECT_TRUE(stitched.windows == full.windows);
  ExpectCkptEqual(stitched.ckpt, full.ckpt, "stitched checkpoint");
}

// The production resume: IncrementalSetOp resumes every epoch from the
// fact's checkpoint over the unswept suffix only — a bulk catch-up, a
// one-row epoch, rows appended to r only, an s-only epoch after the sweep
// stopped at the end of one side — and each epoch's inserted tuples equal
// the scalar advancer's continuation from the same status (lineage ids
// included: the reference concatenates into the same hash-consed arena),
// with the same window count. The accumulated output equals a
// from-scratch LawaSetOp.
TEST(ColumnarKernelTest, IncrementalResumeCountsUnsweptSuffix) {
  // (r rows, s rows) per epoch.
  const std::pair<std::size_t, std::size_t> epoch_rows[] = {
      {8, 8}, {40, 40}, {1, 1}, {1, 0}, {5, 0}, {0, 3}, {2, 2}};
  for (SetOpKind op : kAllSetOps) {
    SCOPED_TRACE(SetOpName(op));
    auto ctx = std::make_shared<TpContext>();
    const FactId fact = ctx->facts().Intern({Value(std::int64_t{0})});
    TpRelation r(ctx, Schema::SingleInt("fact"), "r");
    TpRelation s(ctx, Schema::SingleInt("fact"), "s");
    Rng rng(171);
    // Each epoch's rows on both sides start after every earlier row ends,
    // so every delta lies past the sweep frontier and resumes.
    std::vector<std::pair<std::size_t, std::size_t>> bounds;  // r/s ends
    TimePoint epoch_start = 0;
    for (const auto& [r_rows, s_rows] : epoch_rows) {
      TimePoint epoch_end = epoch_start;
      for (auto [rel, rows] : {std::make_pair(&r, r_rows),
                               std::make_pair(&s, s_rows)}) {
        TimePoint cursor = epoch_start;
        for (std::size_t i = 0; i < rows; ++i) {
          const TimePoint start = cursor + rng.Uniform(0, 3);
          const TimePoint end = start + rng.Uniform(1, 6);
          rel->AddBaseFast(fact, Interval(start, end),
                           0.1 + 0.8 * rng.NextDouble());
          cursor = end;
        }
        epoch_end = std::max(epoch_end, cursor);
      }
      bounds.push_back({r.size(), s.size()});
      epoch_start = epoch_end + 1;
    }
    r.SortFactTime();
    s.SortFactTime();
    const std::vector<TpTuple>& rt = r.tuples();
    const std::vector<TpTuple>& st = s.tuples();

    IncrementalSetOp inc(op);
    AdvancerCheckpoint reference;  // the scalar advancer's status
    std::size_t rb = 0, sb = 0;
    for (std::size_t e = 0; e < bounds.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      const auto [re, se] = bounds[e];
      DeltaMap left, right;
      if (re > rb) {
        left[fact].inserted.assign(rt.begin() + rb, rt.begin() + re);
      }
      if (se > sb) {
        right[fact].inserted.assign(st.begin() + sb, st.begin() + se);
      }
      const LawaStats before = inc.stats();
      DeltaMap out = inc.Apply(left, right, ctx->lineage());
      const LawaStats& after = inc.stats();
      EXPECT_EQ(after.facts_resumed - before.facts_resumed, 1u);
      EXPECT_EQ(after.facts_reswept, 0u);
      EXPECT_EQ(after.sweeps_columnar - before.sweeps_columnar, 1u);

      std::vector<TpTuple> expected;
      LineageAwareWindowAdvancer adv(rt.data(), re, st.data(), se);
      adv.Restore(reference);
      ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
        expected.push_back(
            {w.fact, w.t, Concat(op, ctx->lineage(), w.lr, w.ls)});
      });
      const AdvancerCheckpoint next = adv.Checkpoint();
      EXPECT_EQ(after.windows_produced - before.windows_produced,
                next.windows_produced - reference.windows_produced);
      const std::vector<TpTuple> inserted =
          out.count(fact) > 0 ? out[fact].inserted : std::vector<TpTuple>{};
      EXPECT_EQ(inserted, expected);
      reference = next;
      rb = re;
      sb = se;
    }
    TpRelation accumulated(ctx, Schema::SingleInt("fact"), "acc");
    inc.AppendAccumulated(&accumulated);
    EXPECT_TRUE(RelationsEquivalent(accumulated, LawaSetOp(op, r, s)));
  }
}

// ---- Every sweep columnar under a continuous schedule ---------------------

// One schedule of bulk loads (whole facts of 80 tuples) and one-row-per-fact
// epochs (per-fact resumes of a tuple or two): every operator's fact apply
// sweeps columnar, and the accumulated results still fold to a
// from-scratch Execute.
TEST(ColumnarKernelTest, ContinuousScheduleEverySweepColumnar) {
  auto ctx = std::make_shared<TpContext>();
  QueryExecutor exec(ctx);
  const std::vector<std::string> rel_names = {"r", "s", "u"};
  for (const std::string& name : rel_names) {
    TpRelation rel(ctx, Schema::SingleInt("fact"), name);
    ASSERT_TRUE(exec.Register(rel).ok());
  }
  const std::vector<std::string> queries = {"r - s", "(r | s) & u"};
  std::vector<ContinuousQuery*> cqs;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Result<ContinuousQuery*> cq =
        exec.RegisterContinuous("q" + std::to_string(i), queries[i]);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    cqs.push_back(*cq);
  }
  std::size_t fact_applies = 0, sweeps = 0;
  auto append = [&](const std::string& rel, const DeltaBatch& batch) {
    Result<EpochId> epoch = exec.Append(rel, batch);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    for (const ContinuousQuery* cq : cqs) {
      if (!cq->Reads(rel)) continue;
      for (const auto& op_span : cq->last_profile().root().children) {
        fact_applies +=
            op_span->stats.facts_resumed + op_span->stats.facts_reswept;
        sweeps += op_span->stats.sweeps_columnar;
      }
    }
  };

  Rng rng(151);
  constexpr std::size_t kFacts = 4;
  std::vector<std::vector<TimePoint>> cursor(
      rel_names.size(), std::vector<TimePoint>(kFacts, 0));
  auto add_row = [&](std::size_t rel, std::size_t fact, DeltaBatch* batch) {
    TimePoint& cur = cursor[rel][fact];
    cur += rng.Uniform(0, 3);
    const TimePoint len = rng.Uniform(1, 5);
    batch->Add({Value(static_cast<std::int64_t>(fact))},
               Interval(cur, cur + len), 0.1 + 0.8 * rng.NextDouble());
    cur += len;
  };
  for (std::size_t ri = 0; ri < rel_names.size(); ++ri) {
    DeltaBatch bulk;
    for (std::size_t fact = 0; fact < kFacts; ++fact) {
      for (int k = 0; k < 80; ++k) add_row(ri, fact, &bulk);
    }
    append(rel_names[ri], bulk);
  }
  for (std::size_t e = 0; e < 12; ++e) {
    const std::size_t ri = e % rel_names.size();
    DeltaBatch batch;
    for (std::size_t fact = 0; fact < kFacts; ++fact) add_row(ri, fact, &batch);
    append(rel_names[ri], batch);
  }
  EXPECT_GT(fact_applies, 0u);
  EXPECT_EQ(sweeps, fact_applies) << "every fact apply sweeps columnar";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    Result<TpRelation> oneshot = exec.Execute(queries[i]);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
    EXPECT_TRUE(RelationsEquivalent(cqs[i]->Current(), *oneshot));
  }
}

}  // namespace
}  // namespace tpset
