// Differential belt for the columnar SoA sweep kernel: ColumnarAdvancer
// must be indistinguishable from LineageAwareWindowAdvancer at every
// observable surface — the window stream (fact, interval, λr, λs in emit
// order) and the final advancer status (AdvancerCheckpoint). Checkpoints
// are additionally round-tripped across kernels in both directions: state
// saved by one kernel, restored into the other, must continue the sweep
// identically. The engine paths that pick the columnar kernel by size
// (lawa/sweep.h) — sequential LawaSetOp and LAWA-P bit-identical across
// thread counts and morsel sizes — must equal the paper-literal scalar
// reference (testing::ScalarLawaSetOp) byte for byte, lineage ids included;
// a columnar resume from a non-zero checkpoint (the incremental engine's
// bulk catch-up) must continue exactly like the scalar advancer; and a
// continuous schedule must run both kernels and still fold to a
// from-scratch Execute.
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
        EXPECT_EQ(stats.sweeps_columnar, 1u) << "size rule picked scalar";
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

// LAWA-P/8 bit-identical on a synthetic pair well above the kernel rule's
// threshold: every morsel sweeps columnar slices of one shared view, and
// the output must equal the paper-literal scalar reference field for field
// (fact, interval, lineage id).
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
    ASSERT_GE(r.size() + s.size(), kColumnarMinTuples);
    TpRelation expected = testing::ScalarLawaSetOp(op, ro, so);
    LawaStats stats;
    TpRelation out = algo.ComputeSequenced(op, r, s, /*seq=*/nullptr,
                                           /*ticket=*/0, &stats);
    EXPECT_EQ(stats.sweeps_scalar, 0u);
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

// ---- The size rule and the columnar resume --------------------------------

TEST(ColumnarKernelTest, SizeRuleThreshold) {
  EXPECT_FALSE(SweepsColumnar(0));
  EXPECT_FALSE(SweepsColumnar(kColumnarMinTuples - 1));
  EXPECT_TRUE(SweepsColumnar(kColumnarMinTuples));
}

// A columnar resume from a non-zero checkpoint over inputs that carry no
// columns projects only the unswept suffix, shifting the checkpoint cursors
// into suffix space and back. From the same mid-array checkpoint it must
// continue exactly like the scalar advancer, and from a fact-boundary cut
// the stitched union stream and final status must equal one full sweep.
TEST(ColumnarKernelTest, ColumnarResumeProjectsUnsweptSuffix) {
  std::shared_ptr<TpContext> ctx;
  auto [r, s] = FreshPair(Shapes(300)[0], 161, &ctx);
  const std::vector<TpTuple>& rt = r.tuples();
  const std::vector<TpTuple>& st = s.tuples();
  auto sweep = [&](SetOpKind op, bool columnar, std::size_t nr,
                   std::size_t ns, AdvancerCheckpoint* ckpt,
                   std::vector<Win>* out) {
    SweepWindows(op, columnar, {rt.data(), nr, std::nullopt},
                 {st.data(), ns, std::nullopt}, ckpt,
                 [&](const LineageAwareWindow& w) {
                   out->push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
                 });
  };

  for (SetOpKind op : kAllSetOps) {
    for (bool prefix_columnar : {false, true}) {
      SCOPED_TRACE(std::string(SetOpName(op)) + " prefix " +
                   (prefix_columnar ? "columnar" : "scalar"));
      AdvancerCheckpoint prefix;
      std::vector<Win> prefix_windows;
      sweep(op, prefix_columnar, rt.size() / 3, st.size() / 2, &prefix,
            &prefix_windows);
      ASSERT_GT(prefix.ri + prefix.si, 0u);
      ASSERT_GE((rt.size() - prefix.ri) + (st.size() - prefix.si),
                kColumnarMinTuples);
      AdvancerCheckpoint scalar_ckpt = prefix, columnar_ckpt = prefix;
      std::vector<Win> scalar_windows, columnar_windows;
      sweep(op, false, rt.size(), st.size(), &scalar_ckpt, &scalar_windows);
      sweep(op, true, rt.size(), st.size(), &columnar_ckpt,
            &columnar_windows);
      EXPECT_TRUE(scalar_windows == columnar_windows)
          << "resumed streams differ: scalar " << scalar_windows.size()
          << " vs columnar " << columnar_windows.size();
      ExpectCkptEqual(scalar_ckpt, columnar_ckpt, "resumed checkpoint");
    }
  }

  // Union from a fact-boundary cut with at least kColumnarMinTuples tuples
  // after it: the prefix sweep drains both sides up to the cut, so resuming
  // its checkpoint over the full inputs is exact.
  auto first_of = [](const std::vector<TpTuple>& side, FactId f) {
    return static_cast<std::size_t>(
        std::lower_bound(side.begin(), side.end(), f,
                         [](const TpTuple& t, FactId v) { return t.fact < v; }) -
        side.begin());
  };
  FactId cut = 1;
  while (first_of(rt, cut) == 0 || first_of(st, cut) == 0) ++cut;
  ASSERT_GE((rt.size() - first_of(rt, cut)) + (st.size() - first_of(st, cut)),
            kColumnarMinTuples);
  SweepResult expected = ScalarSweep(SetOpKind::kUnion, rt, st);
  AdvancerCheckpoint ckpt;
  std::vector<Win> stitched;
  sweep(SetOpKind::kUnion, false, first_of(rt, cut), first_of(st, cut), &ckpt,
        &stitched);
  EXPECT_EQ(ckpt.ri, first_of(rt, cut));
  EXPECT_EQ(ckpt.si, first_of(st, cut));
  sweep(SetOpKind::kUnion, true, rt.size(), st.size(), &ckpt, &stitched);
  EXPECT_TRUE(stitched == expected.windows);
  ExpectCkptEqual(ckpt, expected.ckpt, "stitched checkpoint");
}

// The production resume: IncrementalSetOp counts the tuples past the
// fact's checkpoint cursors, so a small first epoch sweeps scalar, a bulk
// catch-up past it resumes columnar from a non-zero checkpoint, and a
// one-row epoch after that is scalar again — every epoch a resume, and the
// accumulated output equal to a from-scratch LawaSetOp.
TEST(ColumnarKernelTest, IncrementalResumeCountsUnsweptSuffix) {
  const std::size_t epoch_rows[] = {8, 40, 1};  // per side
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
    for (std::size_t rows : epoch_rows) {
      TimePoint epoch_end = epoch_start;
      for (TpRelation* rel : {&r, &s}) {
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

    IncrementalSetOp inc(op);
    std::size_t rb = 0, sb = 0;
    const bool expect_columnar[] = {false, true, false};
    for (std::size_t e = 0; e < bounds.size(); ++e) {
      SCOPED_TRACE("epoch " + std::to_string(e));
      DeltaMap left, right;
      left[fact].inserted.assign(r.tuples().begin() + rb,
                                 r.tuples().begin() + bounds[e].first);
      right[fact].inserted.assign(s.tuples().begin() + sb,
                                  s.tuples().begin() + bounds[e].second);
      const LawaStats before = inc.stats();
      inc.Apply(left, right, ctx->lineage());
      const LawaStats& after = inc.stats();
      EXPECT_EQ(after.facts_resumed - before.facts_resumed, 1u);
      EXPECT_EQ(after.facts_reswept, 0u);
      EXPECT_EQ(after.sweeps_columnar - before.sweeps_columnar,
                expect_columnar[e] ? 1u : 0u);
      EXPECT_EQ(after.sweeps_scalar - before.sweeps_scalar,
                expect_columnar[e] ? 0u : 1u);
      rb = bounds[e].first;
      sb = bounds[e].second;
    }
    TpRelation accumulated(ctx, Schema::SingleInt("fact"), "acc");
    inc.AppendAccumulated(&accumulated);
    EXPECT_TRUE(RelationsEquivalent(accumulated, LawaSetOp(op, r, s)));
  }
}

// ---- The size rule under a continuous schedule ----------------------------

// Kernel sweeps recorded across every operator of `cq`'s last epoch.
void AddEpochSweeps(const ContinuousQuery& cq, std::size_t* scalar,
                    std::size_t* columnar) {
  for (const auto& op_span : cq.last_profile().root().children) {
    *scalar += op_span->stats.sweeps_scalar;
    *columnar += op_span->stats.sweeps_columnar;
  }
}

// One schedule exercises both sides of the rule: a bulk initial load sweeps
// whole facts (80 tuples each — columnar), then one-row-per-fact epochs
// resume per-fact suffixes of a tuple or two (scalar). Checkpoints cross
// kernels at every switch, and the accumulated results still fold to a
// from-scratch Execute.
TEST(ColumnarKernelTest, ContinuousScheduleRunsBothKernels) {
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
  std::size_t scalar = 0, columnar = 0;
  auto append = [&](const std::string& rel, const DeltaBatch& batch) {
    Result<EpochId> epoch = exec.Append(rel, batch);
    ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
    for (const ContinuousQuery* cq : cqs) {
      if (cq->Reads(rel)) AddEpochSweeps(*cq, &scalar, &columnar);
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
  EXPECT_GT(columnar, 0u) << "bulk load should sweep columnar";
  for (std::size_t e = 0; e < 12; ++e) {
    const std::size_t ri = e % rel_names.size();
    DeltaBatch batch;
    for (std::size_t fact = 0; fact < kFacts; ++fact) add_row(ri, fact, &batch);
    append(rel_names[ri], batch);
  }
  EXPECT_GT(scalar, 0u) << "one-row deltas should sweep scalar";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    Result<TpRelation> oneshot = exec.Execute(queries[i]);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
    EXPECT_TRUE(RelationsEquivalent(cqs[i]->Current(), *oneshot));
  }
}

}  // namespace
}  // namespace tpset
