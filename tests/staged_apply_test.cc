// Property tests for ApplyMode::kStaged: per-partition staging arenas +
// sequential splice must yield tuple-for-tuple equal (fact, interval) output
// in the same order as sequential LAWA, with probability-equal lineage
// (valuation via lineage/eval.cc) — across skewed, single-fact,
// shared-context/derived-input, and whole-query scenarios. Staged
// node *ids* may differ from the sequential interning order; everything
// observable through valuation and canonical keys may not.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "lineage/eval.h"
#include "lineage/staging.h"
#include "parallel/parallel_set_op.h"
#include "query/executor.h"
#include "relation/validate.h"
#include "tests/test_util.h"

namespace tpset {
namespace {

using testing::MakeRelation;
using testing::SupermarketDb;

ParallelSetOpAlgorithm StagedAlgo(std::size_t threads) {
  return ParallelSetOpAlgorithm(threads, SortMode::kComparison,
                                ApplyMode::kStaged);
}

// Copies formula `id` of `from` into `to` node by node (memoized on source
// ids).
LineageId Reintern(const LineageManager& from, LineageId id, LineageManager* to,
                   std::unordered_map<LineageId, LineageId>* memo) {
  auto it = memo->find(id);
  if (it != memo->end()) return it->second;
  const LineageNode& n = from.node(id);
  LineageId out = kNullLineage;
  switch (n.kind) {
    case LineageKind::kFalse:
      out = to->False();
      break;
    case LineageKind::kTrue:
      out = to->True();
      break;
    case LineageKind::kVar:
      out = to->MakeVar(n.var);
      break;
    case LineageKind::kNot:
      out = to->MakeNot(Reintern(from, n.left, to, memo));
      break;
    case LineageKind::kAnd:
      out = to->MakeAnd(Reintern(from, n.left, to, memo),
                        Reintern(from, n.right, to, memo));
      break;
    case LineageKind::kOr:
      out = to->MakeOr(Reintern(from, n.left, to, memo),
                       Reintern(from, n.right, to, memo));
      break;
  }
  memo->emplace(id, out);
  return out;
}

// Exact (Shannon) probability of tuple i. ProbabilityExact requires a
// hash-consing manager, so lineage from an append-only arena is first
// re-interned into a consing one — the valuation itself is unchanged.
double ExactProbability(const TpRelation& rel, std::size_t i) {
  const LineageManager& mgr = rel.context()->lineage();
  if (mgr.hash_consing()) {
    return rel.TupleProbability(i, ProbabilityMethod::kExact);
  }
  LineageManager consing(/*hash_consing=*/true);
  std::unordered_map<LineageId, LineageId> memo;
  const LineageId id = Reintern(mgr, rel[i].lineage, &consing, &memo);
  return ProbabilityExact(consing, id, rel.context()->vars());
}

// Same tuples in the same order — (fact, interval) exactly; lineage up to
// probability (exact Shannon valuation) and canonical structure.
void ExpectValuationEqual(const TpRelation& expected, const TpRelation& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  const LineageManager& mgr = expected.context()->lineage();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].fact, actual[i].fact) << "tuple " << i;
    EXPECT_EQ(expected[i].t, actual[i].t) << "tuple " << i;
    // The set-operation algebra never builds the formulas that staging folds
    // differently (top-level ¬ inputs), so canonical keys must agree here.
    EXPECT_EQ(mgr.CanonicalKey(expected[i].lineage),
              mgr.CanonicalKey(actual[i].lineage))
        << "tuple " << i;
    EXPECT_NEAR(ExactProbability(expected, i), ExactProbability(actual, i),
                1e-12)
        << "tuple " << i;
  }
}

void ExpectStagedMatchesSequential(const TpRelation& r, const TpRelation& s,
                                   std::size_t num_threads) {
  ParallelSetOpAlgorithm staged = StagedAlgo(num_threads);
  for (SetOpKind op : kAllSetOps) {
    TpRelation expected = LawaSetOp(op, r, s);
    TpRelation actual = staged.Compute(op, r, s);
    ExpectValuationEqual(expected, actual);
    EXPECT_TRUE(ValidateDuplicateFree(actual).ok());
    EXPECT_TRUE(actual.IsSortedFactTime());
    EXPECT_TRUE(actual.known_sorted());
  }
}

TEST(StagedApplyTest, PaperExampleAllOps) {
  SupermarketDb db;
  ExpectStagedMatchesSequential(db.a, db.c, 4);
}

TEST(StagedApplyTest, EmptyRelations) {
  SupermarketDb db;
  TpRelation empty(db.ctx, db.a.schema(), "empty");
  ExpectStagedMatchesSequential(db.a, empty, 4);
  ExpectStagedMatchesSequential(empty, db.a, 4);
  ExpectStagedMatchesSequential(empty, empty, 4);
}

TEST(StagedApplyTest, SingleFactInputs) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation r = MakeRelation(ctx, "r",
                              {{"milk", "r1", 0, 5, 0.5},
                               {"milk", "r2", 7, 9, 0.4},
                               {"milk", "r3", 12, 20, 0.9}});
  TpRelation s = MakeRelation(ctx, "s",
                              {{"milk", "s1", 3, 8, 0.6},
                               {"milk", "s2", 10, 14, 0.7}});
  // More threads (and partitions) than facts: one partition, one staging
  // arena, still equivalent.
  ExpectStagedMatchesSequential(r, s, 8);
}

TEST(StagedApplyTest, SkewedFactDistribution) {
  auto ctx = std::make_shared<TpContext>();
  TpRelation r(ctx, Schema::SingleString("Product"), "r");
  TpRelation s(ctx, Schema::SingleString("Product"), "s");
  FactId hot = ctx->facts().Intern({Value(std::string("hot"))});
  for (int i = 0; i < 180; ++i) {
    r.AddBaseFast(hot, Interval(3 * i, 3 * i + 2), 0.5);
  }
  for (int i = 0; i < 10; ++i) {
    FactId cold = ctx->facts().Intern({Value("cold" + std::to_string(i))});
    r.AddBaseFast(cold, Interval(i, i + 4), 0.3);
    s.AddBaseFast(cold, Interval(i + 2, i + 8), 0.6);
    s.AddBaseFast(hot, Interval(30 * i + 1, 30 * i + 7), 0.8);
  }
  r.SortFactTime();
  s.SortFactTime();
  ASSERT_TRUE(ValidateSetOpInputs(r, s).ok());
  ExpectStagedMatchesSequential(r, s, 4);
}

TEST(StagedApplyTest, SharedContextDerivedInputs) {
  // Inputs that are themselves set-operation outputs: the staged
  // concatenations then reference non-atomic base formulas, and sequential
  // and staged runs share one consing arena.
  SupermarketDb db;
  TpRelation u = LawaUnion(db.a, db.b);
  TpRelation x = LawaIntersect(db.a, db.c);
  ExpectStagedMatchesSequential(u, db.c, 4);
  ExpectStagedMatchesSequential(x, u, 4);
  ExpectStagedMatchesSequential(u, u, 3);
}

TEST(StagedApplyTest, RandomizedSyntheticSweep) {
  for (std::uint64_t seed : {21u, 22u, 23u, 24u, 25u, 26u}) {
    auto ctx = std::make_shared<TpContext>();
    Rng rng(seed);
    SyntheticPairSpec spec = TableIIIPreset(0.4 + 0.1 * (seed % 3));
    spec.num_tuples = 200 + rng.Below(400);
    spec.num_facts = 1 + rng.Below(30);
    auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
    ExpectStagedMatchesSequential(r, s, 2 + seed % 4);
  }
}

TEST(StagedApplyTest, WithoutHashConsing) {
  // Append-only arena: the splice takes the pure remap-and-append path.
  auto ctx = std::make_shared<TpContext>(/*hash_consing=*/false);
  Rng rng(99);
  SyntheticPairSpec spec;
  spec.num_tuples = 300;
  spec.num_facts = 12;
  auto [r, s] = GenerateSyntheticPair(ctx, spec, &rng);
  ExpectStagedMatchesSequential(r, s, 4);
}

TEST(StagedApplyTest, DeterministicAcrossRuns) {
  // Same deterministic inputs in two fresh contexts, both run staged with
  // the same thread count: outputs must match bit for bit (ids included) —
  // staged mode is deterministic. Against a third, sequential context the
  // staged arena may only be *larger*: the bulk-append splice skips global
  // deduplication (local per-partition consing still applies), never the
  // other way around.
  auto make_pair = [](std::shared_ptr<TpContext> ctx) {
    Rng rng(321);
    SyntheticPairSpec spec;
    spec.num_tuples = 250;
    spec.num_facts = 12;
    return GenerateSyntheticPair(std::move(ctx), spec, &rng);
  };
  auto ctx1 = std::make_shared<TpContext>();
  auto ctx2 = std::make_shared<TpContext>();
  auto ctx_seq = std::make_shared<TpContext>();
  auto [r1, s1] = make_pair(ctx1);
  auto [r2, s2] = make_pair(ctx2);
  auto [rq, sq] = make_pair(ctx_seq);
  ParallelSetOpAlgorithm staged = StagedAlgo(4);
  for (SetOpKind op : kAllSetOps) {
    TpRelation a = staged.Compute(op, r1, s1);
    TpRelation b = staged.Compute(op, r2, s2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << "tuple " << i;
    }
    TpRelation seq = LawaSetOp(op, rq, sq);
    EXPECT_LE(ctx_seq->lineage().size(), ctx1->lineage().size());
  }
}

TEST(StagedApplyTest, StagingArenaLocalConsingAndFolds) {
  // Unit-level checks of the staging arena against the manager's algebra.
  LineageManager mgr(/*hash_consing=*/true);
  VarTable vars;
  LineageId x = mgr.MakeVar(vars.Add(0.5));
  LineageId y = mgr.MakeVar(vars.Add(0.5));
  const LineageId frozen = static_cast<LineageId>(mgr.size());

  StagingArena arena(frozen, /*hash_consing=*/true);
  LineageId a1 = arena.ConcatAnd(x, y);
  LineageId a2 = arena.ConcatAnd(x, y);
  EXPECT_EQ(a1, a2);  // local consing dedups
  EXPECT_GE(a1, frozen);
  EXPECT_EQ(arena.size(), 1u);

  // Null-aware Table I behavior.
  EXPECT_EQ(arena.ConcatOr(kNullLineage, x), x);
  EXPECT_EQ(arena.ConcatOr(x, kNullLineage), x);
  EXPECT_EQ(arena.ConcatAndNot(x, kNullLineage), x);
  // and(x, x) folds without a cell; andNot(x, y) stages ¬y then x∧¬y; the
  // double negation over the *staged* ¬y folds back to y.
  EXPECT_EQ(arena.ConcatAnd(x, x), x);
  LineageId an = arena.ConcatAndNot(x, y);
  EXPECT_GE(an, frozen);
  std::vector<LineageId> remap;
  mgr.SpliceStaged(arena, &remap);
  ASSERT_EQ(remap.size(), arena.size());

  // Spliced formulas valuate like directly-built ones. The splice bulk-
  // appends (no global consing), so the ids are fresh even though the
  // structures match.
  LineageId direct = mgr.ConcatAnd(x, y);
  EXPECT_EQ(mgr.CanonicalKey(remap[a1 - frozen]), mgr.CanonicalKey(direct));
  LineageId direct_an = mgr.ConcatAndNot(x, y);
  EXPECT_EQ(mgr.CanonicalKey(remap[an - frozen]), mgr.CanonicalKey(direct_an));
  EXPECT_NE(remap[a1 - frozen], direct);
}

// ---- Executor integration: whole queries under staged apply ----

class StagedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(exec_.Register(db_.a).ok());
    ASSERT_TRUE(exec_.Register(db_.b).ok());
    ASSERT_TRUE(exec_.Register(db_.c).ok());
  }

  SupermarketDb db_;
  QueryExecutor exec_{db_.ctx};
};

TEST_F(StagedExecutorTest, WholeTreeEquivalentToSequentialExecution) {
  const char* queries[] = {
      "a",
      "a | b",
      "c - (a | b)",
      "(a | b) & (c | a)",
      "((a | b) - (b & c)) | (c - a)",
      "(a - b) | (b - c) | (c - a)",
  };
  for (const char* q : queries) {
    Result<TpRelation> sequential = exec_.Execute(q);
    ASSERT_TRUE(sequential.ok()) << q;
    for (std::size_t threads : {2u, 4u, 8u}) {
      ExecOptions options;
      options.num_threads = threads;
      options.apply_mode = ApplyMode::kStaged;
      Result<TpRelation> staged = exec_.Execute(q, options);
      ASSERT_TRUE(staged.ok()) << q;
      ExpectValuationEqual(*sequential, *staged);
      EXPECT_TRUE(RelationsEquivalent(*sequential, *staged)) << q;
    }
  }
}

TEST_F(StagedExecutorTest, RepeatedStagedRunsAreStable) {
  // Morsels race on scheduling but each operation splices its staged cells
  // in morsel order, one operation at a time — repeated staged runs in one
  // context must agree structurally (the bulk-append splice assigns fresh node ids
  // each run, since the arena has grown; the formulas themselves, and
  // therefore canonical keys and probabilities, may not change).
  ExecOptions options;
  options.num_threads = 4;
  options.apply_mode = ApplyMode::kStaged;
  const char* q = "((a | b) - (b & c)) | (c - a)";
  Result<TpRelation> first = exec_.Execute(q, options);
  ASSERT_TRUE(first.ok());
  const LineageManager& mgr = db_.ctx->lineage();
  for (int run = 0; run < 5; ++run) {
    Result<TpRelation> again = exec_.Execute(q, options);
    ASSERT_TRUE(again.ok());
    ASSERT_EQ(first->size(), again->size());
    for (std::size_t i = 0; i < first->size(); ++i) {
      EXPECT_EQ((*first)[i].fact, (*again)[i].fact) << "run " << run;
      EXPECT_EQ((*first)[i].t, (*again)[i].t) << "run " << run;
      EXPECT_EQ(mgr.CanonicalKey((*first)[i].lineage),
                mgr.CanonicalKey((*again)[i].lineage))
          << "run " << run << " tuple " << i;
    }
  }
}

}  // namespace
}  // namespace tpset
