// Shared helpers for the tpset test suite.
#ifndef TPSET_TESTS_TEST_UTIL_H_
#define TPSET_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "lawa/advancer.h"
#include "lawa/set_ops.h"
#include "relation/relation.h"

namespace tpset::testing {

/// Seeds a property test should iterate. Normally returns `defaults`; when
/// the LAWA_TEST_SEED environment variable is set, returns just that seed —
/// so a failure logged as "seed=N ..." reproduces with
/// `LAWA_TEST_SEED=N ctest -R <test>`. Every caller must put the seed into
/// a SCOPED_TRACE so failures print it.
inline std::vector<std::uint64_t> PropertySeeds(
    std::vector<std::uint64_t> defaults) {
  if (const char* env = std::getenv("LAWA_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end != env && *end == '\0') return {static_cast<std::uint64_t>(v)};
  }
  return defaults;
}

/// One base-tuple spec: fact value (single string attribute), variable name,
/// interval and probability.
struct TupleSpec {
  std::string fact;
  std::string var;
  TimePoint ts;
  TimePoint te;
  double p;
};

/// Builds a single-string-attribute relation from specs.
inline TpRelation MakeRelation(std::shared_ptr<TpContext> ctx,
                               const std::string& name,
                               const std::vector<TupleSpec>& specs) {
  TpRelation rel(std::move(ctx), Schema::SingleString("Product"), name);
  for (const TupleSpec& s : specs) {
    Result<VarId> added =
        rel.AddBase({Value(s.fact)}, Interval(s.ts, s.te), s.p, s.var);
    if (!added.ok()) {
      // Tests construct valid specs; fail loudly otherwise.
      throw std::runtime_error("MakeRelation: " + added.status().ToString());
    }
  }
  return rel;
}

/// The paper's running example (Fig. 1a): relations a (productsBought),
/// b (productsOrdered) and c (productsInStock) in one shared context.
struct SupermarketDb {
  std::shared_ptr<TpContext> ctx = std::make_shared<TpContext>();
  TpRelation a = MakeRelation(ctx, "a",
                              {{"milk", "a1", 2, 10, 0.3},
                               {"chips", "a2", 4, 7, 0.8},
                               {"dates", "a3", 1, 3, 0.6}});
  TpRelation b = MakeRelation(ctx, "b",
                              {{"milk", "b1", 5, 9, 0.6},
                               {"chips", "b2", 3, 6, 0.9}});
  TpRelation c = MakeRelation(ctx, "c",
                              {{"milk", "c1", 1, 4, 0.6},
                               {"milk", "c2", 6, 8, 0.7},
                               {"chips", "c3", 4, 5, 0.7},
                               {"chips", "c4", 7, 9, 0.8}});
};

/// One expected output row: fact, interval, lineage (rendered with unicode
/// connectives, paper style) and probability.
struct ExpectedRow {
  std::string fact;
  TimePoint ts;
  TimePoint te;
  std::string lineage;
  double p;
};

/// The paper-literal LAWA reference: sorts copies of both inputs, sweeps
/// them with the scalar LineageAwareWindowAdvancer through
/// ForEachSurvivingWindow (Algorithms 1-4 as written) and concatenates every
/// surviving window into the shared arena, in window order. On identically
/// seeded contexts its output — tuples and lineage ids — must equal
/// LawaSetOp's and LAWA-P bit-identical's, whichever kernel those ran.
inline TpRelation ScalarLawaSetOp(SetOpKind op, const TpRelation& r,
                                  const TpRelation& s) {
  std::vector<TpTuple> rt = r.tuples(), st = s.tuples();
  SortTuples(&rt, SortMode::kComparison);
  SortTuples(&st, SortMode::kComparison);
  LineageManager& mgr = r.context()->lineage();
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + SetOpName(op) + " " + s.name() + ")");
  LineageAwareWindowAdvancer adv(rt, st);
  ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
    out.AddDerived(w.fact, w.t, Concat(op, mgr, w.lr, w.ls));
  });
  return out;
}

}  // namespace tpset::testing

#endif  // TPSET_TESTS_TEST_UTIL_H_
