#include "lawa/set_ops.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

#include "lawa/sweep.h"
#include "obs/metrics.h"
#include "relation/validate.h"

namespace tpset {

namespace {

// Stable LSD radix sort by the (fact, start, end) key using 16-bit counting
// passes — the §VI-B "counting-based sorting" variant, linear in input size.
//
// Keys are rebased to (value − observed minimum): that maps negative time
// points into unsigned space *and* shrinks every key to the range the data
// actually spans, so each component runs only the passes its range needs
// (fact ids and time points rarely need more than one or two 16-bit digits;
// a constant component sorts in zero passes — stability keeps the order).
// The prefix-sum table is allocated once and reused across passes.
void RadixSortTuples(std::vector<TpTuple>* tuples) {
  const std::size_t n = tuples->size();
  if (n < 2) return;
  std::vector<TpTuple> scratch(n);

  constexpr int kDigitBits = 16;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  constexpr std::size_t kMask = kBuckets - 1;
  std::vector<std::size_t> count(kBuckets + 1);

  auto pass = [&](auto key_of, int shift) {
    std::fill(count.begin(), count.end(), std::size_t{0});
    for (const TpTuple& t : *tuples) {
      ++count[((key_of(t) >> shift) & kMask) + 1];
    }
    for (std::size_t b = 1; b <= kBuckets; ++b) count[b] += count[b - 1];
    for (const TpTuple& t : *tuples) {
      scratch[count[(key_of(t) >> shift) & kMask]++] = t;
    }
    tuples->swap(scratch);
  };

  // One scan for the observed extrema of every key component.
  TimePoint min_start = (*tuples)[0].t.start, max_start = min_start;
  TimePoint min_end = (*tuples)[0].t.end, max_end = min_end;
  FactId max_fact = (*tuples)[0].fact;
  for (const TpTuple& t : *tuples) {
    min_start = std::min(min_start, t.t.start);
    max_start = std::max(max_start, t.t.start);
    min_end = std::min(min_end, t.t.end);
    max_end = std::max(max_end, t.t.end);
    max_fact = std::max(max_fact, t.fact);
  }

  // Digits needed to cover [0, range]; 0 when the component is constant.
  auto digits_for = [](std::uint64_t range) {
    int d = 0;
    while (range != 0) {
      ++d;
      range >>= kDigitBits;
    }
    return d;
  };
  // Unsigned subtraction is exact here: value >= min, and the true range
  // always fits std::uint64_t.
  const std::uint64_t end_range = static_cast<std::uint64_t>(max_end) -
                                  static_cast<std::uint64_t>(min_end);
  const std::uint64_t start_range = static_cast<std::uint64_t>(max_start) -
                                    static_cast<std::uint64_t>(min_start);

  auto end_key = [min_end](const TpTuple& t) {
    return static_cast<std::uint64_t>(t.t.end) -
           static_cast<std::uint64_t>(min_end);
  };
  auto start_key = [min_start](const TpTuple& t) {
    return static_cast<std::uint64_t>(t.t.start) -
           static_cast<std::uint64_t>(min_start);
  };
  auto fact_key = [](const TpTuple& t) { return std::uint64_t{t.fact}; };

  // Least-significant component first; within each, least-significant digit
  // first (LSD). Stability makes the skipped high digits (and whole skipped
  // components) correct.
  const int end_digits = digits_for(end_range);
  for (int d = 0; d < end_digits; ++d) pass(end_key, d * kDigitBits);
  const int start_digits = digits_for(start_range);
  for (int d = 0; d < start_digits; ++d) pass(start_key, d * kDigitBits);
  const int fact_digits = digits_for(std::uint64_t{max_fact});
  for (int d = 0; d < fact_digits; ++d) pass(fact_key, d * kDigitBits);
}

}  // namespace

void SortTuples(std::vector<TpTuple>* tuples, SortMode mode) {
  switch (mode) {
    case SortMode::kComparison:
      std::sort(tuples->begin(), tuples->end(), FactTimeOrder());
      break;
    case SortMode::kCounting:
      RadixSortTuples(tuples);
      break;
  }
}

void NoteSweeps(std::size_t count, LawaStats* stats) {
  if (count == 0) return;
  static obs::Counter& sweeps = obs::MetricsRegistry::Global().GetCounter(
      "tpset_lawa_sweep_kernel_columnar_total",
      "LAWA sweeps run by the columnar (SoA) kernel");
  sweeps.Increment(count);
  if (stats != nullptr) stats->sweeps_columnar += count;
}

TpRelation LawaSetOp(SetOpKind op, const TpRelation& r, const TpRelation& s,
                     SortMode sort_mode, LawaStats* stats) {
  assert(ValidateSetOpInputs(r, s).ok());
  LineageManager& mgr = r.context()->lineage();
  TpRelation out(r.context(), r.schema(),
                 "(" + r.name() + " " + SetOpName(op) + " " + s.name() + ")");

  // Step 1 of Fig. 5: sort both inputs by (F, Ts). An input carrying the
  // sortedness witness (catalog relations, set-op outputs) is swept in
  // place — no copy, no sort.
  std::size_t sort_skipped = 0;
  std::vector<TpTuple> rs, ss;
  const std::vector<TpTuple>* rv = &r.tuples();
  const std::vector<TpTuple>* sv = &s.tuples();
  if (r.known_sorted()) {
    ++sort_skipped;
  } else {
    rs = r.tuples();
    SortTuples(&rs, sort_mode);
    rv = &rs;
  }
  if (s.known_sorted()) {
    ++sort_skipped;
  } else {
    ss = s.tuples();
    SortTuples(&ss, sort_mode);
    sv = &ss;
  }

  // Steps 2-4: advance windows; filter on (λr, λs); concatenate lineages.
  // Witnessed inputs lend their cached SoA view to the sweep; a locally
  // sorted copy gets a local projection inside SweepWindows.
  SweepInput r_in{rv->data(), rv->size(), std::nullopt};
  SweepInput s_in{sv->data(), sv->size(), std::nullopt};
  if (r.known_sorted()) r_in.columns = r.columnar();
  if (s.known_sorted()) s_in.columns = s.columnar();
  AdvancerCheckpoint ckpt;
  SweepWindows(op, r_in, s_in, &ckpt, [&](const LineageAwareWindow& w) {
    out.AddDerived(w.fact, w.t, Concat(op, mgr, w.lr, w.ls));
  });
  NoteSweeps(1, stats);
  if (stats != nullptr) {
    stats->windows_produced = ckpt.windows_produced;
    stats->output_tuples = out.size();
    stats->sort_skipped = sort_skipped;
  }
  return out;
}

Result<TpRelation> LawaSetOpChecked(SetOpKind op, const TpRelation& r,
                                    const TpRelation& s, SortMode sort_mode) {
  TPSET_RETURN_NOT_OK(ValidateSetOpInputs(r, s));
  return LawaSetOp(op, r, s, sort_mode);
}

}  // namespace tpset
