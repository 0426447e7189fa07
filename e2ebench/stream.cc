// stream_maintain: continuous queries under a steady append stream.
//
// Relations r, s, t are seeded with per-fact chains; the continuous queries
// `r - s` and `(r | t) & s` each have one subscriber that folds the delta
// stream. An open-loop writer appends pre-generated 100-row batches (round
// robin over r, s, t) at a fixed rate, advancing one retention watermark on
// all three every kRetainEvery epochs; each epoch is timed from its due time to
// Append's return, by which the deltas have been delivered. A closed-loop
// phase then appends a fixed number of batches back to back: the capacity.
//
// Checks at the end, above each query's effective watermark: the folded
// subscriber deltas equal Current(), and Current() has the (fact, interval)
// sequence and per-tuple probabilities (1e-9) of a from-scratch Execute.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/stream.h"
#include "incremental/continuous_query.h"
#include "ledger.h"
#include "obs/profile.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"

namespace e2e {
namespace {

using namespace tpset;

constexpr const char* kRelNames[] = {"r", "s", "t"};
constexpr const char* kQueries[][2] = {{"diff", "r - s"},
                                       {"mix", "(r | t) & s"}};
constexpr double kEpochsPerSecond = 40;
constexpr std::size_t kRetainEvery = 30;  // epochs
// epoch_tail_ms is the median of this many consecutive windows' tails and
// epoch_capacity_per_s the median of as many windows' rates, so a stall in a
// few windows does not set them. At 45 s the open loop has 1350 epochs: 90
// per window, whose tail rung is p75.
constexpr std::size_t kWindows = 15;

using TupleKey = std::tuple<FactId, TimePoint, TimePoint, LineageId>;

// A subscriber: folds the delta stream into a multiset of tuples.
struct Fold {
  std::map<TupleKey, long> tuples;
  std::size_t rows = 0;  // delta rows received
  std::string error;

  void Load(const TpRelation& rel) {
    for (const TpTuple& t : rel.tuples()) {
      ++tuples[{t.fact, t.t.start, t.t.end, t.lineage}];
    }
  }
  void Apply(const EpochDelta& d) {
    rows += d.delta.inserted.size() + d.delta.retracted.size();
    for (const TpTuple& t : d.delta.retracted) {
      auto it = tuples.find({t.fact, t.t.start, t.t.end, t.lineage});
      if (it == tuples.end()) {
        if (error.empty()) error = "retraction of a tuple never inserted";
        continue;
      }
      if (--it->second == 0) tuples.erase(it);
    }
    for (const TpTuple& t : d.delta.inserted) {
      ++tuples[{t.fact, t.t.start, t.t.end, t.lineage}];
    }
  }
};

struct Setup {
  std::shared_ptr<TpContext> ctx;
  std::unique_ptr<QueryExecutor> exec;
  std::vector<std::vector<TimePoint>> cursors;
  std::vector<ContinuousQuery*> queries;
  std::vector<std::unique_ptr<Fold>> folds;
};

std::unique_ptr<Setup> BuildSetup(const RunConfig& cfg, Rng* rng) {
  auto s = std::make_unique<Setup>();
  s->ctx = std::make_shared<TpContext>();
  s->exec = std::make_unique<QueryExecutor>(s->ctx);
  const std::size_t facts = cfg.Size(100, 4);
  for (const char* name : kRelNames) {
    s->cursors.emplace_back(facts, 0);
    TpRelation rel(s->ctx, Schema::SingleInt("fact"), name);
    SeedFactChains(&rel, cfg.Size(100000, 200), &s->cursors.back(), rng);
    Status st = s->exec->Register(rel);
    if (!st.ok()) throw std::runtime_error("Register: " + st.ToString());
  }
  ContinuousOptions options;
  options.num_threads = cfg.threads;
  for (const auto& q : kQueries) {
    Result<ContinuousQuery*> cq = s->exec->RegisterContinuous(q[0], q[1], options);
    if (!cq.ok()) throw std::runtime_error("RegisterContinuous: " + cq.status().ToString());
    auto fold = std::make_unique<Fold>();
    fold->Load((*cq)->Current());
    Fold* f = fold.get();
    (*cq)->Subscribe([f](const EpochDelta& d) { f->Apply(d); });
    s->queries.push_back(*cq);
    s->folds.push_back(std::move(fold));
  }
  return s;
}

TimePoint MinCursor(const std::vector<TimePoint>& c) {
  return *std::min_element(c.begin(), c.end());
}

// Windows ending at or below w vanish; straddlers start at w.
TpRelation ClipAbove(const TpRelation& rel, TimePoint w) {
  TpRelation out(rel.context(), rel.schema(), rel.name());
  for (const TpTuple& t : rel.tuples()) {
    if (t.t.end <= w) continue;
    out.AddDerived(t.fact, Interval(std::max(t.t.start, w), t.t.end), t.lineage);
  }
  return out;
}

struct Batch {
  std::size_t relation = 0;
  DeltaBatch rows;
  bool retain_after = false;
  TimePoint watermark = 0;  // one horizon for all three relations
};

}  // namespace

void RunStreamMaintain(const RunConfig& cfg, Ledger* ledger, Outcome* outcome,
                       TraceLog* trace) {
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    s.reset();
    ReleaseFreeMemory();
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0x57AE);
    const auto t0 = Clock::now();
    s = BuildSetup(cfg, &rng);
    setup_s.push_back(MsSince(t0) / 1000);
  }

  // Inputs: every batch and retention watermark, generated before timing.
  const std::size_t rows = 100;
  const double open_seconds = cfg.seconds * 0.75;
  const std::size_t n_open = std::max<std::size_t>(
      4, static_cast<std::size_t>(open_seconds * kEpochsPerSecond));
  const std::size_t n_warm = cfg.smoke ? 3 : 60;
  const std::size_t n_capacity = cfg.smoke ? 20 : 2000;
  std::vector<Batch> batches(n_warm + n_open + n_capacity);
  {
    Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0xBA7C4);
    std::vector<std::vector<TimePoint>> cursors = s->cursors;
    auto min_all = [&] {
      TimePoint m = MinCursor(cursors[0]);
      for (const auto& c : cursors) m = std::min(m, MinCursor(c));
      return m;
    };
    const TimePoint horizon = min_all();
    for (std::size_t i = 0; i < batches.size(); ++i) {
      Batch& b = batches[i];
      b.relation = i % 3;
      b.rows = NextChainBatch(&cursors[b.relation], rows, &rng);
      b.retain_after = (i + 1) % kRetainEvery == 0;
      b.watermark = std::max<TimePoint>(0, min_all() - horizon);
    }
  }

  std::vector<double> epoch_ms, late_ms, retain_ms;
  std::map<std::string, std::vector<double>> lat_plain, lat_traced;
  std::vector<double> apply_ms, append_self_ms;
  std::size_t debt_max = 0, delta_rows = 0, input_rows = 0, resumed = 0,
              reswept = 0;
  std::uint64_t op = 0;

  // One epoch, then retention when due. Returns when Append returned (the
  // subscribers have their deltas by then); retention only delays later
  // epochs.
  auto run_epoch = [&](const Batch& b, TraceLog* log) {
    ++op;
    outcome->Attempt();
    const char* rel = kRelNames[b.relation];
    std::size_t rows_before = 0;
    for (const auto& f : s->folds) rows_before += f->rows;
    const auto t0 = Clock::now();
    Result<EpochId> epoch = [&] {
      ScopedSpan span(log, "QueryExecutor::Append", op);
      return s->exec->Append(rel, b.rows);
    }();
    const auto appended = Clock::now();
    const double wall = MsBetween(t0, appended);
    if (!epoch.ok()) {
      outcome->Fail(std::string("Append ") + rel + ": " + epoch.status().ToString());
    }
    Result<const StoredRelation*> stored = s->exec->FindStored(rel);
    if (stored.ok()) debt_max = std::max(debt_max, (*stored)->compaction_debt());
    if (log != nullptr && epoch.ok()) {
      double applied = 0;
      for (ContinuousQuery* cq : s->queries) {
        if (cq->last_epoch() != *epoch) continue;
        const obs::Span& root = cq->last_profile().root();
        applied += root.wall_ms;
        for (const auto& child : root.children) {
          resumed += child->stats.facts_resumed;
          reswept += child->stats.facts_reswept;
        }
        log->AttachProfile(op, cq->name(), cq->last_profile().ToJson());
      }
      apply_ms.push_back(applied);
      append_self_ms.push_back(std::max(0.0, wall - applied));
      std::size_t rows_after = 0;
      for (const auto& f : s->folds) rows_after += f->rows;
      delta_rows += rows_after - rows_before;
      input_rows += b.rows.size();
    }
    if (b.retain_after) {
      for (std::size_t r = 0; r < 3; ++r) {
        ++op;
        outcome->Attempt();
        ScopedSpan span(log, "QueryExecutor::Retain", op);
        const auto r0 = Clock::now();
        Result<std::size_t> retired = s->exec->Retain(kRelNames[r], b.watermark);
        retain_ms.push_back(MsSince(r0));
        if (!retired.ok()) {
          outcome->Fail(std::string("Retain ") + kRelNames[r] + ": " +
                        retired.status().ToString());
        }
      }
    }
    return appended;
  };

  // Warm-up epochs, back to back and not recorded.
  for (std::size_t i = 0; i < n_warm; ++i) run_epoch(batches[i], nullptr);

  // Open loop at a fixed rate, each epoch timed from its due time.
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kEpochsPerSecond));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n_open; ++i) {
    const bool traced = trace != nullptr && i % 2 == 1;
    const auto due = start + period * static_cast<long>(i);
    SleepUntil(due);
    late_ms.push_back(std::max(0.0, MsBetween(due, Clock::now())));
    const double ms =
        MsBetween(due, run_epoch(batches[n_warm + i], traced ? trace : nullptr));
    if (traced) {
      lat_traced["epoch"].push_back(ms);
    } else {
      epoch_ms.push_back(ms);
      lat_plain["epoch"].push_back(ms);
    }
  }

  // Closed loop: capacity.
  const auto cap_t0 = Clock::now();
  std::vector<Clock::time_point> cap_done;
  for (std::size_t i = n_warm + n_open; i < batches.size(); ++i) {
    cap_done.push_back(run_epoch(batches[i], nullptr));
    if (MsSince(cap_t0) > cfg.seconds * 1000) break;  // bounded run time
  }
  const double capacity =
      WindowedRate(cap_done, cap_t0, Clock::now(), kWindows);
  const std::size_t arena_end = s->ctx->lineage().size();

  // Checks above each query's effective watermark.
  for (std::size_t k = 0; k < s->queries.size(); ++k) {
    ContinuousQuery* cq = s->queries[k];
    const char* text = kQueries[k][1];
    const TimePoint w = cq->effective_watermark();
    const TpRelation cur = ClipAbove(cq->Current(), w);
    const Fold& fold = *s->folds[k];
    if (!fold.error.empty()) outcome->CheckFailed(std::string(text) + ": " + fold.error);
    std::map<TupleKey, long> want, got;
    for (const auto& [key, count] : fold.tuples) {
      const auto& [fact, ts, te, lin] = key;
      if (te <= w) continue;
      want[{fact, std::max(ts, w), te, lin}] += count;
    }
    for (const TpTuple& t : cur.tuples()) ++got[{t.fact, t.t.start, t.t.end, t.lineage}];
    if (got != want) {
      outcome->CheckFailed(std::string(text) +
                           ": folded subscriber deltas != Current()");
    }
    ExecOptions options;
    options.num_threads = cfg.threads;
    Result<TpRelation> oneshot = s->exec->Execute(text, options);
    if (!oneshot.ok()) {
      outcome->CheckFailed(std::string(text) + ": " + oneshot.status().ToString());
      continue;
    }
    const TpRelation ref = ClipAbove(*oneshot, w);
    Result<QueryPtr> tree = ParseQuery(text);
    const ProbabilityMethod method =
        tree.ok() ? RecommendedMethod(**tree) : ProbabilityMethod::kExact;
    bool same = ref.size() == cur.size();
    for (std::size_t i = 0; same && i < ref.size(); ++i) {
      same = ref[i].fact == cur[i].fact && ref[i].t == cur[i].t &&
             std::fabs(ref.TupleProbability(i, method) -
                       cur.TupleProbability(i, method)) <= 1e-9;
    }
    if (!same) {
      outcome->CheckFailed(std::string(text) +
                           ": Current() != from-scratch Execute above watermark");
    }
  }

  const Tail tail = WindowedTail(epoch_ms, kWindows);
  char note[96];
  std::snprintf(note, sizeof(note), "median of %zu windows' p%g of %zu epochs",
                kWindows, tail.percentile, tail.samples);
  ledger->e2e["setup_s"] = {Median(setup_s), "s", "median of " +
                            std::to_string(setup_s.size()) + " set-ups"};
  ledger->e2e["peak_rss_mb"] = {PeakRssMb(), "MB", ""};
  ledger->e2e["p50_ms"] = {Median(epoch_ms), "ms", "epoch_p50_ms"};
  ledger->e2e["tail_ms"] = {tail.value, "ms", std::string("epoch_tail_ms, ") + note};
  ledger->e2e["ops_per_s"] = {capacity, "1/s", "epoch_capacity_per_s"};
  ledger->extra["epoch_p50_ms"] = {Median(epoch_ms), "ms",
                                   "open loop at 40 epochs/s"};
  ledger->extra["epoch_tail_ms"] = {tail.value, "ms", note};
  ledger->extra["epoch_capacity_per_s"] = {
      capacity, "1/s", std::to_string(cap_done.size()) +
                           " epochs back to back; median of " +
                           std::to_string(kWindows) + " windows"};

  if (trace == nullptr) return;
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = ledger->layer;
  L["incremental.epoch_apply_ms"] = {Mean(apply_ms), "ms",
                                     "last_profile(), mean per epoch"};
  L["incremental.append_self_ms"] = {Mean(append_self_ms), "ms",
                                     "Append wall minus epoch apply"};
  L["incremental.delta_rows_per_input_row"] = {
      frac(static_cast<double>(delta_rows), static_cast<double>(input_rows)),
      "ratio", "both subscribers"};
  L["incremental.resweep_frac"] = {
      frac(static_cast<double>(reswept), static_cast<double>(resumed + reswept)),
      "frac", std::to_string(resumed + reswept) + " fact applies"};
  L["storage.retain_ms"] = {Mean(retain_ms), "ms", "mean per Retain call"};
  L["storage.compaction_debt_max"] = {static_cast<double>(debt_max), "count", ""};
  L["lineage.arena_nodes_end"] = {static_cast<double>(arena_end), "count", ""};
  L["gen.late_ms"] = {Mean(late_ms), "ms", "mean open-loop lateness"};
  L["trace.overhead_frac"] = {TraceOverhead(lat_plain, lat_traced), "frac",
                              "traced vs untraced epochs"};
}

}  // namespace e2e
