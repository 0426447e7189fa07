// adhoc_query: one closed-loop client runs a fixed mix of TP set queries over
// four synthetic relations a..d, from query text to valuated result tuples.
//
// Each round opens a fresh TpContext/QueryExecutor session (untimed; its
// duration is a setup_s sample), so lineage is built cold, then times every
// query of the mix: ParseQuery → RecommendedMethod → Execute → per-tuple
// TupleProbability. After the round each result is checked against a
// bottom-up sequential LawaSetOp evaluation of the parsed tree: the same
// (fact, interval) sequence and a probability sum equal to 1e-9 (relative).
#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "lawa/set_ops.h"
#include "ledger.h"
#include "lineage/lineage.h"
#include "obs/profile.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"

namespace e2e {
namespace {

using namespace tpset;

// The mix; the last query repeats relations, so its lineage is not read-once
// and RecommendedMethod valuates it with Shannon expansion.
constexpr const char* kMix[] = {"a | b",       "a & b",
                                "a - b",       "c - (a | b)",
                                "(a & b) | (c - d)", "(a | b) - (a & b)"};

struct RelSpec {
  const char* name;
  TimePoint max_len;
  TimePoint max_gap;
};
// Per-tuple pitch (E[len] + E[gap]) is 6-7 for all four, so the chains of a
// fact span a similar horizon and overlap.
constexpr RelSpec kRelations[] = {
    {"a", 8, 4}, {"b", 6, 5}, {"c", 10, 3}, {"d", 5, 6}};

struct Session {
  std::shared_ptr<TpContext> ctx;
  std::unique_ptr<QueryExecutor> exec;
  std::map<std::string, TpRelation> relations;  // for the reference check
};

// Generates the four relations from the seed (identical every call) into a
// fresh context and registers them.
Session OpenSession(const RunConfig& cfg) {
  Session s;
  s.ctx = std::make_shared<TpContext>();
  s.exec = std::make_unique<QueryExecutor>(s.ctx);
  Rng rng(cfg.seed * 0x9E3779B97F4A7C15ULL + 0xAD40C);
  const std::size_t facts = cfg.Size(100, 4);
  std::vector<TimePoint> offsets(facts);
  for (TimePoint& o : offsets) o = rng.Uniform(0, 2000);
  for (const RelSpec& r : kRelations) {
    SyntheticSpec spec;
    spec.num_tuples = cfg.Size(100000, 200);
    spec.num_facts = facts;
    spec.max_interval_length = r.max_len;
    spec.max_time_distance = r.max_gap;
    TpRelation rel = GenerateSynthetic(s.ctx, spec, r.name, &rng, &offsets);
    Status st = s.exec->Register(rel);
    if (!st.ok()) throw std::runtime_error("Register: " + st.ToString());
    s.relations.emplace(r.name, std::move(rel));
  }
  return s;
}

TpRelation Reference(const QueryNode& q, const Session& s) {
  if (q.kind == QueryNode::Kind::kRelation) return s.relations.at(q.relation_name);
  return LawaSetOp(q.op, Reference(*q.left, s), Reference(*q.right, s));
}

double ProbabilitySum(const TpRelation& rel, ProbabilityMethod method) {
  double sum = 0;
  for (std::size_t i = 0; i < rel.size(); ++i) {
    sum += rel.TupleProbability(i, method);
  }
  return sum;
}

// Per-query sums over the engine's span tree (ExecOptions::profile).
struct ProfileSums {
  double leaf_ms = 0, sort_ms = 0, split_ms = 0, advance_ms = 0, apply_ms = 0;
  std::size_t windows = 0, outputs = 0, morsels = 0, stolen = 0;
  std::vector<std::pair<double, double>> node_us;  // [start, end) per node
};

bool IsSetOpSpan(const std::string& name) {
  return name == "union" || name == "intersect" || name == "except";
}

void WalkProfile(const obs::Span& span, ProfileSums* p) {
  for (const auto& child : span.children) {
    const obs::Span& c = *child;
    const double start = static_cast<double>(c.start_unix_us);
    if (c.name.rfind("relation ", 0) == 0) {
      p->leaf_ms += c.wall_ms;
      p->node_us.emplace_back(start, start + c.wall_ms * 1000);
    } else if (IsSetOpSpan(c.name)) {
      p->node_us.emplace_back(start, start + c.wall_ms * 1000);
      if (c.has_stats) {
        p->windows += c.stats.windows_produced;
        p->outputs += c.stats.output_tuples;
        p->morsels += c.stats.morsels_run;
        p->stolen += c.stats.morsels_stolen;
      }
      for (const auto& phase : c.children) {
        if (phase->name == "sort") p->sort_ms += phase->wall_ms;
        if (phase->name == "split") p->split_ms += phase->wall_ms;
        if (phase->name == "advance") p->advance_ms += phase->wall_ms;
        if (phase->name == "apply") p->apply_ms += phase->wall_ms;
      }
      WalkProfile(c, p);  // input subtrees
    }
  }
}

// Length of the union of [start, end) intervals, in milliseconds.
double UnionMs(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, cur_start = 0, cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total / 1000;
}

// Replays the output lineages into a fresh LineageManager through its public
// Make* calls; returns the elapsed nanoseconds and the node count.
std::pair<double, std::size_t> ReplayLineage(const LineageManager& mgr,
                                             const TpRelation& out) {
  std::vector<std::uint8_t> seen(mgr.size(), 0);
  std::vector<LineageId> order;  // post-order: children before parents
  std::vector<std::pair<LineageId, bool>> stack;
  for (const TpTuple& t : out.tuples()) {
    if (t.lineage == kNullLineage || seen[t.lineage]) continue;
    stack.emplace_back(t.lineage, false);
    while (!stack.empty()) {
      auto [id, expanded] = stack.back();
      stack.pop_back();
      if (expanded) {
        order.push_back(id);
        continue;
      }
      if (seen[id]) continue;
      seen[id] = 1;
      stack.emplace_back(id, true);
      const LineageNode& n = mgr.node(id);
      if (n.kind == LineageKind::kNot || n.kind == LineageKind::kAnd ||
          n.kind == LineageKind::kOr) {
        if (!seen[n.left]) stack.emplace_back(n.left, false);
      }
      if (n.kind == LineageKind::kAnd || n.kind == LineageKind::kOr) {
        if (!seen[n.right]) stack.emplace_back(n.right, false);
      }
    }
  }
  LineageManager fresh;
  std::vector<LineageId> remap(mgr.size(), kNullLineage);
  const auto t0 = Clock::now();
  for (LineageId id : order) {
    const LineageNode& n = mgr.node(id);
    LineageId m = kNullLineage;
    switch (n.kind) {
      case LineageKind::kFalse: m = fresh.False(); break;
      case LineageKind::kTrue: m = fresh.True(); break;
      case LineageKind::kVar: m = fresh.MakeVar(n.var); break;
      case LineageKind::kNot: m = fresh.MakeNot(remap[n.left]); break;
      case LineageKind::kAnd:
        m = fresh.MakeAnd(remap[n.left], remap[n.right]);
        break;
      case LineageKind::kOr:
        m = fresh.MakeOr(remap[n.left], remap[n.right]);
        break;
    }
    remap[id] = m;
  }
  const double ns = MsSince(t0) * 1e6;
  return {ns, order.size()};
}

struct QueryResult {
  std::string text;
  QueryPtr tree;
  ProbabilityMethod method = ProbabilityMethod::kReadOnce;
  TpRelation out;
  double prob_sum = 0;
};

// The per-layer ledger of traced queries.
struct LayerAcc {
  std::vector<double> parse_us, exec_self_ms, valuation_ms, nodes_per_query;
  ProfileSums profile;
  double intern_ns = 0;
  std::size_t intern_nodes = 0, exec_nodes = 0, out_tuples = 0, queries = 0;
  std::size_t arena_end = 0;
};

}  // namespace

void RunAdhocQuery(const RunConfig& cfg, Ledger* ledger, Outcome* outcome,
                   TraceLog* trace) {
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    Session s = OpenSession(cfg);
    setup_s.push_back(MsSince(t0) / 1000);
  }
  ReleaseFreeMemory();

  std::map<std::string, std::vector<double>> lat_plain, lat_traced;
  std::vector<double> latencies;  // untraced queries
  std::vector<double> round_rates;  // per untraced round: queries / busy s
  LayerAcc acc;
  std::uint64_t op = 0;
  // Round 0 warms the process up (heap growth, first-touch page faults) and
  // is checked but not recorded. Then rounds run until --seconds have passed,
  // at least min_rounds and at most max_rounds of them, so the tail always
  // rests on the same rung: 42 to 96 queries give p75.
  const std::size_t min_rounds = cfg.smoke ? 2 : 7;
  const std::size_t max_rounds = 16;
  auto run_t0 = Clock::now();
  for (std::size_t round = 0;; ++round) {
    const bool warmup = round == 0;
    const bool traced_round = trace != nullptr && !warmup && round % 2 == 0;
    if (round == 1) run_t0 = Clock::now();
    if (round > max_rounds ||
        (round > min_rounds && MsSince(run_t0) / 1000 >= cfg.seconds)) {
      break;
    }
    ReleaseFreeMemory();  // the previous session is gone

    const auto open_t0 = Clock::now();
    Session session = OpenSession(cfg);
    setup_s.push_back(MsSince(open_t0) / 1000);
    TraceLog* log = traced_round ? trace : nullptr;

    std::vector<QueryResult> results;
    double round_busy_ms = 0;
    for (const char* text : kMix) {
      ++op;
      outcome->Attempt();
      QueryResult r;
      r.text = text;
      obs::QueryProfile profile;
      ExecOptions options;
      options.num_threads = cfg.threads;
      options.profile = log != nullptr ? &profile : nullptr;
      ScopedSpan query_span(log, "query", op);

      const auto t0 = Clock::now();
      Result<QueryPtr> parsed = [&] {
        ScopedSpan span(log, "ParseQuery", op, query_span.id());
        return ParseQuery(text);
      }();
      const auto t_parsed = Clock::now();
      if (!parsed.ok()) {
        outcome->Fail(std::string(text) + ": " + parsed.status().ToString());
        continue;
      }
      r.tree = std::move(*parsed);
      r.method = RecommendedMethod(*r.tree);
      const std::size_t nodes0 = session.ctx->lineage().size();
      Result<TpRelation> out = [&] {
        ScopedSpan span(log, "QueryExecutor::Execute", op, query_span.id());
        return session.exec->Execute(*r.tree, options);
      }();
      const auto t_executed = Clock::now();
      if (!out.ok()) {
        outcome->Fail(std::string(text) + ": " + out.status().ToString());
        continue;
      }
      r.out = std::move(*out);
      const std::size_t nodes1 = session.ctx->lineage().size();
      {
        ScopedSpan span(log, "TpRelation::TupleProbability*", op,
                        query_span.id());
        r.prob_sum = ProbabilitySum(r.out, r.method);
      }
      const auto t1 = Clock::now();
      const double ms = MsBetween(t0, t1);

      if (log == nullptr) {  // warm-up rounds are never traced
        if (!warmup) {
          latencies.push_back(ms);
          lat_plain[text].push_back(ms);
          round_busy_ms += ms;
        }
      } else {
        lat_traced[text].push_back(ms);
        ProfileSums p;
        WalkProfile(profile.root(), &p);
        const double exec_ms = MsBetween(t_parsed, t_executed);
        acc.parse_us.push_back(MsBetween(t0, t_parsed) * 1000);
        acc.exec_self_ms.push_back(std::max(0.0, exec_ms - UnionMs(p.node_us)));
        acc.valuation_ms.push_back(MsBetween(t_executed, t1));
        acc.nodes_per_query.push_back(
            static_cast<double>(session.ctx->lineage().size() - nodes0));
        acc.profile.leaf_ms += p.leaf_ms;
        acc.profile.sort_ms += p.sort_ms;
        acc.profile.split_ms += p.split_ms;
        acc.profile.advance_ms += p.advance_ms;
        acc.profile.apply_ms += p.apply_ms;
        acc.profile.windows += p.windows;
        acc.profile.outputs += p.outputs;
        acc.profile.morsels += p.morsels;
        acc.profile.stolen += p.stolen;
        acc.exec_nodes += nodes1 - nodes0;
        acc.out_tuples += r.out.size();
        ++acc.queries;
        {
          ScopedSpan span(log, "LineageManager::Make* replay", op);
          const auto [ns, nodes] = ReplayLineage(session.ctx->lineage(), r.out);
          acc.intern_ns += ns;
          acc.intern_nodes += nodes;
        }
        log->AttachProfile(op, text, profile.ToJson());
      }
      results.push_back(std::move(r));
    }
    acc.arena_end = session.ctx->lineage().size();
    if (round_busy_ms > 0) {
      round_rates.push_back(static_cast<double>(results.size()) /
                            (round_busy_ms / 1000));
    }

    // Correctness: sequential bottom-up LawaSetOp over the parsed tree.
    for (const QueryResult& r : results) {
      const TpRelation ref = Reference(*r.tree, session);
      bool same = ref.size() == r.out.size();
      for (std::size_t i = 0; same && i < ref.size(); ++i) {
        same = ref[i].fact == r.out[i].fact && ref[i].t == r.out[i].t;
      }
      if (!same) {
        outcome->CheckFailed(r.text + ": (fact, interval) set differs from "
                             "sequential LawaSetOp");
        continue;
      }
      const double ref_sum = ProbabilitySum(ref, r.method);
      if (std::fabs(ref_sum - r.prob_sum) > 1e-9 * std::max(1.0, std::fabs(ref_sum))) {
        outcome->CheckFailed(r.text + ": probability sum differs from "
                             "sequential LawaSetOp");
      }
    }
  }

  const Tail tail = TailOf(latencies);
  char note[64];
  std::snprintf(note, sizeof(note), "p%g of %zu queries", tail.percentile,
                tail.samples);
  // Per round: queries over their summed latency; the median round.
  const double qps = Median(round_rates);
  ledger->e2e["setup_s"] = {Median(setup_s), "s", "median of " +
                            std::to_string(setup_s.size()) + " session opens"};
  ledger->e2e["peak_rss_mb"] = {PeakRssMb(), "MB", ""};
  ledger->e2e["p50_ms"] = {Median(latencies), "ms", "query_p50_ms"};
  ledger->e2e["tail_ms"] = {tail.value, "ms", std::string("query_tail_ms, ") + note};
  ledger->e2e["ops_per_s"] = {qps, "1/s", "queries_per_s"};
  ledger->extra["query_p50_ms"] = {Median(latencies), "ms",
                                   std::to_string(latencies.size()) + " queries"};
  ledger->extra["query_tail_ms"] = {tail.value, "ms", note};
  ledger->extra["queries_per_s"] = {
      qps, "1/s", "closed loop, 1 client; median of " +
                      std::to_string(round_rates.size()) + " rounds"};
  for (std::size_t i = 0; i < std::size(kMix); ++i) {
    ledger->extra["mix" + std::to_string(i) + "_p50_ms"] = {
        Median(lat_plain[kMix[i]]), "ms", kMix[i]};
  }

  if (trace == nullptr) return;
  const double q = std::max<double>(1, static_cast<double>(acc.queries));
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  auto& L = ledger->layer;
  L["query.parse_us"] = {Median(acc.parse_us), "us", "median"};
  L["query.executor_self_ms"] = {Mean(acc.exec_self_ms), "ms", "mean per query"};
  L["storage.leaf_read_ms"] = {acc.profile.leaf_ms / q, "ms", "mean per query"};
  L["lawa.sort_ms"] = {acc.profile.sort_ms / q, "ms", "mean per query"};
  L["lawa.advance_ms"] = {acc.profile.advance_ms / q, "ms", "mean per query"};
  L["lawa.windows_per_output"] = {
      frac(static_cast<double>(acc.profile.windows),
           static_cast<double>(acc.profile.outputs)), "ratio", ""};
  L["lineage.intern_ns_per_node"] = {
      frac(acc.intern_ns, static_cast<double>(acc.intern_nodes)), "ns",
      std::to_string(acc.intern_nodes) + " nodes replayed"};
  L["lineage.valuation_ms"] = {Mean(acc.valuation_ms), "ms", "mean per query"};
  L["lineage.nodes_per_query"] = {Mean(acc.nodes_per_query), "count",
                                  "arena growth, execute + valuation"};
  L["lineage.nodes_per_output_tuple"] = {
      frac(static_cast<double>(acc.exec_nodes),
           static_cast<double>(acc.out_tuples)), "ratio", "execute only"};
  L["lineage.arena_nodes_end"] = {static_cast<double>(acc.arena_end), "count",
                                  "last session"};
  L["parallel.split_ms"] = {acc.profile.split_ms / q, "ms", "mean per query"};
  L["parallel.apply_ms"] = {acc.profile.apply_ms / q, "ms", "mean per query"};
  L["parallel.morsels_stolen_frac"] = {
      frac(static_cast<double>(acc.profile.stolen),
           static_cast<double>(acc.profile.morsels)), "frac",
      std::to_string(acc.profile.morsels) + " morsels"};
  L["gen.late_ms"] = {0, "ms", "closed loop: never late"};
  L["trace.overhead_frac"] = {TraceOverhead(lat_plain, lat_traced), "frac",
                              "traced vs untraced rounds"};
}

}  // namespace e2e
