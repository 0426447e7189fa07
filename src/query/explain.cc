#include "query/explain.h"

#include <cstdio>
#include <set>
#include <sstream>

#include "lawa/set_ops.h"
#include "obs/profile.h"
#include "parallel/parallel_set_op.h"
#include "query/analyzer.h"
#include "query/parser.h"

namespace tpset {

namespace {

std::size_t DistinctFacts(const TpRelation& r, const TpRelation& s) {
  std::set<FactId> facts;
  for (const TpTuple& t : r.tuples()) facts.insert(t.fact);
  for (const TpTuple& t : s.tuples()) facts.insert(t.fact);
  return facts.size();
}

// Executes the plan bottom-up, recording one span per plan node under
// `span`. All numbers EXPLAIN later renders live on the spans: relation
// leaves carry kind/tuples attrs, operator nodes carry kind/out/bound attrs
// plus the phase children and LawaStats that ComputeSequenced attaches.
// Sequential explains run the same recorder through the degenerate
// (num_threads <= 1) partitioned algorithm, so both render identical
// sections from identical span shapes.
Result<TpRelation> ExplainNode(const QueryExecutor& exec, const QueryNode& q,
                               const ParallelSetOpAlgorithm& parallel,
                               const PoolLane& lane, obs::Span* span) {
  if (q.kind == QueryNode::Kind::kRelation) {
    Result<const TpRelation*> rel = exec.Find(q.relation_name);
    if (!rel.ok()) return rel.status();
    obs::Span* child = span->AddChild("relation " + q.relation_name);
    child->SetAttr("kind", "relation");
    child->SetAttr("tuples", (*rel)->size());
    return **rel;
  }
  obs::Span* child = span->AddChild(SetOpName(q.op));
  child->SetAttr("kind", "setop");
  Result<TpRelation> left = ExplainNode(exec, *q.left, parallel, lane, child);
  if (!left.ok()) return left;
  Result<TpRelation> right =
      ExplainNode(exec, *q.right, parallel, lane, child);
  if (!right.ok()) return right;
  TpRelation result = parallel.ComputeSequenced(
      q.op, *left, *right, /*seq=*/nullptr, /*ticket=*/0, /*stats=*/nullptr,
      child, &lane);
  child->SetAttr("bound", 2 * left->size() + 2 * right->size() -
                              DistinctFacts(*left, *right));
  return result;
}

// One plan node's line, rebuilt purely from its span. Children stream out
// first (depth-first), the node's own line follows with the depth marker —
// the same bottom-up-per-level layout EXPLAIN always used.
void RenderNode(const obs::Span& span, int depth, std::string* out) {
  const std::string indent(static_cast<std::size_t>(depth) * 2, ' ');
  if (span.Attr("kind") == "relation") {
    *out += indent + span.name + "  [" + span.Attr("tuples") + " tuples]\n";
    return;
  }
  for (const auto& child : span.children) {
    if (!child->Attr("kind").empty()) RenderNode(*child, depth + 1, out);
  }
  // Phase walls straight from the child spans ComputeSequenced records (a
  // missing child — the sequential path records only "advance" — reads 0).
  auto phase_ms = [&span](const char* phase) {
    const obs::Span* c = span.FindChild(phase);
    return c == nullptr ? 0.0 : c->wall_ms;
  };
  char phases[224];
  std::snprintf(phases, sizeof(phases),
                ", sort=%.2fms split=%.2fms advance=%.2fms apply=%.2fms"
                ", morsels=%zu stolen=%zu facts_split=%zu",
                phase_ms("sort"), phase_ms("split"), phase_ms("advance"),
                phase_ms("apply"), span.stats.morsels_run,
                span.stats.morsels_stolen, span.stats.facts_split);
  *out += indent + span.name + "  [out=" + span.Attr("out") +
          ", windows=" + std::to_string(span.stats.windows_produced) + "/" +
          span.Attr("bound") + "(bound)" + phases + "]\n";
}

}  // namespace

std::string RenderExplainPlan(const obs::Span& root) {
  std::string out;
  for (const auto& child : root.children) {
    if (!child->Attr("kind").empty()) RenderNode(*child, 0, &out);
  }
  return out;
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query) {
  obs::QueryProfile profile("explain");
  return ExplainQuery(exec, query, ExecOptions{}, &profile);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return ExplainQuery(exec, **parsed);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options) {
  obs::QueryProfile profile("explain");
  return ExplainQuery(exec, query, options, &profile);
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const QueryNode& query,
                                 const ExecOptions& options,
                                 obs::QueryProfile* profile) {
  // Explain walks the tree bottom-up on one thread (no subtree concurrency,
  // so no sequencer needed); each node runs the partitioned algorithm to
  // surface its true phase profile — degenerating to sequential LawaSetOp
  // at num_threads <= 1, so sequential and parallel explains share one
  // recorder and one renderer. The algorithm is built per call; with more
  // than one thread it runs on a lane of the executor's pool, whose warm
  // workers keep thread startup out of the first node's timings.
  const ParallelSetOpAlgorithm parallel(
      options.num_threads, SortMode::kComparison, options.apply_mode);
  const PoolLane lane = exec.Lane(options.num_threads);
  std::ostringstream out;
  out << "query: " << QueryToString(query) << "\n";
  if (options.num_threads > 1) {
    out << "parallel: threads=" << options.num_threads << " apply="
        << (options.apply_mode == ApplyMode::kStaged ? "staged"
                                                     : "bit-identical")
        << "\n";
  }
  obs::Span& root = profile->root();
  obs::SpanTimer timer(&root);
  Result<TpRelation> result = ExplainNode(exec, query, parallel, lane, &root);
  timer.Stop();
  if (!result.ok()) return result.status();
  root.SetAttr("out", result->size());
  out << RenderExplainPlan(root);
  bool non_repeating = IsNonRepeating(query);
  out << "non-repeating: " << (non_repeating ? "yes" : "no")
      << " -> valuation: "
      << (non_repeating ? "read-once (linear, exact by Theorem 1)"
                        : "Shannon expansion (exact; #P-hard in general)")
      << "\n";
  return out.str();
}

Result<std::string> ExplainQuery(const QueryExecutor& exec,
                                 const std::string& query,
                                 const ExecOptions& options) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return ExplainQuery(exec, **parsed, options);
}

Result<std::string> ExplainContinuous(const QueryExecutor& exec,
                                      const std::string& name) {
  Result<ContinuousQuery*> cq = exec.FindContinuous(name);
  if (!cq.ok()) return cq.status();
  std::string out = (*cq)->Describe();
  if ((*cq)->last_epoch() != 0) {
    // The last applied epoch's span tree (per-operator walls + per-epoch
    // LawaStats deltas), straight from the query's reusable profile.
    out += "last epoch:\n" + (*cq)->last_profile().Render();
  }
  return out;
}

}  // namespace tpset
