#include "query/executor.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "parallel/parallel_set_op.h"
#include "parallel/thread_pool.h"
#include "query/parser.h"
#include "relation/validate.h"

namespace tpset {

namespace {

// Executor metrics, process-wide: one sample per top-level Execute call
// (subtree recursion is not counted). The admission timestamp of a profiled
// execution lives on its QueryProfile root (start_unix_us).
obs::Histogram& QueryLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_exec_query_usec", "wall microseconds per executed query");
  return h;
}

obs::Counter& QueriesCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_exec_queries_total", "queries executed (top-level Execute calls)");
  return c;
}

void RecordQuery(std::chrono::steady_clock::time_point t0,
                 const QueryNode& query,
                 const obs::QueryProfile* profile = nullptr) {
  const std::uint64_t usec = obs::ElapsedUsec(t0);
  QueryLatencyHistogram().Observe(usec);
  QueriesCounter().Increment();
  // Slow executions retain their span tree (when profiled) as an exemplar.
  obs::Recorder& recorder = obs::Recorder::Global();
  if (static_cast<double>(usec) / 1000.0 >=
      recorder.SlowThresholdMs("query")) {
    recorder.RecordExecution("query", QueryToString(query),
                             static_cast<double>(usec) / 1000.0, profile);
  }
}

}  // namespace

Status QueryExecutor::Register(const TpRelation& rel) {
  // Registration is cold-path; the fence keeps catalog_ mutation serialized
  // with concurrent appends and introspection reads.
  if (rel.name().empty()) {
    return Status::InvalidArgument("relations must be named to be registered");
  }
  if (rel.context() != ctx_) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' belongs to a different context");
  }
  TPSET_RETURN_NOT_OK(ValidateWellFormed(rel));
  TPSET_RETURN_NOT_OK(ValidateDuplicateFree(rel));
  TPSET_RETURN_NOT_OK(ValidateSortedFactTime(rel));
  // ValidateSortedFactTime just proved the order, so the catalog copy gets
  // the sortedness witness — every query leaf then takes the zero-sort
  // fast path. Armed here, on the copy we own, rather than memoized
  // through the caller's const reference (which could race). The copy
  // becomes the base level of the relation's run-indexed storage.
  TpRelation copy = rel;
  copy.MarkSortedUnchecked();
  // The catalog entry is built into a detached map node *before* taking the
  // write fence: copying/moving a TpRelation snapshots its ColumnarCache
  // under that cache's mutex, and nothing may hold the fence across a cache
  // lock (introspection handlers take the fence concurrently; fence ->
  // cache here plus cache -> fence anywhere else would deadlock). Splicing
  // the node under the fence acquires no lock but the fence itself.
  std::map<std::string, StoredRelation> staging;
  staging.emplace(std::piecewise_construct, std::forward_as_tuple(rel.name()),
                  std::forward_as_tuple(std::move(copy)));
  auto node = staging.extract(staging.begin());
  std::lock_guard<std::mutex> fence(write_fence_);
  if (catalog_.count(rel.name()) > 0) {
    return Status::InvalidArgument("relation '" + rel.name() +
                                   "' is already registered");
  }
  catalog_.insert(std::move(node));
  return Status::OK();
}

Result<const TpRelation*> QueryExecutor::Find(const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + name + "' is registered");
  }
  return &it->second.View();
}

Result<const StoredRelation*> QueryExecutor::FindStored(
    const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + name + "' is registered");
  }
  return &it->second;
}

Result<StorageSnapshot> QueryExecutor::SnapshotRelation(
    const std::string& name) const {
  auto it = catalog_.find(name);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + name + "' is registered");
  }
  return it->second.Snapshot();
}

Result<EpochId> QueryExecutor::Append(const std::string& relation,
                                      const DeltaBatch& batch) {
  std::lock_guard<std::mutex> fence(write_fence_);
  // First epoch starts the flight recorder's collector: once a process
  // appends, it is a streaming engine worth recording.
  obs::Recorder::Global().EnsureStarted();
  const auto fence_t0 = std::chrono::steady_clock::now();
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  std::vector<TpTuple> applied;
  Result<EpochId> epoch = append_log_.Append(&it->second, batch, &applied);
  if (!epoch.ok()) {
    obs::EmitEvent(obs::Severity::kWarn, "storage",
                   "append rejected relation=%.32s tuples=%zu: %.40s",
                   relation.c_str(), batch.rows.size(),
                   epoch.status().message().c_str());
    return epoch;
  }
  const DeltaMap grouped = GroupInsertsByFact(applied);  // shared, not copied
  for (auto& [name, cq] : continuous_) {
    (void)name;
    // Every query observes the log advancing (lag accounting); readers then
    // absorb the delta, which zeroes their subscribers' lag.
    cq->NoteLogEpoch(*epoch);
    if (cq->Reads(relation)) {
      cq->ApplyAppend(*epoch, relation, grouped, fence_t0);
    }
  }
  // The append itself never merges: once run debt piles up, a budgeted
  // background step claims it off the writer's (and every reader's) path.
  ScheduleCompaction(it->second);
  return epoch;
}

ThreadPool* QueryExecutor::Pool(std::size_t width) const {
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(width);
  } else {
    pool_->Grow(width);
  }
  return pool_.get();
}

PoolLane QueryExecutor::Lane(std::size_t width) const {
  return width <= 1 ? PoolLane() : PoolLane(Pool(width), width);
}

void QueryExecutor::ScheduleCompaction(StoredRelation& stored) {
  if (stored.compaction_debt() < kCompactDebtThreshold) return;
  {
    std::lock_guard<std::mutex> lock(bg_mu_);
    if (!bg_scheduled_.insert(&stored).second) return;  // step in flight
  }
  StoredRelation* rel = &stored;
  Pool(1)->Submit([this, rel]() {
    // Sequential merge on this worker: a pool task never waits on another.
    const std::size_t debt = rel->CompactStep(kCompactBudgetRuns);
    {
      std::lock_guard<std::mutex> lock(bg_mu_);
      bg_scheduled_.erase(rel);
    }
    // Reschedule while debt remains: each step claims a prefix, so the
    // chain terminates once appends quiesce (ThreadPool runs tasks queued
    // during shutdown to completion, and each one strictly shrinks debt).
    if (debt >= kCompactDebtThreshold) ScheduleCompaction(*rel);
  });
}

Result<std::size_t> QueryExecutor::Retain(const std::string& relation,
                                          TimePoint watermark) {
  std::lock_guard<std::mutex> fence(write_fence_);
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  StoredRelation& stored = it->second;
  TPSET_RETURN_NOT_OK(stored.SetWatermark(watermark));
  const std::size_t retired_before = stored.stats().tuples_retired;
  CompactLocked(stored);
  for (auto& [name, cq] : continuous_) {
    (void)name;
    if (cq->Reads(relation)) cq->Rebase();
  }
  const std::size_t retired = stored.stats().tuples_retired - retired_before;
  obs::EmitEvent(obs::Severity::kInfo, "storage",
                 "retention relation=%.32s watermark=%lld retired=%zu",
                 relation.c_str(), static_cast<long long>(watermark), retired);
  return retired;
}

Status QueryExecutor::Compact(const std::string& relation) {
  std::lock_guard<std::mutex> fence(write_fence_);
  auto it = catalog_.find(relation);
  if (it == catalog_.end()) {
    return Status::NotFound("no relation named '" + relation +
                            "' is registered");
  }
  CompactLocked(it->second);
  return Status::OK();
}

void QueryExecutor::CompactLocked(StoredRelation& stored) {
  // Under the write fence no continuous query is propagating, so the merge
  // borrows the width of the widest one. A background step of the same
  // relation may hold one worker, blocked on the compaction claim until
  // this merge finishes; width >= 2 leaves the merge at least one other.
  std::size_t width = 1;
  for (const auto& [name, cq] : continuous_) {
    (void)name;
    width = std::max(width, cq->options().num_threads);
  }
  stored.Compact(Lane(width));
}

Result<ContinuousQuery*> QueryExecutor::RegisterContinuous(
    const std::string& name, const std::string& query,
    const ContinuousOptions& options) {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return RegisterContinuous(name, **parsed, options);
}

Result<ContinuousQuery*> QueryExecutor::RegisterContinuous(
    const std::string& name, const QueryNode& query,
    const ContinuousOptions& options) {
  std::lock_guard<std::mutex> fence(write_fence_);
  if (name.empty()) {
    return Status::InvalidArgument("continuous queries must be named");
  }
  if (continuous_.count(name) > 0) {
    return Status::InvalidArgument("continuous query '" + name +
                                   "' is already registered");
  }
  Result<std::unique_ptr<ContinuousQuery>> cq = ContinuousQuery::Compile(
      name, query, [this](const std::string& rel) { return FindStored(rel); },
      ctx_, options, Lane(options.num_threads));
  if (!cq.ok()) return cq.status();
  ContinuousQuery* ptr = cq->get();
  continuous_.emplace(name, std::move(*cq));
  return ptr;
}

std::vector<RelationIntrospection> QueryExecutor::IntrospectRelations() const {
  std::lock_guard<std::mutex> fence(write_fence_);
  std::vector<RelationIntrospection> out;
  out.reserve(catalog_.size());
  for (const auto& [name, stored] : catalog_) {
    const StorageSnapshot snap = stored.Snapshot();
    RelationIntrospection r;
    r.name = name;
    r.tuples = snap.size();
    r.runs = snap.run_count() + 1;  // base level + pending tail runs
    r.has_watermark = stored.has_watermark();
    r.watermark = stored.watermark();
    r.generation = snap.generation();
    r.compaction_debt = stored.compaction_debt();
    out.push_back(std::move(r));
  }
  return out;
}

std::vector<ContinuousIntrospection> QueryExecutor::IntrospectContinuous()
    const {
  std::lock_guard<std::mutex> fence(write_fence_);
  std::vector<ContinuousIntrospection> out;
  out.reserve(continuous_.size());
  for (const auto& [name, cq] : continuous_) {
    ContinuousIntrospection c;
    c.name = name;
    c.text = cq->text();
    c.last_epoch = cq->last_epoch();
    c.log_epoch = cq->log_epoch();
    c.epochs_applied = cq->epochs_applied();
    c.result_tuples = cq->size();
    const TimePoint low = cq->LowWatermark();
    c.has_low_watermark = low != kNoWatermark;
    c.low_watermark = low;
    const TimePoint effective = cq->effective_watermark();
    c.has_effective_watermark = effective != kNoWatermark;
    c.effective_watermark = effective;
    c.subscribers = cq->SubscriberInfos();
    out.push_back(std::move(c));
  }
  return out;
}

Result<ContinuousQuery*> QueryExecutor::FindContinuous(
    const std::string& name) const {
  auto it = continuous_.find(name);
  if (it == continuous_.end()) {
    return Status::NotFound("no continuous query named '" + name +
                            "' is registered");
  }
  return it->second.get();
}

Result<TpRelation> QueryExecutor::Execute(const std::string& query,
                                          const SetOpAlgorithm* algorithm) const {
  Result<QueryPtr> parsed = ParseQuery(query);
  if (!parsed.ok()) return parsed.status();
  return Execute(**parsed, algorithm);
}

Result<TpRelation> QueryExecutor::Execute(const QueryNode& query,
                                          const SetOpAlgorithm* algorithm) const {
  return Execute(query, ExecOptions{}, algorithm);
}

Result<TpRelation> QueryExecutor::Execute(const std::string& query,
                                          const ExecOptions& options,
                                          const SetOpAlgorithm* algorithm) const {
  Result<QueryPtr> parsed = [&]() {
    obs::SpanTimer timer(options.profile == nullptr
                             ? nullptr
                             : options.profile->root().AddChild("parse"));
    return ParseQuery(query);
  }();
  if (!parsed.ok()) return parsed.status();
  return Execute(**parsed, options, algorithm);
}

namespace {

// First operator of the tree (post-order) that `algorithm` cannot compute;
// OK when the whole tree is supported.
Status CheckSupported(const QueryNode& q, const SetOpAlgorithm& algorithm) {
  if (q.kind == QueryNode::Kind::kRelation) return Status::OK();
  TPSET_RETURN_NOT_OK(CheckSupported(*q.left, algorithm));
  TPSET_RETURN_NOT_OK(CheckSupported(*q.right, algorithm));
  if (!algorithm.Supports(q.op)) {
    return Status::NotSupported("algorithm " + algorithm.name() +
                                " does not support TP set " + SetOpName(q.op) +
                                " (Table II)");
  }
  return Status::OK();
}

// The Proposition 1 bound on the LAWA windows of one operation,
// 2|r| + 2|s| - (distinct facts of r and s), with the facts counted by one
// merge pass over the two fact-sorted inputs.
std::size_t WindowBound(const TpRelation& r, const TpRelation& s) {
  const std::vector<TpTuple>& a = r.tuples();
  const std::vector<TpTuple>& b = s.tuples();
  std::size_t facts = 0, i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    const FactId f = j == b.size() || (i < a.size() && a[i].fact < b[j].fact)
                         ? a[i].fact
                         : b[j].fact;
    while (i < a.size() && a[i].fact == f) ++i;
    while (j < b.size() && b[j].fact == f) ++j;
    ++facts;
  }
  return 2 * a.size() + 2 * b.size() - facts;
}

}  // namespace

Result<TpRelation> QueryExecutor::Execute(const QueryNode& query,
                                          const ExecOptions& options,
                                          const SetOpAlgorithm* algorithm) const {
  const auto t0 = std::chrono::steady_clock::now();
  obs::Span* root =
      options.profile == nullptr ? nullptr : &options.profile->root();
  obs::SpanTimer timer(root);
  if (algorithm == nullptr) algorithm = FindAlgorithm("LAWA");
  // Plain LAWA runs as LAWA-P of the requested width, built per call (it
  // holds no threads). At num_threads <= 1 that is sequential LawaSetOp
  // itself, recording the same phase spans as a parallel run; above 1 its
  // phases run on a lane of that width of the executor's pool.
  const ParallelSetOpAlgorithm lawa_p(options.num_threads,
                                      SortMode::kComparison,
                                      options.apply_mode);
  if (algorithm->name() == "LAWA") algorithm = &lawa_p;
  const auto* parallel = dynamic_cast<const ParallelSetOpAlgorithm*>(algorithm);
  const PoolLane lane = Lane(parallel != nullptr ? parallel->num_threads() : 1);
  Result<TpRelation> out = [&]() -> Result<TpRelation> {
    {
      obs::SpanTimer analyze(root == nullptr ? nullptr
                                             : root->AddChild("analyze"));
      TPSET_RETURN_NOT_OK(CheckSupported(query, *algorithm));
    }
    return ExecuteNode(query, *algorithm, lane, root);
  }();
  if (root != nullptr && out.ok()) root->SetAttr("out", out->size());
  timer.Stop();
  RecordQuery(t0, query, options.profile);
  return out;
}

Result<TpRelation> QueryExecutor::ExecuteNode(const QueryNode& node,
                                              const SetOpAlgorithm& algorithm,
                                              const PoolLane& lane,
                                              obs::Span* span) const {
  if (node.kind == QueryNode::Kind::kRelation) {
    // Leaves read through a refcounted fold of the relation's current
    // generation: no reference into the catalog entry survives the call, so
    // concurrent Execute / append / compaction cannot invalidate anything.
    obs::Span* child =
        span == nullptr ? nullptr
                        : span->AddChild("relation " + node.relation_name);
    obs::SpanTimer timer(child);
    Result<const StoredRelation*> stored = FindStored(node.relation_name);
    if (!stored.ok()) return stored.status();
    const std::shared_ptr<const TpRelation> rel = (*stored)->FoldedView();
    timer.Stop();
    if (child != nullptr) {
      child->SetAttr("kind", "relation");
      child->SetAttr("tuples", rel->size());
    }
    return *rel;
  }
  // The operator's span holds both its input subtrees and (from the compute
  // below) its phase children; its own wall covers only the compute.
  obs::Span* child = span == nullptr ? nullptr : span->AddChild(SetOpName(node.op));
  Result<TpRelation> left = ExecuteNode(*node.left, algorithm, lane, child);
  if (!left.ok()) return left;
  Result<TpRelation> right = ExecuteNode(*node.right, algorithm, lane, child);
  if (!right.ok()) return right;
  if (child != nullptr) child->SetAttr("kind", "setop");
  if (const auto* parallel =
          dynamic_cast<const ParallelSetOpAlgorithm*>(&algorithm)) {
    // LAWA-P inputs are catalog leaves or LAWA-P outputs, all fact-sorted.
    if (child != nullptr) child->SetAttr("bound", WindowBound(*left, *right));
    return parallel->ComputeSequenced(node.op, *left, *right,
                                      /*stats=*/nullptr, child, &lane);
  }
  obs::SpanTimer timer(child);
  TpRelation out = algorithm.Compute(node.op, *left, *right);
  timer.Stop();
  if (child != nullptr) child->SetAttr("out", out.size());
  return Result<TpRelation>(std::move(out));
}

}  // namespace tpset
