// The executor's one worker pool (QueryExecutor::Pool): every parallel path
// — parallel Execute, parallel EXPLAIN, continuous-query delta applies,
// background compaction steps and Retain merges — shares one pool that
// grows to the widest width any call asked for, read from the
// tpset_pool_workers gauge; results still equal a sequential Execute. A
// parallel Execute walks its plan on the calling thread and starts no
// thread per plan node. And the executor can be destroyed while a
// background compaction step it scheduled is still queued or running.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/synthetic.h"
#include "incremental/delta.h"
#include "lawa/set_ops.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/explain.h"
#include "relation/relation.h"

namespace tpset {
namespace {

std::int64_t PoolWorkers() {
  return obs::MetricsRegistry::Global()
      .GetGauge("tpset_pool_workers", "worker threads across all thread pools")
      .Value();
}

// Registers a synthetic pair as "r" and "s".
void RegisterPair(QueryExecutor* exec, std::uint64_t seed) {
  Rng rng(seed);
  SyntheticPairSpec spec;
  spec.num_tuples = 2000;
  spec.num_facts = 20;
  auto [r, s] = GenerateSyntheticPair(exec->context(), spec, &rng);
  r.set_name("r");
  s.set_name("s");
  ASSERT_TRUE(exec->Register(r).ok());
  ASSERT_TRUE(exec->Register(s).ok());
}

// One-row append batches on fresh fact values, each ending after the last:
// enough of them pile up compaction debt past the background threshold.
DeltaBatch OneRowBatch(int i) {
  DeltaBatch batch;
  batch.Add({Value(static_cast<std::int64_t>(1000 + i % 3))},
            Interval(10 * i, 10 * i + 5), 0.5, "bg" + std::to_string(i));
  return batch;
}

TEST(ExecutorPoolTest, OnePoolGrowsToWidestWidth) {
#ifdef TPSET_OBS_DISABLED
  GTEST_SKIP() << "recording compiled out";
#endif
  const std::int64_t workers_before = PoolWorkers();
  {
    QueryExecutor exec(std::make_shared<TpContext>());
    RegisterPair(&exec, 0x5EED);
    const std::string query = "(r | s) - (r & s)";
    Result<TpRelation> sequential = exec.Execute(query);
    ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

    for (std::size_t threads : {2, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExecOptions options;
      options.num_threads = threads;
      Result<TpRelation> parallel = exec.Execute(query, options);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(parallel->tuples(), sequential->tuples());
    }
    ExecOptions four;
    four.num_threads = 4;
    Result<std::string> explained = ExplainQuery(exec, query, four);
    ASSERT_TRUE(explained.ok()) << explained.status().ToString();

    ContinuousOptions cq_options;
    cq_options.num_threads = 4;
    Result<ContinuousQuery*> cq =
        exec.RegisterContinuous("q", query, cq_options);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();

    // Appends past the debt threshold schedule background steps; wait for
    // one to land before retention compacts the rest.
    Result<const StoredRelation*> stored = exec.FindStored("r");
    ASSERT_TRUE(stored.ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(exec.Append("r", OneRowBatch(i)).ok());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((*stored)->stats().compactions == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GT((*stored)->stats().compactions, 0u) << "no background step ran";
    ASSERT_TRUE(exec.Retain("r", 0).ok());

    // 2-, 4-, 4-, 4-, 1- and 4-wide calls: one pool of 4 workers.
    EXPECT_EQ(PoolWorkers() - workers_before, 4);

    Result<TpRelation> oneshot = exec.Execute(query);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status().ToString();
    EXPECT_TRUE(RelationsEquivalent((*cq)->Current(), *oneshot));
    ExecOptions two;
    two.num_threads = 2;
    Result<TpRelation> parallel = exec.Execute(query, two);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_EQ(parallel->tuples(), oneshot->tuples());
  }
  EXPECT_EQ(PoolWorkers(), workers_before) << "destruction joins the pool";
}

// Threads of this process, from /proc/self/status (-1 where unreadable).
std::int64_t ProcessThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoll(line.substr(8));
  }
  return -1;
}

// Sequential LAWA under a foreign name, recording the peak thread count of
// the process seen by any of its Compute calls.
class ThreadProbeAlgorithm final : public SetOpAlgorithm {
 public:
  std::string name() const override { return "LAWA-probe"; }
  bool Supports(SetOpKind) const override { return true; }
  TpRelation Compute(SetOpKind op, const TpRelation& r,
                     const TpRelation& s) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      peak_ = std::max(peak_, ProcessThreads());
    }
    return LawaSetOp(op, r, s);
  }
  std::int64_t peak() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::int64_t peak_ = -1;
};

// A 64-operator plan at num_threads = 4 runs with at most the pool's 4
// workers (plus slack for process-wide helpers) on top of the threads alive
// before the call: plan nodes are evaluated on the calling thread, never on
// a thread of their own.
TEST(ExecutorPoolTest, ParallelExecuteStartsNoThreadPerPlanNode) {
  QueryExecutor exec(std::make_shared<TpContext>());
  RegisterPair(&exec, 0x7EAD);
  std::string query = "r";
  for (int i = 0; i < 64; ++i) query += i % 2 == 0 ? " | s" : " - r";
  const ThreadProbeAlgorithm probe;
  Result<TpRelation> sequential = exec.Execute(query, &probe);
  ASSERT_TRUE(sequential.ok()) << sequential.status().ToString();

  const std::int64_t before = ProcessThreads();
  ASSERT_GT(before, 0) << "no Threads: line in /proc/self/status";
  ExecOptions four;
  four.num_threads = 4;
  Result<TpRelation> parallel = exec.Execute(query, four, &probe);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->tuples(), sequential->tuples());
  EXPECT_LE(probe.peak(), before + 4 + 2)
      << "threads before the call: " << before;
}

// Destroying the executor right after an append that scheduled a background
// step: the pool is declared last, so it joins — running the queued step —
// while the relations the step reads are still alive (the ASan/UBSan and
// TSan stages check the teardown).
TEST(ExecutorPoolTest, DestroyWithBackgroundStepPending) {
  for (int appends = 15; appends < 24; ++appends) {
    SCOPED_TRACE("appends=" + std::to_string(appends));
    auto exec =
        std::make_unique<QueryExecutor>(std::make_shared<TpContext>());
    RegisterPair(exec.get(), 0xD1E + static_cast<std::uint64_t>(appends));
    ASSERT_TRUE(exec->RegisterContinuous("q", "r - s").ok());
    for (int i = 0; i < appends; ++i) {
      ASSERT_TRUE(exec->Append("r", OneRowBatch(i)).ok());
    }
    exec.reset();
  }
}

}  // namespace
}  // namespace tpset
