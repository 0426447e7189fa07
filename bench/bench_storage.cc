// Run-indexed stream storage vs the O(n) merge append path.
//
// Three experiments, 1M tuples/relation at full scale (TPSET_BENCH_SCALE):
//
//  * append — per-epoch append latency at 0.1% batches, as stored relation
//    size grows: TpRelation::MergeSortedAppend (the pre-storage engine, O(n)
//    per epoch) vs StoredRelation::AppendRun (O(batch) amortized through the
//    run index). The acceptance bar is >= 10x at 1M stored tuples; the run
//    index should also be *flat* in relation size while the merge path grows
//    linearly.
//  * compact — amortization: total cost of E run-index appends plus one full
//    compaction, per epoch, vs the merge path's per-epoch cost; plus the
//    standalone compaction latency (sequential and 8-thread fact-range
//    parallel).
//  * retention — a continuous `r - s` over an unbounded stream with a
//    sliding Retain horizon: max resident tuples stay bounded while the
//    unretained twin grows linearly.
//  * mixed — the snapshot-isolation claim: a reader thread scanning the
//    relation while a writer appends and a compactor folds runs. Snapshot
//    mode pins epoch generations (lock-free reads); locked mode emulates
//    the pre-snapshot engine, where a View() fold required exclusive access
//    against writers. Reader p50/p99 full-scan latency and writer
//    throughput; acceptance: snapshot reader p99 with active compaction at
//    or below the locked baseline.
//
// Output: harness CSV rows, one "# json {...}" line per point, and a
// machine-readable summary in BENCH_storage.json (--json <path>).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/random.h"
#include "datagen/stream.h"
#include "incremental/continuous_query.h"
#include "parallel/thread_pool.h"
#include "query/executor.h"
#include "storage/stored_relation.h"

using namespace tpset;
using namespace tpset::bench;

namespace {

using Cursors = std::vector<TimePoint>;

// Pre-interned sorted tuple batches: the workload both append paths consume,
// built outside the timed region (validation + interning cost is identical
// on both paths and not what this bench compares).
std::vector<std::vector<TpTuple>> BuildBatches(TpRelation* rel,
                                               std::size_t batch_rows,
                                               std::size_t epochs,
                                               Cursors* cursors, Rng* rng) {
  std::vector<std::vector<TpTuple>> batches;
  batches.reserve(epochs);
  TpContext& ctx = *rel->context();
  for (std::size_t e = 0; e < epochs; ++e) {
    DeltaBatch delta = NextChainBatch(cursors, batch_rows, rng);
    std::vector<TpTuple> tuples;
    tuples.reserve(delta.rows.size());
    for (const DeltaRow& row : delta.rows) {
      VarId v = ctx.vars().Add(row.p);
      FactId f = ctx.facts().Intern(row.fact);
      tuples.push_back({f, row.t, ctx.lineage().MakeVar(v)});
    }
    std::sort(tuples.begin(), tuples.end(), FactTimeOrder());
    batches.push_back(std::move(tuples));
  }
  return batches;
}

struct AppendPoint {
  std::size_t n = 0;
  std::size_t batch_rows = 0;
  double merge_ms = 0;      // MergeSortedAppend, mean per epoch
  double runindex_ms = 0;   // AppendRun, mean per epoch
  double amortized_ms = 0;  // AppendRun + one final Compact, mean per epoch
  double compact_seq_ms = 0;
  double compact_par_ms = 0;
  std::size_t runs_after = 0;
  double speedup = 0;  // merge / runindex
};

AppendPoint MeasureAppend(std::size_t n, std::size_t batch_rows,
                          std::size_t epochs) {
  AppendPoint p;
  p.n = n;
  p.batch_rows = batch_rows;

  auto ctx = std::make_shared<TpContext>();
  const std::size_t num_facts = n >= 1000 ? n / 1000 : 1;
  Rng rng(0x5704A6E);
  Cursors cursors(num_facts, 0);
  TpRelation seed(ctx, Schema::SingleInt("fact"), "r");
  SeedFactChains(&seed, n, &cursors, &rng);

  // Identical twins: one keeps the O(n) merge path, one goes through the
  // run index. Batches are shared (tuples are value types).
  TpRelation merge_rel = seed;
  StoredRelation stored{[&] {
    TpRelation base = seed;
    base.MarkSortedUnchecked();
    return base;
  }()};
  std::vector<std::vector<TpTuple>> batches =
      BuildBatches(&seed, p.batch_rows, epochs, &cursors, &rng);

  double merge_total = 0;
  for (const std::vector<TpTuple>& b : batches) {
    std::vector<TpTuple> copy = b;
    merge_total += TimeMs([&]() { merge_rel.MergeSortedAppend(std::move(copy)); });
  }
  p.merge_ms = merge_total / static_cast<double>(batches.size());

  double run_total = 0;
  EpochId epoch = 1;
  for (const std::vector<TpTuple>& b : batches) {
    std::vector<TpTuple> copy = b;
    run_total += TimeMs([&]() {
      Status st = stored.AppendRun(std::move(copy), epoch++);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        std::exit(1);
      }
    });
  }
  p.runindex_ms = run_total / static_cast<double>(batches.size());
  p.runs_after = stored.run_count();

  p.compact_seq_ms = TimeMs([&]() { stored.Compact(); });
  p.amortized_ms =
      (run_total + p.compact_seq_ms) / static_cast<double>(batches.size());
  p.speedup = p.runindex_ms > 0 ? p.merge_ms / p.runindex_ms : 0.0;

  // Parallel compaction, measured on a rebuilt tail: another generation of
  // chain batches (the cursors keep every append valid) lands as fresh runs,
  // then an 8-thread fact-range compaction folds them.
  {
    Cursors par_cursors = cursors;
    std::vector<std::vector<TpTuple>> more =
        BuildBatches(&seed, p.batch_rows, epochs, &par_cursors, &rng);
    for (std::vector<TpTuple>& b : more) {
      Status st = stored.AppendRun(std::move(b), epoch++);
      if (!st.ok()) std::exit(1);
    }
    ThreadPool pool(8);
    p.compact_par_ms = TimeMs([&]() { stored.Compact(PoolLane(&pool, 8)); });
  }
  return p;
}

struct RetentionPoint {
  std::size_t n = 0;
  std::size_t epochs = 0;
  std::size_t max_resident_retained = 0;
  std::size_t final_resident_unretained = 0;
  std::size_t tuples_retired = 0;
  std::size_t max_acc_retained = 0;
};

RetentionPoint MeasureRetention(std::size_t batch_rows, std::size_t epochs) {
  RetentionPoint out;
  out.n = batch_rows;
  out.epochs = epochs;
  const std::size_t num_facts = std::max<std::size_t>(1, batch_rows);

  // An unbounded stream: relations start empty and grow one batch per epoch,
  // so resident state is all stream — the quantity retention must bound.
  for (int retained = 0; retained < 2; ++retained) {
    auto ctx = std::make_shared<TpContext>();
    QueryExecutor exec(ctx);
    Rng rng(0x8E7E4710);
    std::vector<Cursors> cursors(2, Cursors(num_facts, 0));
    for (std::size_t side = 0; side < 2; ++side) {
      TpRelation rel(ctx, Schema::SingleInt("fact"), side == 0 ? "r" : "s");
      Status st = exec.Register(rel);
      if (!st.ok()) std::exit(1);
    }
    Result<ContinuousQuery*> cq = exec.RegisterContinuous("diff", "r - s");
    if (!cq.ok()) std::exit(1);

    std::size_t max_resident = 0;
    std::size_t max_acc = 0;
    for (std::size_t e = 0; e < epochs; ++e) {
      const std::size_t side = e % 2;
      DeltaBatch batch = NextChainBatch(&cursors[side], batch_rows, &rng);
      Result<EpochId> epoch = exec.Append(side == 0 ? "r" : "s", batch);
      if (!epoch.ok()) std::exit(1);
      if (retained == 1 && e % 8 == 7) {
        // Slide the horizon: forget everything older than the slowest
        // fact's cursor minus a small margin, on both relations.
        TimePoint low = cursors[0][0];
        for (const Cursors& c : cursors) {
          for (TimePoint t : c) low = std::min(low, t);
        }
        const TimePoint watermark = low - 8;
        if (watermark > 0) {
          for (const char* rel : {"r", "s"}) {
            Result<std::size_t> retired = exec.Retain(rel, watermark);
            if (!retired.ok()) std::exit(1);
          }
        }
      }
      max_resident = std::max(max_resident,
                              exec.FindStored("r").value()->size() +
                                  exec.FindStored("s").value()->size());
      max_acc = std::max(max_acc, (*cq)->size());
    }
    if (retained == 1) {
      out.max_resident_retained = max_resident;
      out.max_acc_retained = max_acc;
      out.tuples_retired = exec.FindStored("r").value()->stats().tuples_retired +
                           exec.FindStored("s").value()->stats().tuples_retired;
    } else {
      out.final_resident_unretained = exec.FindStored("r").value()->size() +
                                      exec.FindStored("s").value()->size();
    }
  }
  return out;
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t i = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  return v[i];
}

struct MixedPoint {
  std::size_t n = 0;
  std::size_t reads = 0;
  std::size_t appends = 0;
  double reader_p50_ms = 0;
  double reader_p99_ms = 0;
  double append_p99_ms = 0;  // includes the lock wait in locked mode
  double appends_per_sec = 0;
};

// One mixed read/write run: a writer appending chain batches, a reader
// repeatedly scanning the whole relation, and (snapshot mode) a compactor
// folding runs underneath. `locked` emulates the pre-snapshot engine: one
// exclusive lock serializes the reader's View() fold against every append —
// the reader-blocks-writer regime this PR retires.
MixedPoint MeasureMixed(std::size_t n, std::size_t batch_rows,
                        std::size_t epochs, bool locked) {
  MixedPoint p;
  p.n = n;

  auto ctx = std::make_shared<TpContext>();
  const std::size_t num_facts = n >= 1000 ? n / 1000 : 1;
  Rng rng(0x31AED5E);
  Cursors cursors(num_facts, 0);
  TpRelation seed(ctx, Schema::SingleInt("fact"), "r");
  SeedFactChains(&seed, n, &cursors, &rng);
  StoredRelation stored{[&] {
    TpRelation base = seed;
    base.MarkSortedUnchecked();
    return base;
  }()};
  std::vector<std::vector<TpTuple>> batches =
      BuildBatches(&seed, batch_rows, epochs, &cursors, &rng);

  std::mutex view_mu;  // locked mode only
  std::atomic<bool> done{false};
  std::vector<double> read_ms;
  read_ms.reserve(4096);
  // Retention horizon: the watermark walks linearly to half the seeded
  // span over the run, so compaction has real retirement work in both
  // modes and the resident set stays comparable.
  const TimePoint half_span = stored.max_interval_end() / 2;

  // Deadline-paced stream: append i lands no earlier than t0 + i*pace, so
  // both modes apply identical write work at an identical cadence — reader
  // latency is then the only variable. The pace grows with n to stay above
  // the worst-case in-lock fold, so even the blocked locked-mode writer can
  // hold the schedule instead of silently doing less work.
  const auto pace = std::chrono::microseconds(200 + n / 30);
  const auto writer_t0 = std::chrono::steady_clock::now();
  std::vector<double> append_ms;
  append_ms.reserve(epochs);
  std::thread writer([&] {
    EpochId epoch = 1;
    for (std::size_t i = 0; i < batches.size(); ++i) {
      std::this_thread::sleep_until(writer_t0 + (i + 1) * pace);
      Status st;
      append_ms.push_back(TimeMs([&] {
        if (locked) {
          std::lock_guard<std::mutex> lock(view_mu);
          st = stored.AppendRun(std::move(batches[i]), epoch++);
        } else {
          st = stored.AppendRun(std::move(batches[i]), epoch++);
        }
      }));
      if (!st.ok()) std::exit(1);
    }
    done.store(true, std::memory_order_release);
  });

  // Retention + compaction, one thread, both modes advancing the same
  // watermark schedule. Snapshot mode is the new engine: watermarks apply
  // through budgeted off-lock CompactSteps, append debt drains only when it
  // builds up (reads drain the tail too — every published fold empties it).
  // Locked mode is the old engine: Retain was a stop-the-world
  // SetWatermark + full Compact under the one lock readers and the writer
  // share.
  std::thread compactor([&] {
    std::size_t tick = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(pace);
      ++tick;
      if (tick % 8 == 0 && half_span > 0) {
        const TimePoint wm = static_cast<TimePoint>(
            static_cast<double>(half_span) *
            std::min(1.0, static_cast<double>(tick) /
                              static_cast<double>(epochs)));
        if (wm > 0) {
          if (locked) {
            std::lock_guard<std::mutex> lock(view_mu);
            if (stored.SetWatermark(wm).ok()) stored.Compact();
          } else if (stored.SetWatermark(wm).ok()) {
            stored.CompactStep(8);
          }
        }
      } else if (!locked && stored.compaction_debt() >= 4) {
        stored.CompactStep(8);
      }
    }
  });

  // The reader runs on the bench thread: scan the whole relation, one
  // latency sample per scan, until the writer finishes.
  std::uint64_t checksum = 0;
  while (!done.load(std::memory_order_acquire)) {
    read_ms.push_back(TimeMs([&] {
      std::uint64_t local = 0;
      if (locked) {
        std::lock_guard<std::mutex> lock(view_mu);
        const TpRelation& view = stored.View();
        for (const TpTuple& t : view.tuples()) local += t.fact;
      } else {
        // The engine's read path: pin a snapshot, fold off-lock if the tail
        // is dirty (the claimed fold publishes, so the next read is a flat
        // scan), and scan — while appends and compaction land underneath.
        const std::shared_ptr<const TpRelation> view = stored.FoldedView();
        for (const TpTuple& t : view->tuples()) local += t.fact;
      }
      checksum += local;
    }));
  }
  writer.join();
  const auto writer_t1 = std::chrono::steady_clock::now();
  compactor.join();
  if (checksum == 0xdead) std::printf("# impossible\n");

  p.reads = read_ms.size();
  p.appends = epochs;
  p.reader_p50_ms = Percentile(read_ms, 0.50);
  p.reader_p99_ms = Percentile(read_ms, 0.99);
  p.append_p99_ms = Percentile(append_ms, 0.99);
  const double secs =
      std::chrono::duration<double>(writer_t1 - writer_t0).count();
  p.appends_per_sec = secs > 0 ? static_cast<double>(epochs) / secs : 0;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  double scale = ScaleFactor(argc, argv);
  const char* json_path = "BENCH_storage.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  std::printf("# storage: run-indexed append path vs MergeSortedAppend; "
              "0.1%% batches, per-fact chains (scale=%.3g)\n", scale);
  PrintHeader("storage");

  std::string json = "{\n  \"experiment\": \"storage\",\n";
  json += ProvenanceJson(/*threads=*/8);
  {
    char head[96];
    std::snprintf(head, sizeof(head), "  \"scale\": %.4g,\n  \"append\": [\n",
                  scale);
    json += head;
  }

  // Fixed batch size across relation sizes: per-epoch run-index cost should
  // be flat in n (it is O(batch)) while the merge path grows linearly. At
  // 1M the batch is the acceptance point's 0.1%.
  const std::size_t sizes[] = {Scaled(100000, scale), Scaled(1000000, scale)};
  const std::size_t batch_rows = std::max<std::size_t>(1, Scaled(1000, scale));
  const std::size_t epochs = 40;
  bool first = true;
  for (std::size_t n : sizes) {
    AppendPoint p = MeasureAppend(n, batch_rows, epochs);
    PrintRow("storage", "append", "merge-sorted-append", n, p.merge_ms);
    PrintRow("storage", "append", "run-index", n, p.runindex_ms);
    PrintRow("storage", "append", "run-index+compact", n, p.amortized_ms);
    PrintRow("storage", "compact", "sequential", n, p.compact_seq_ms);
    PrintRow("storage", "compact", "parallel/8", n, p.compact_par_ms);

    char line[384];
    std::snprintf(line, sizeof(line),
                  "{\"n\": %zu, \"batch_rows\": %zu, \"merge_ms\": %.4f, "
                  "\"runindex_ms\": %.4f, \"amortized_ms\": %.4f, "
                  "\"compact_seq_ms\": %.3f, \"compact_par8_ms\": %.3f, "
                  "\"runs_after\": %zu, \"speedup\": %.1f}",
                  p.n, p.batch_rows, p.merge_ms, p.runindex_ms, p.amortized_ms,
                  p.compact_seq_ms, p.compact_par_ms, p.runs_after, p.speedup);
    std::printf("# json %s\n", line);
    if (!first) json += ",\n";
    first = false;
    json += std::string("    ") + line;
  }
  json += "\n  ],\n";

  // Mixed read/write: same relation size and batch shape as the append
  // experiment's large point; the two modes run identical workloads.
  {
    const std::size_t n = Scaled(1000000, scale);
    const std::size_t mixed_epochs = 60;
    MixedPoint snap = MeasureMixed(n, batch_rows, mixed_epochs, false);
    MixedPoint lock = MeasureMixed(n, batch_rows, mixed_epochs, true);
    PrintRow("storage", "mixed", "snapshot-reader-p99", n, snap.reader_p99_ms);
    PrintRow("storage", "mixed", "locked-reader-p99", n, lock.reader_p99_ms);
    PrintRow("storage", "mixed", "snapshot-append-p99", n, snap.append_p99_ms);
    PrintRow("storage", "mixed", "locked-append-p99", n, lock.append_p99_ms);
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "{\"n\": %zu, \"appends\": %zu,\n"
        "    \"snapshot\": {\"reads\": %zu, \"reader_p50_ms\": %.4f, "
        "\"reader_p99_ms\": %.4f, \"append_p99_ms\": %.4f, "
        "\"appends_per_sec\": %.1f},\n"
        "    \"locked\": {\"reads\": %zu, \"reader_p50_ms\": %.4f, "
        "\"reader_p99_ms\": %.4f, \"append_p99_ms\": %.4f, "
        "\"appends_per_sec\": %.1f}}",
        snap.n, snap.appends, snap.reads, snap.reader_p50_ms,
        snap.reader_p99_ms, snap.append_p99_ms, snap.appends_per_sec,
        lock.reads, lock.reader_p50_ms, lock.reader_p99_ms, lock.append_p99_ms,
        lock.appends_per_sec);
    std::printf("# json %s\n", line);
    json += std::string("  \"mixed\": ") + line + ",\n";
  }

  {
    RetentionPoint r = MeasureRetention(Scaled(1000, scale), 200);
    PrintRow("storage", "retention", "max-resident-retained", r.n,
             static_cast<double>(r.max_resident_retained));
    PrintRow("storage", "retention", "final-resident-unretained", r.n,
             static_cast<double>(r.final_resident_unretained));
    char line[320];
    std::snprintf(line, sizeof(line),
                  "{\"batch_rows\": %zu, \"epochs\": %zu, "
                  "\"max_resident_retained\": %zu, "
                  "\"final_resident_unretained\": %zu, "
                  "\"tuples_retired\": %zu, \"max_acc_retained\": %zu}",
                  r.n, r.epochs, r.max_resident_retained,
                  r.final_resident_unretained, r.tuples_retired,
                  r.max_acc_retained);
    std::printf("# json %s\n", line);
    json += std::string("  \"retention\": ") + line + "\n}\n";
  }

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "bench_storage: cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
