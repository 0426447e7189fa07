// Thread-scaling of the partitioned parallel engine: LAWA-P at 1/2/4/8
// threads against sequential LAWA on a 1M-tuple-per-relation synthetic pair
// (scaled by TPSET_BENCH_SCALE), all three operations, in both apply modes
// (bit-identical and staged; see parallel/parallel_set_op.h).
//
// Each LAWA-P measurement carries the per-phase wall-time breakdown
// (sort/split/advance/apply), read from the child spans the engine records
// on the operation's obs::Span; `apply` is the sequential arena-mutating
// tail — the Amdahl term the staged mode attacks. The context uses
// hash-consing (the production default), which is what makes the
// bit-identical apply phase hash-heavy. Every rep runs against a freshly
// generated context and pair (same seed): a production operation builds
// lineage formulas the arena has not seen, so a warm-arena rerun — where
// every intern degrades to a cache hit — would systematically understate
// the apply phase.
//
// A second section runs the morsel scheduler under *fact skew* — zipf(s=1.2)
// and a single 90%-weight fact — for real, and additionally *models* it at
// 8 workers: per-morsel staged sweep and splice times are measured in
// isolation (exact — morsels run back to back on one core), then
// list-scheduled greedily onto 8 idealized workers, with the splice
// overlapping the sweeps (apply+sweep = max(makespan, apply)). The model
// exists because wall-clock speedup at N threads saturates at the host's
// core count (CI containers often pin 1-2 cores). The banked A/B against
// the retired static partitioner and no-steal scheduling lives in the
// committed BENCH_parallel.json.
//
// A third section A/Bs the sweep kernels (scalar vs columnar SoA, see
// DESIGN.md "Columnar sweep kernel") on the pure t1 sweep — window
// enumeration only, calling both advancers directly; the whole-op wall is
// dominated by lineage concatenation, which no sweep kernel can move. The
// window streams are cross-checked ("identical") and any divergence exits
// non-zero; output equality of the engine paths against the scalar
// reference is a ctest (columnar_kernel_test). A radix vs comparison sort
// measurement on shuffled input rides along.
//
// Output: the harness CSV rows, one "# json {...}" summary line per
// operation, and a machine-readable summary written to BENCH_parallel.json
// (override with --json <path>) so the perf trajectory is tracked across
// PRs.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <random>

#include "bench/harness.h"
#include "datagen/synthetic.h"
#include "lawa/advancer.h"
#include "lawa/columnar_advancer.h"
#include "lawa/set_ops.h"
#include "lineage/staging.h"
#include "net/http_server.h"
#include "obs/export.h"
#include "obs/http_endpoints.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "parallel/parallel_set_op.h"
#include "parallel/partition.h"
#include "parallel/scheduler.h"

using namespace tpset;
using namespace tpset::bench;

namespace {

// One timed operation: its wall and the engine's four phase walls.
struct Sample {
  double wall_ms = 0.0;
  double sort_ms = 0.0;
  double split_ms = 0.0;
  double advance_ms = 0.0;
  double apply_ms = 0.0;
};

// Wall of one phase child span of an operation span (0 when the phase did
// not run — the sequential path records only "advance").
double PhaseMs(const obs::Span& span, const char* phase) {
  const obs::Span* child = span.FindChild(phase);
  return child == nullptr ? 0.0 : child->wall_ms;
}

// Runs one operation with its phases recorded on a span.
Sample TimedCompute(const ParallelSetOpAlgorithm& algo, SetOpKind op,
                    const TpRelation& r, const TpRelation& s,
                    LawaStats* stats = nullptr) {
  obs::Span span;
  const double ms = TimeMs([&]() {
    TpRelation out = algo.ComputeSequenced(op, r, s, stats, &span);
    (void)out;
  });
  return {ms, PhaseMs(span, "sort"), PhaseMs(span, "split"),
          PhaseMs(span, "advance"), PhaseMs(span, "apply")};
}

struct Workload {
  SyntheticPairSpec spec;

  // Fresh context + pair, deterministic across calls (fixed seed).
  std::pair<TpRelation, TpRelation> Fresh() const {
    auto ctx = std::make_shared<TpContext>(/*hash_consing=*/true);
    Rng rng(0x9A7A11E1);
    return GenerateSyntheticPair(ctx, spec, &rng);
  }
};

// Best-of-reps wall time (with the fastest run's phase breakdown), each rep
// against a cold arena. Generation time is excluded from the measurement.
Sample BestTimedCold(int reps, const Workload& wl,
                     const ParallelSetOpAlgorithm& algo, SetOpKind op) {
  Sample best;
  for (int i = 0; i < reps; ++i) {
    auto [r, s] = wl.Fresh();
    const Sample run = TimedCompute(algo, op, r, s);
    if (i == 0 || run.wall_ms < best.wall_ms) best = run;
  }
  return best;
}

// Cold-arena best-of-reps for sequential LAWA.
double BestSequentialCold(int reps, const Workload& wl, SetOpKind op) {
  double best = 0.0;
  for (int i = 0; i < reps; ++i) {
    auto [r, s] = wl.Fresh();
    double ms = TimeMs([&]() {
      TpRelation out = LawaSetOp(op, r, s);
      (void)out;
    });
    if (i == 0 || ms < best) best = ms;
  }
  return best;
}

void AppendPhaseJson(std::string* out, std::size_t threads, const Sample& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"t%zu\":{\"wall_ms\":%.3f,\"sort_ms\":%.3f,\"split_ms\":%.3f,"
                "\"advance_ms\":%.3f,\"apply_ms\":%.3f}",
                threads, s.wall_ms, s.sort_ms, s.split_ms, s.advance_ms,
                s.apply_ms);
  *out += buf;
}

// ---- Skewed scenarios (morsel scheduler) ---------------------------------

constexpr std::size_t kSkewThreads = 8;

// Fresh skewed pair, deterministic across calls.
std::pair<TpRelation, TpRelation> FreshSkewPair(const SkewedPairSpec& spec) {
  auto ctx = std::make_shared<TpContext>(/*hash_consing=*/true);
  Rng rng(0x5EED5EED);
  return GenerateSkewedPair(ctx, spec, &rng);
}

struct SkewSample {
  Sample run;
  LawaStats stats;
};

// Best-of-reps real execution, staged apply, cold arenas.
SkewSample BestSkewCold(int reps, const SkewedPairSpec& spec, SetOpKind op) {
  SkewSample best;
  ParallelSetOpAlgorithm algo(kSkewThreads, SortMode::kComparison,
                              ApplyMode::kStaged);
  for (int i = 0; i < reps; ++i) {
    auto [r, s] = FreshSkewPair(spec);
    LawaStats stats;
    const Sample run = TimedCompute(algo, op, r, s, &stats);
    if (i == 0 || run.wall_ms < best.run.wall_ms) best = SkewSample{run, stats};
  }
  return best;
}

// Per-unit staged sweep and serial splice times, measured in isolation (one
// unit at a time, which single-core hosts make exact). Mutates the pair's
// context — callers pass a fresh pair.
struct UnitTimes {
  std::vector<double> sweep_ms;  // per plan unit, plan order
  double apply_ms = 0.0;         // total serial splice + remap time
};

UnitTimes MeasureStagedUnits(SetOpKind op, const TpRelation& r,
                             const TpRelation& s,
                             const std::vector<FactPartition>& units) {
  const TpTuple* rdata = r.tuples().data();
  const TpTuple* sdata = s.tuples().data();
  LineageId frozen = 2;
  for (const TpTuple& t : r.tuples()) {
    if (t.lineage != kNullLineage && t.lineage >= frozen) frozen = t.lineage + 1;
  }
  for (const TpTuple& t : s.tuples()) {
    if (t.lineage != kNullLineage && t.lineage >= frozen) frozen = t.lineage + 1;
  }
  LineageManager& mgr = r.context()->lineage();
  UnitTimes out;
  out.sweep_ms.reserve(units.size());
  std::vector<LineageId> remap;
  for (const FactPartition& part : units) {
    StagingArena arena(frozen, mgr.hash_consing());
    std::vector<TpTuple> tuples;
    out.sweep_ms.push_back(TimeMs([&]() {
      LineageAwareWindowAdvancer adv(
          rdata + part.r_begin, part.r_end - part.r_begin,
          sdata + part.s_begin, part.s_end - part.s_begin);
      ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
        tuples.push_back({w.fact, w.t, Concat(op, arena, w.lr, w.ls)});
      });
    }));
    out.apply_ms += TimeMs([&]() {
      mgr.SpliceStaged(arena, &remap);
      for (TpTuple& t : tuples) {
        if (t.lineage != kNullLineage && t.lineage >= frozen) {
          t.lineage = remap[t.lineage - frozen];
        }
      }
    });
  }
  return out;
}

// ---- Kernel A/B (scalar vs columnar advance) ------------------------------

// One surviving window as the sweep emitted it, before lineage
// concatenation — the stream both kernels must produce identically.
struct KernelWindow {
  FactId fact;
  TimePoint start, end;
  LineageId lr, ls;
  bool operator==(const KernelWindow& o) const {
    return fact == o.fact && start == o.start && end == o.end && lr == o.lr &&
           ls == o.ls;
  }
};

// Greedy list scheduling of the units in plan order onto `workers`
// idealized workers (each unit lands on the least-loaded one) — what the
// stealing deques approximate; a single heavy unit dominates the result
// exactly as it pins a worker in practice.
double Makespan(const std::vector<double>& durations, std::size_t workers) {
  std::vector<double> load(workers, 0.0);
  for (double d : durations) {
    *std::min_element(load.begin(), load.end()) += d;
  }
  return *std::max_element(load.begin(), load.end());
}

// ---- Serving-overhead harness (--serve) -----------------------------------

// One blocking loopback GET, reading the response to EOF. Returns bytes
// received (0 on any failure — the bench does not care why a scrape missed,
// only that the server was under scrape load while it measured).
std::size_t ScrapeOnce(std::uint16_t port, const char* target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::size_t total = 0;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    std::string request = std::string("GET ") + target +
                          " HTTP/1.1\r\nHost: bench\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      ssize_t got;
      while ((got = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
        total += static_cast<std::size_t>(got);
      }
    }
  }
  ::close(fd);
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  // The bench runs with the flight recorder's collector live (as production
  // does): its sampling overhead is part of what the committed numbers
  // measure. DESIGN.md records the measured on/off delta.
  obs::Recorder::Global().Start();
  double scale = ScaleFactor(argc, argv);
  const char* json_path = "BENCH_parallel.json";
  const char* metrics_path = nullptr;
  bool serve = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strncmp(argv[i], "--metrics=", 10) == 0) {
      metrics_path = argv[i] + 10;
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
    }
  }

  // --serve: run the introspection HTTP server on an ephemeral loopback
  // port for the whole bench, with a client thread scraping /metrics every
  // 100ms — the production "Prometheus is watching" configuration. Compare
  // the measured walls against a --serve-less run to put a number on
  // serving overhead (recorded in DESIGN.md; the gate is <= 3% on the
  // advance wall).
  std::unique_ptr<net::HttpServer> server;
  std::thread scraper;
  std::atomic<bool> scraping{false};
  std::uint64_t scrapes = 0;
  if (serve) {
    server = std::make_unique<net::HttpServer>();
    obs::RegisterIntrospectionEndpoints(server.get(), nullptr);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "bench_parallel: --serve failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("# serving on http://%s (scraping /metrics every 100ms)\n",
                server->address().c_str());
    scraping.store(true, std::memory_order_release);
    const std::uint16_t port = server->port();
    scraper = std::thread([&scraping, &scrapes, port]() {
      while (scraping.load(std::memory_order_acquire)) {
        if (ScrapeOnce(port, "/metrics") > 0) ++scrapes;
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }

  std::printf("# parallel scaling: LAWA-P threads=1/2/4/8 (bit-identical and "
              "staged apply) vs LAWA, 1M tuples/relation (scale=%.3g), 1K "
              "facts, hash-consing on\n", scale);
  PrintHeader("parallel");

  const std::size_t n = Scaled(1000000, scale);
  Workload wl;
  wl.spec = TableIIIPreset(0.6);
  wl.spec.num_tuples = n;
  wl.spec.num_facts = std::max<std::size_t>(1, n / 1000);

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  const int reps = 3;

  std::string json = "{\n  \"experiment\": \"parallel\",\n";
  json += ProvenanceJson(/*threads=*/8);
  {
    char head[256];
    std::snprintf(head, sizeof(head),
                  "  \"scale\": %.4g,\n  \"n_per_relation\": %zu,\n"
                  "  \"num_facts\": %zu,\n  \"reps\": %d,\n"
                  "  \"hash_consing\": true,\n  \"cold_arena\": true,\n"
                  "  \"operations\": [\n",
                  scale, n, wl.spec.num_facts, reps);
    json += head;
  }

  bool first_op = true;
  for (SetOpKind op : kAllSetOps) {
    const char* op_name = SetOpName(op);

    double seq_ms = BestSequentialCold(reps, wl, op);
    PrintRow("parallel", op_name, "LAWA", n, seq_ms);

    Sample bit_at[9], staged_at[9];
    for (std::size_t threads : thread_counts) {
      ParallelSetOpAlgorithm bit(threads, SortMode::kComparison,
                                 ApplyMode::kBitIdentical);
      bit_at[threads] = BestTimedCold(reps, wl, bit, op);
      PrintRow("parallel", op_name, "LAWA-P/" + std::to_string(threads), n,
               bit_at[threads].wall_ms);

      ParallelSetOpAlgorithm staged(threads, SortMode::kComparison,
                                    ApplyMode::kStaged);
      staged_at[threads] = BestTimedCold(reps, wl, staged, op);
      PrintRow("parallel", op_name, "LAWA-P-staged/" + std::to_string(threads),
               n, staged_at[threads].wall_ms);
    }

    const double apply_speedup =
        staged_at[8].apply_ms > 0
            ? bit_at[8].apply_ms / staged_at[8].apply_ms
            : 0.0;
    std::printf(
        "# json {\"experiment\":\"parallel\",\"operation\":\"%s\",\"n\":%zu,"
        "\"lawa_ms\":%.3f,\"t8_bit_ms\":%.3f,\"t8_staged_ms\":%.3f,"
        "\"apply_ms_bit_t8\":%.3f,\"apply_ms_staged_t8\":%.3f,"
        "\"apply_speedup_staged_t8\":%.3f,"
        "\"speedup_8_over_1_bit\":%.3f,\"speedup_8_over_1_staged\":%.3f}\n",
        op_name, n, seq_ms, bit_at[8].wall_ms, staged_at[8].wall_ms,
        bit_at[8].apply_ms, staged_at[8].apply_ms, apply_speedup,
        bit_at[8].wall_ms > 0 ? bit_at[1].wall_ms / bit_at[8].wall_ms : 0.0,
        staged_at[8].wall_ms > 0 ? staged_at[1].wall_ms / staged_at[8].wall_ms
                                 : 0.0);

    if (!first_op) json += ",\n";
    first_op = false;
    char ophead[128];
    std::snprintf(ophead, sizeof(ophead),
                  "    {\"operation\": \"%s\", \"lawa_ms\": %.3f,\n", op_name,
                  seq_ms);
    json += ophead;
    json += "     \"bit_identical\": {";
    for (std::size_t i = 0; i < 4; ++i) {
      if (i > 0) json += ",";
      AppendPhaseJson(&json, thread_counts[i], bit_at[thread_counts[i]]);
    }
    json += "},\n     \"staged\": {";
    for (std::size_t i = 0; i < 4; ++i) {
      if (i > 0) json += ",";
      AppendPhaseJson(&json, thread_counts[i], staged_at[thread_counts[i]]);
    }
    json += "},\n";
    char optail[256];
    std::snprintf(optail, sizeof(optail),
                  "     \"apply_speedup_staged_t8\": %.3f,\n"
                  "     \"speedup_8_over_1_bit\": %.3f,\n"
                  "     \"speedup_8_over_1_staged\": %.3f}",
                  apply_speedup,
                  bit_at[8].wall_ms > 0 ? bit_at[1].wall_ms / bit_at[8].wall_ms
                                        : 0.0,
                  staged_at[8].wall_ms > 0
                      ? staged_at[1].wall_ms / staged_at[8].wall_ms
                      : 0.0);
    json += optail;
  }
  json += "\n  ],\n";

  // ---- Skewed scenarios: morsel scheduler, real and modeled --------------
  std::printf("# skew: zipf(s=1.2) and one-hot(90%%) facts, staged apply, "
              "threads=%zu; real walls + modeled 8-worker makespan\n",
              kSkewThreads);
  PrintHeader("parallel-skew");

  struct SkewScenario {
    const char* name;
    SkewedPairSpec spec;
  };
  std::vector<SkewScenario> scenarios(2);
  scenarios[0].name = "zipf_1.2";
  scenarios[0].spec.zipf_s = 1.2;
  scenarios[0].spec.num_facts = 64;
  scenarios[1].name = "one_hot_90";
  scenarios[1].spec.hot_fact_share = 0.9;
  scenarios[1].spec.num_facts = 16;
  for (SkewScenario& sc : scenarios) sc.spec.num_tuples = n;

  json += "  \"skew\": [\n";
  const int skew_reps = 2;
  bool first_skew = true;
  for (const SkewScenario& sc : scenarios) {
    for (SetOpKind op : kAllSetOps) {
      const char* op_name = SetOpName(op);
      const std::string tag = std::string(sc.name) + "/" + op_name;

      double seq_ms = 0.0;
      for (int i = 0; i < skew_reps; ++i) {
        auto [r, s] = FreshSkewPair(sc.spec);
        double ms = TimeMs([&]() {
          TpRelation out = LawaSetOp(op, r, s);
          (void)out;
        });
        if (i == 0 || ms < seq_ms) seq_ms = ms;
      }
      PrintRow("parallel-skew", tag.c_str(), "LAWA", n, seq_ms);

      SkewSample mo = BestSkewCold(skew_reps, sc.spec, op);
      PrintRow("parallel-skew", tag.c_str(), "morsel/8", n, mo.run.wall_ms);

      // Modeled 8-worker makespan from per-morsel measurements: splices
      // overlap the sweeps, so the phase pair costs max(makespan, apply).
      std::size_t units = 0;
      double sweep8 = 0.0, apply = 0.0;
      {
        auto [r, s] = FreshSkewPair(sc.spec);
        const std::vector<FactPartition> parts = PartitionByFactRange(
            r.tuples().data(), r.tuples().size(), s.tuples().data(),
            s.tuples().size(), kSkewThreads * kPartitionsPerThread);
        MorselPlan plan = BuildMorsels(
            r.tuples().data(), s.tuples().data(), parts,
            MorselAutoBudget(r.tuples().size() + s.tuples().size(),
                             kSkewThreads));
        units = plan.morsels.size();
        UnitTimes ut = MeasureStagedUnits(op, r, s, plan.morsels);
        sweep8 = Makespan(ut.sweep_ms, kSkewThreads);
        apply = ut.apply_ms;
      }
      const double total = std::max(sweep8, apply);
      PrintRow("parallel-skew", tag.c_str(), "modeled-morsel/8", n, total);
      std::printf(
          "# json {\"experiment\":\"parallel-skew\",\"scenario\":\"%s\","
          "\"operation\":\"%s\",\"morsels\":%zu,\"stolen\":%zu,"
          "\"facts_split\":%zu}\n",
          sc.name, op_name, mo.stats.morsels_run, mo.stats.morsels_stolen,
          mo.stats.facts_split);

      if (!first_skew) json += ",\n";
      first_skew = false;
      char buf[1024];
      std::snprintf(
          buf, sizeof(buf),
          "    {\"scenario\": \"%s\", \"operation\": \"%s\", \"n\": %zu,\n"
          "     \"lawa_ms\": %.3f,\n     \"real\": {\"morsel\": {",
          sc.name, op_name, n, seq_ms);
      json += buf;
      AppendPhaseJson(&json, kSkewThreads, mo.run);
      json += "}},\n";
      std::snprintf(
          buf, sizeof(buf),
          "     \"morsels_run\": %zu, \"morsels_stolen\": %zu, "
          "\"facts_split\": %zu,\n"
          "     \"modeled8\": {\"units_morsel\": %zu, "
          "\"morsel_sweep_ms\": %.3f, \"morsel_apply_ms\": %.3f, "
          "\"morsel_total_ms\": %.3f}}",
          mo.stats.morsels_run, mo.stats.morsels_stolen, mo.stats.facts_split,
          units, sweep8, apply, total);
      json += buf;
    }
  }
  json += "\n  ],\n";

  // ---- Kernel A/B: scalar vs columnar LAWA advance -----------------------
  // Pure sweep at t1 (advancer + window enumeration only — no lineage
  // concatenation, which dominates the whole-op sequential wall and would
  // bury the kernel difference). Both advancers are called directly, so
  // the A/B survives the engine's size rule picking one of them.
  std::printf("# kernel A/B: scalar vs columnar advance — pure sweep t1 "
              "(window streams cross-checked)\n");
  PrintHeader("kernel-ab");
  json += "  \"kernel_ab\": [\n";
  const int ab_reps = 5;
  bool first_ab = true;
  bool ab_diverged = false;
  for (SetOpKind op : kAllSetOps) {
    const char* op_name = SetOpName(op);
    const std::string tag = op_name;

    // Pure sweep over one shared sorted pair (no arena mutation, so reps
    // can reuse it); both kernels must emit the identical window stream.
    auto [r, s] = wl.Fresh();
    std::vector<KernelWindow> scalar_win, columnar_win;
    double sweep_scalar = 0.0, sweep_columnar = 0.0;
    for (int i = 0; i < ab_reps; ++i) {
      scalar_win.clear();
      double ms = TimeMs([&]() {
        LineageAwareWindowAdvancer adv(r.tuples().data(), r.size(),
                                       s.tuples().data(), s.size());
        ForEachSurvivingWindow(op, adv, [&](const LineageAwareWindow& w) {
          scalar_win.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
        });
      });
      if (i == 0 || ms < sweep_scalar) sweep_scalar = ms;
    }
    // First columnar() call builds the SoA projection; reported separately
    // because the relation caches it (one build amortizes over every sweep).
    const double build_ms = TimeMs([&]() {
      (void)r.columnar();
      (void)s.columnar();
    });
    for (int i = 0; i < ab_reps; ++i) {
      columnar_win.clear();
      double ms = TimeMs([&]() {
        ColumnarAdvancer adv(r.columnar(), s.columnar());
        adv.Sweep(op, [&](const LineageAwareWindow& w) {
          columnar_win.push_back({w.fact, w.t.start, w.t.end, w.lr, w.ls});
        });
      });
      if (i == 0 || ms < sweep_columnar) sweep_columnar = ms;
    }
    const bool identical = scalar_win == columnar_win;
    if (!identical) {
      std::fprintf(stderr,
                   "bench_parallel: kernel divergence (%s): scalar emitted "
                   "%zu windows, columnar %zu\n",
                   op_name, scalar_win.size(), columnar_win.size());
      ab_diverged = true;
    }
    PrintRow("kernel-ab", tag.c_str(), "sweep-scalar/1", n, sweep_scalar);
    PrintRow("kernel-ab", tag.c_str(), "sweep-columnar/1", n, sweep_columnar);

    const double sweep_speedup =
        sweep_columnar > 0 ? sweep_scalar / sweep_columnar : 0.0;
    std::printf(
        "# json {\"experiment\":\"kernel-ab\",\"operation\":\"%s\","
        "\"sweep_scalar_t1_ms\":%.3f,\"sweep_columnar_t1_ms\":%.3f,"
        "\"sweep_speedup_t1\":%.3f,\"build_ms\":%.3f,\"identical\":%s}\n",
        op_name, sweep_scalar, sweep_columnar, sweep_speedup, build_ms,
        identical ? "true" : "false");

    if (!first_ab) json += ",\n";
    first_ab = false;
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"operation\": \"%s\", \"n\": %zu, \"windows\": %zu,\n"
        "     \"sweep_scalar_t1_ms\": %.3f, \"sweep_columnar_t1_ms\": %.3f,\n"
        "     \"sweep_speedup_t1\": %.3f, \"build_ms\": %.3f,\n"
        "     \"identical\": %s}",
        op_name, n, scalar_win.size(), sweep_scalar, sweep_columnar,
        sweep_speedup, build_ms, identical ? "true" : "false");
    json += buf;
  }
  json += "\n  ],\n";

  // ---- Radix sort on unsorted input (hoisted counts + skipped passes) ----
  {
    auto [r, s] = wl.Fresh();
    std::vector<TpTuple> shuffled = r.tuples();
    std::mt19937 shuffle_rng(0xC0FFEE);
    std::shuffle(shuffled.begin(), shuffled.end(), shuffle_rng);
    double radix_ms = 0.0, cmp_ms = 0.0;
    for (int i = 0; i < ab_reps; ++i) {
      std::vector<TpTuple> copy = shuffled;
      double ms = TimeMs([&]() { SortTuples(&copy, SortMode::kCounting); });
      if (i == 0 || ms < radix_ms) radix_ms = ms;
    }
    for (int i = 0; i < ab_reps; ++i) {
      std::vector<TpTuple> copy = shuffled;
      double ms = TimeMs([&]() { SortTuples(&copy, SortMode::kComparison); });
      if (i == 0 || ms < cmp_ms) cmp_ms = ms;
    }
    PrintRow("kernel-ab", "sort-unsorted", "radix", shuffled.size(), radix_ms);
    PrintRow("kernel-ab", "sort-unsorted", "comparison", shuffled.size(),
             cmp_ms);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"sort_unsorted\": {\"n\": %zu, \"sort_radix_ms\": %.3f, "
                  "\"sort_comparison_ms\": %.3f}\n",
                  shuffled.size(), radix_ms, cmp_ms);
    json += buf;
  }
  json += "}\n";

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("# wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "bench_parallel: cannot write %s\n", json_path);
    return 1;
  }

  // --metrics <path>: dump the process-wide registry as JSON lines after
  // the run — the CI stage validates this export against the checked-in
  // schema (scripts/metrics_schema.json).
  if (metrics_path != nullptr) {
    const std::string lines = obs::JsonLines(obs::TakeScrape());
    if (std::FILE* f = std::fopen(metrics_path, "w")) {
      std::fputs(lines.c_str(), f);
      std::fclose(f);
      std::printf("# wrote %s\n", metrics_path);
    } else {
      std::fprintf(stderr, "bench_parallel: cannot write %s\n", metrics_path);
      return 1;
    }
  }
  if (serve) {
    scraping.store(false, std::memory_order_release);
    scraper.join();
    const net::HttpServerStats stats = server->stats();
    server->Stop();
    std::printf("# serve: scrapes=%llu served=%llu shed=%llu\n",
                static_cast<unsigned long long>(scrapes),
                static_cast<unsigned long long>(stats.served),
                static_cast<unsigned long long>(stats.saturated));
  }
  if (ab_diverged) {
    std::fprintf(stderr,
                 "bench_parallel: FAILED — columnar kernel diverged from "
                 "scalar (see above)\n");
    return 1;
  }
  return 0;
}
