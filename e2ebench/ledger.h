// Shared plumbing of the end-to-end benchmark: run configuration, latency
// statistics, the metric ledger a workload fills, failure accounting and the
// in-memory span log of a traced run.
#ifndef TPSET_E2EBENCH_LEDGER_H_
#define TPSET_E2EBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Set-ups per run before the measured phase; setup_s is their median (with
/// adhoc_query's per-round session opens added).
inline constexpr std::size_t kSetupReps = 3;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point t0) { return MsBetween(t0, Clock::now()); }

/// One benchmark invocation, as parsed from the command line.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs and short phases: the benchmark's own test runs this.
  bool smoke = false;
  /// Engine worker threads: min(4, nproc).
  std::size_t threads = 1;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";

  /// `full` at benchmark scale, `full / 50` (at least `min`) in smoke mode.
  std::size_t Size(std::size_t full, std::size_t min = 1) const {
    if (!smoke) return full;
    return full / 50 > min ? full / 50 : min;
  }
};

/// The highest percentile of a fixed ladder (50, 75, 90, 95, 99, 99.9) that
/// still has at least ten samples beyond it, with the value at it.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t samples = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }
Tail TailOf(const std::vector<double>& v);
/// Splits time-ordered samples into `windows` equal consecutive windows (the
/// remainder is dropped), takes each window's TailOf and returns the one with
/// the median value: a transient stall confined to a few windows does not
/// move it. `samples` is the window size.
Tail WindowedTail(const std::vector<double>& in_time_order, std::size_t windows);
double Mean(const std::vector<double>& v);
/// Throughput robust to a transient stall: splits [begin, end) into `windows`
/// equal spans, counts the completions in each, and returns the median
/// per-span rate in 1/s.
double WindowedRate(std::vector<Clock::time_point> completions,
                    Clock::time_point begin, Clock::time_point end,
                    std::size_t windows);

/// One named measurement. `note` carries the tail percentile and sample
/// count, or why a layer reads 0 on this workload.
struct Metric {
  double value = 0;
  std::string unit;
  std::string note;
};

/// What a workload reports: the bounded end-to-end metrics, the per-layer
/// ledger (traced runs), and extra named end-to-end figures that only this
/// workload has (printed and stored in the result file, not gated).
struct Ledger {
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  std::map<std::string, Metric> extra;
};

/// Attempted / failed operations plus the correctness verdict. Thread-safe.
class Outcome {
 public:
  void Attempt(std::size_t n = 1);
  /// Counts one failed operation and records why (first few kept).
  void Fail(const std::string& why);
  /// A failed correctness check: the run is incorrect and one op failed.
  void CheckFailed(const std::string& why);
  std::size_t attempted() const;
  std::size_t failed() const;
  bool correct() const;
  std::vector<std::string> errors() const;

 private:
  mutable std::mutex mu_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool checks_ok_ = true;
  std::vector<std::string> errors_;
};

/// Spans recorded by a traced run: one per public engine call the benchmark
/// makes, with the op it belongs to and the span that caused it, plus the
/// engine's own span trees (QueryProfile JSON) attached per op. Kept in
/// memory, written out once at exit. Thread-safe; a null TraceLog* is the
/// untraced run and every helper below is a no-op on it.
class TraceLog {
 public:
  TraceLog();
  /// Opens a span; returns its id (0 = none).
  std::uint64_t Begin(const std::string& name, std::uint64_t op,
                      std::uint64_t parent = 0);
  void End(std::uint64_t id);
  void AttachProfile(std::uint64_t op, const std::string& name,
                     std::string profile_json);
  bool Write(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    std::uint64_t op = 0;
    std::uint64_t parent = 0;
    double start_us = 0;
    double end_us = 0;
  };
  struct ProfileRecord {
    std::uint64_t op = 0;
    std::string name;
    std::string json;
  };
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::vector<ProfileRecord> profiles_;
};

/// RAII span on an optional TraceLog.
class ScopedSpan {
 public:
  ScopedSpan(TraceLog* log, const std::string& name, std::uint64_t op,
             std::uint64_t parent = 0)
      : log_(log), id_(log == nullptr ? 0 : log->Begin(name, op, parent)) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const { return id_; }

 private:
  TraceLog* log_;
  std::uint64_t id_;
};

/// Open-loop schedule: sleeps until `due` (returns immediately when late).
void SleepUntil(Clock::time_point due);

/// Returns freed heap memory to the OS (glibc malloc_trim), so that a later
/// peak reflects what is live rather than what earlier set-ups left cached.
void ReleaseFreeMemory();

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Traced-vs-untraced overhead: the mean over op kinds of
/// median(traced) / median(untraced) - 1, for kinds sampled both ways.
double TraceOverhead(const std::map<std::string, std::vector<double>>& untraced,
                     const std::map<std::string, std::vector<double>>& traced);

std::string JsonEscape(const std::string& s);
std::string JsonNumber(double v);

// ---- Workloads (adhoc.cc, stream.cc) -----------------------------------------

void RunAdhocQuery(const RunConfig& cfg, Ledger* ledger, Outcome* outcome,
                   TraceLog* trace);
void RunStreamMaintain(const RunConfig& cfg, Ledger* ledger, Outcome* outcome,
                       TraceLog* trace);

}  // namespace e2e

#endif  // TPSET_E2EBENCH_LEDGER_H_
