// tpset_e2e — the end-to-end benchmark of tpset.
//
//   tpset_e2e --workload <adhoc_query|stream_maintain>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//             [--out-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//
// Generates the workload's inputs from the seed, sets up the engine several
// times (setup_s is the median), runs the measured phase for --seconds, checks
// every output, and prints a table of every metric by name and unit followed
// by one JSON result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 they are
// the per-layer ledger, and the span log is written to the output directory.
// Every run also writes a result file stamped with its provenance.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ledger.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using e2e::Ledger;
using e2e::Metric;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (the smoke test checks both directions).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"peak_rss_mb", "MB"}, {"p50_ms", "ms"},
    {"tail_ms", "ms"},         {"ops_per_s", "1/s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"query.parse_us", "us"},
    {"query.executor_self_ms", "ms"},
    {"storage.leaf_read_ms", "ms"},
    {"lawa.sort_ms", "ms"},
    {"lawa.advance_ms", "ms"},
    {"lawa.windows_per_output", "ratio"},
    {"lineage.intern_ns_per_node", "ns"},
    {"lineage.valuation_ms", "ms"},
    {"lineage.nodes_per_query", "count"},
    {"lineage.nodes_per_output_tuple", "ratio"},
    {"lineage.arena_nodes_end", "count"},
    {"parallel.split_ms", "ms"},
    {"parallel.apply_ms", "ms"},
    {"parallel.morsels_stolen_frac", "frac"},
    {"incremental.epoch_apply_ms", "ms"},
    {"incremental.append_self_ms", "ms"},
    {"incremental.delta_rows_per_input_row", "ratio"},
    {"incremental.resweep_frac", "frac"},
    {"storage.retain_ms", "ms"},
    {"storage.compaction_debt_max", "count"},
    {"gen.late_ms", "ms"},
    {"trace.overhead_frac", "frac"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: tpset_e2e --workload <adhoc_query|stream_maintain> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--smoke] [--out-dir <dir>] [--git-sha <sha>] "
               "[--src-digest <hex>]\n");
}

bool ParseArgs(int argc, char** argv, e2e::RunConfig* cfg) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--smoke") {
      cfg->smoke = true;
      continue;
    }
    if ((v = next()) == nullptr) return false;
    if (arg == "--workload") {
      cfg->workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      cfg->seconds = std::atof(v);
    } else if (arg == "--trace") {
      cfg->trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--out-dir") {
      cfg->out_dir = v;
    } else if (arg == "--git-sha") {
      cfg->git_sha = v;
    } else if (arg == "--src-digest") {
      cfg->src_digest = v;
    } else {
      return false;
    }
  }
  return have_workload && cfg->seconds > 0;
}

// Every canonical metric of `specs` from `have`; a layer a workload does not
// exercise reads 0, noted as such.
std::vector<std::pair<std::string, Metric>> Complete(
    const std::map<std::string, Metric>& have, const MetricSpec* begin,
    const MetricSpec* end) {
  std::vector<std::pair<std::string, Metric>> out;
  for (const MetricSpec* s = begin; s != end; ++s) {
    auto it = have.find(s->name);
    Metric m = it != have.end() ? it->second
                                : Metric{0, s->unit, "layer idle in this workload"};
    m.unit = s->unit;
    out.emplace_back(s->name, m);
  }
  return out;
}

std::string MetricsJson(const std::vector<std::pair<std::string, Metric>>& ms,
                        bool with_notes) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const auto& [name, m] = ms[i];
    if (i > 0) out += ", ";
    out += "\"";
    out += e2e::JsonEscape(name);
    out += "\": {\"value\": ";
    out += e2e::JsonNumber(m.value);
    out += ", \"unit\": \"";
    out += e2e::JsonEscape(m.unit);
    out += "\"";
    if (with_notes && !m.note.empty()) {
      out += ", \"note\": \"";
      out += e2e::JsonEscape(m.note);
      out += "\"";
    }
    out += "}";
  }
  return out + "}";
}

void PrintTable(const char* title,
                const std::vector<std::pair<std::string, Metric>>& ms) {
  std::printf("# %s\n", title);
  for (const auto& [name, m] : ms) {
    std::printf("#   %-40s %16.6g %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  e2e::RunConfig cfg;
  if (!ParseArgs(argc, argv, &cfg)) {
    Usage();
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  cfg.threads = std::min<std::size_t>(4, nproc);
#ifdef TPSET_OBS_DISABLED
  const char* obs_mode = "off";
#else
  const char* obs_mode = "on";
#endif

  Ledger ledger;
  e2e::Outcome outcome;
  e2e::TraceLog trace_log;
  e2e::TraceLog* trace = cfg.trace ? &trace_log : nullptr;
  try {
    if (cfg.workload == "adhoc_query") {
      e2e::RunAdhocQuery(cfg, &ledger, &outcome, trace);
    } else if (cfg.workload == "stream_maintain") {
      e2e::RunStreamMaintain(cfg, &ledger, &outcome, trace);
    } else {
      std::fprintf(stderr, "tpset_e2e: unknown workload '%s'\n",
                   cfg.workload.c_str());
      Usage();
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tpset_e2e: %s\n", e.what());
    return 1;
  }

  const auto e2e_metrics =
      Complete(ledger.e2e, std::begin(kEndToEnd), std::end(kEndToEnd));
  const auto layer_metrics =
      Complete(ledger.layer, std::begin(kPerLayer), std::end(kPerLayer));
  std::vector<std::pair<std::string, Metric>> extra(ledger.extra.begin(),
                                                    ledger.extra.end());
  const double failed_frac =
      outcome.attempted() == 0
          ? 1.0
          : static_cast<double>(outcome.failed()) /
                static_cast<double>(outcome.attempted());
  extra.emplace_back("ops_failed_frac", Metric{failed_frac, "frac", ""});

  std::printf("# tpset_e2e workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "threads=%zu nproc=%u build=%s obs=%s git=%s src=%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0, cfg.threads,
              nproc, E2E_BUILD_TYPE, obs_mode, cfg.git_sha.c_str(),
              cfg.src_digest.c_str());
  PrintTable("end-to-end (bounded in BENCHMARK.json)", e2e_metrics);
  PrintTable("end-to-end (named for this workload)", extra);
  if (cfg.trace) PrintTable("per-layer ledger", layer_metrics);
  for (const std::string& err : outcome.errors()) {
    std::printf("# error: %s\n", err.c_str());
  }

  // Result file with provenance; the span log beside it on traced runs.
  std::error_code ec;
  std::filesystem::create_directories(cfg.out_dir, ec);
  const std::string stem = cfg.out_dir + "/" + cfg.workload + "_seed" +
                           std::to_string(cfg.seed) + "_trace" +
                           (cfg.trace ? "1" : "0");
  std::string spans_path;
  if (trace != nullptr) {
    spans_path = stem + "_spans.json";
    if (!trace->Write(spans_path)) {
      std::fprintf(stderr, "tpset_e2e: cannot write %s\n", spans_path.c_str());
      spans_path.clear();
    }
  }
  if (std::FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
    std::fprintf(
        f,
        "{\"provenance\": {\"git_sha\": \"%s\", \"src_digest\": \"%s\", "
        "\"nproc\": %u, \"threads\": %zu, \"build_type\": \"%s\", \"obs\": "
        "\"%s\", \"seed\": %llu, \"workload\": \"%s\", \"seconds\": %s, "
        "\"trace\": %d, \"smoke\": %d, \"spans_file\": \"%s\"},\n"
        " \"correct\": %s, \"attempted\": %zu, \"failed\": %zu,\n"
        " \"end_to_end\": %s,\n \"named\": %s,\n \"per_layer\": %s}\n",
        e2e::JsonEscape(cfg.git_sha).c_str(),
        e2e::JsonEscape(cfg.src_digest).c_str(), nproc, cfg.threads,
        E2E_BUILD_TYPE, obs_mode, static_cast<unsigned long long>(cfg.seed),
        e2e::JsonEscape(cfg.workload).c_str(), e2e::JsonNumber(cfg.seconds).c_str(),
        cfg.trace ? 1 : 0, cfg.smoke ? 1 : 0, e2e::JsonEscape(spans_path).c_str(),
        outcome.correct() ? "true" : "false", outcome.attempted(),
        outcome.failed(), MetricsJson(e2e_metrics, true).c_str(),
        MetricsJson(extra, true).c_str(),
        cfg.trace ? MetricsJson(layer_metrics, true).c_str() : "{}");
    std::fclose(f);
  } else {
    std::fprintf(stderr, "tpset_e2e: cannot write %s.json\n", stem.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              outcome.correct() ? "true" : "false", outcome.attempted(),
              outcome.failed(),
              MetricsJson(cfg.trace ? layer_metrics : e2e_metrics, false).c_str());
  std::fflush(stdout);
  return 0;
}
