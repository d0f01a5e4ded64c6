// The QOCO benchmark program. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--revision <rev>] [--trace-out <file>]
//
// Prints the run context and notes as '#' lines, then, as the last line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. Exits with 1
// when any correctness gate failed. README.md defines every metric.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "perfbench/bench.h"
#include "perfbench/service_run.h"
#include "perfbench/stats.h"
#include "perfbench/workload.h"
#include "src/common/thread_pool.h"

namespace {

using perfbench::FormatNumber;
using perfbench::Metric;

std::string Quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string ContextJson(const perfbench::WorkloadSpec& spec,
                        const perfbench::RunOptions& options,
                        const std::string& revision) {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  const char* env_threads = std::getenv("QOCO_THREADS");
  std::string views;
  for (size_t v : spec.views) {
    if (!views.empty()) views += ',';
    views += std::to_string(v);
  }
  std::string json = "{";
  json += "\"host\": " + Quoted(host);
  json += ", \"nproc\": " +
          std::to_string(std::thread::hardware_concurrency());
  json += ", \"threads_resolved\": " +
          std::to_string(qoco::common::ThreadPool::ResolveNumThreads(0));
  json += ", \"qoco_threads_env\": " +
          (env_threads == nullptr ? std::string("null") : Quoted(env_threads));
  json += ", \"compiler\": " + Quoted(PERFBENCH_COMPILER);
  json += ", \"build_type\": " + Quoted(PERFBENCH_BUILD_TYPE);
  json += ", \"revision\": " + Quoted(revision);
  json += ", \"workload\": " + Quoted(spec.name);
  json += ", \"seed\": " + std::to_string(options.seed);
  json += ", \"seconds\": " + FormatNumber(options.seconds);
  json += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  json += ", \"setups\": " + std::to_string(options.setups);
  json += ", \"params\": {";
  json += "\"num_tournaments\": " + std::to_string(spec.soccer.num_tournaments);
  json += ", \"group_games_per_tournament\": " +
          std::to_string(spec.soccer.group_games_per_tournament);
  json += ", \"soccer_seed\": " + std::to_string(spec.soccer.seed);
  json += ", \"skew\": " + FormatNumber(spec.skew);
  json += ", \"cleanliness\": " + FormatNumber(spec.cleanliness);
  json += ", \"instances\": " + std::to_string(spec.instances);
  json += ", \"views\": [" + views + "]";
  json += ", \"panel_members\": " + std::to_string(spec.panel_members);
  json += ", \"error_rate\": " + FormatNumber(spec.error_rate);
  json += ", \"service\": " + std::string(spec.service ? "true" : "false");
  json += ", \"group_size\": " + std::to_string(spec.group_size);
  json += ", \"rate_per_s\": " + FormatNumber(spec.rate_per_s);
  json += ", \"service_workers\": " +
          std::to_string(perfbench::ServiceWorkers());
  json += "}}";
  return json;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--revision <rev>] "
               "[--trace-out <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string revision = "unknown";
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (arg == "--revision") {
      revision = value;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds) return Usage("--seed and --seconds needed");
  const std::optional<perfbench::WorkloadSpec> spec =
      perfbench::FindWorkload(workload);
  if (!spec.has_value()) return Usage(("unknown workload " + workload).c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: built as '%s', not Release; refusing to "
                 "measure\n", PERFBENCH_BUILD_TYPE);
    return 2;
  }

  std::printf("# context %s\n",
              ContextJson(*spec, options, revision).c_str());
  std::fflush(stdout);
  const perfbench::RunResult result = perfbench::RunWorkload(*spec, options);
  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!result.spans.empty()) {
    std::printf("# %-28s %6s %11s %11s\n", "span", "count", "total_ms",
                "self_ms");
    for (const perfbench::SpanSummary& s : result.spans) {
      std::printf("# %-28s %6zu %11.3f %11.3f\n", s.name.c_str(), s.count,
                  s.total_ms, s.self_ms);
    }
  }
  for (const Metric& m : result.metrics) {
    std::printf("# %-28s %16s %s\n", m.name.c_str(),
                FormatNumber(m.value).c_str(), m.unit.c_str());
  }

  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    if (i > 0) json += ", ";
    json += Quoted(m.name) + ": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": " + Quoted(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  // A failed correctness gate fails the run, after every metric is out.
  return result.correct ? 0 : 1;
}
