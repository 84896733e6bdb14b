// fremont_perfbench: one end-to-end benchmark command for Fremont.
//
//   fremont_perfbench --workload <campus_discovery|journal_ingest|operator_queries>
//                     --seed <n> --seconds <s> --trace <0|1>
//   fremont_perfbench --self-test
//
// Prints, as its last stdout line, one JSON object with `correct`,
// `attempted`, `failed`, and `metrics`: every end-to-end metric with
// --trace 0, every per-layer metric with --trace 1. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Kept in step with BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},      {"peak_rss_mb", "MB"},  {"pass_rel", "x_ref"},
    {"interfaces", "count"}, {"gateways", "count"}, {"subnets", "count"},
};

constexpr MetricSpec kPerLayer[] = {
    {"wall.pass_s", "s"},
    {"wall.ref_s", "s"},
    {"sim.idle_s", "s"},
    {"sim.tick_s", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"explorer.packets_sent", "count"},
    {"explorer.module_runs", "count"},
    {"explorer.fruitless_runs", "count"},
    {"manager.ticks", "count"},
    {"manager.begin_tick_s", "s"},
    {"manager.end_tick_s", "s"},
    {"journal.requests", "count"},
    {"journal.server_s", "s"},
    {"journal.client_s", "s"},
    {"journal.bytes_in", "B"},
    {"journal.bytes_out", "B"},
    {"journal.fetch_s", "s"},
    {"journal.ingest_records_per_s", "records/s"},
    {"journal.query_p50_us", "us"},
    {"journal.query_p99_us", "us"},
    {"serve.refresh_s", "s"},
    {"serve.refresh_ms", "ms"},
    {"serve.views_rebuilt", "count"},
    {"serve.pushes", "count"},
    {"analysis.view_build_s", "s"},
    {"analysis.render_problems_s", "s"},
    {"analysis.report_ms", "ms"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: fremont_perfbench --workload <campus_discovery|journal_ingest|"
               "operator_queries> --seed <n> --seconds <s> --trace <0|1>\n"
               "       fremont_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      return perfbench::RunSelfTest();
    }
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) {
    return Usage();
  }

  Result raw;
  if (options.workload == "campus_discovery") {
    raw = perfbench::RunCampusDiscovery(options);
  } else if (options.workload == "journal_ingest") {
    raw = perfbench::RunJournalIngest(options);
  } else if (options.workload == "operator_queries") {
    raw = perfbench::RunOperatorQueries(options);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return Usage();
  }

  // Report exactly the declared set for the mode. An end-to-end metric a
  // workload failed to produce is a benchmark bug; a per-layer metric of a
  // layer the workload does not touch reads 0.
  Result out;
  out.correct = raw.correct;
  out.attempted = raw.attempted;
  out.failed = raw.failed;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      const auto it = raw.metrics.find(spec.name);
      out.Set(spec.name, it == raw.metrics.end() ? 0.0 : it->second.value, spec.unit);
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      const auto it = raw.metrics.find(spec.name);
      if (it == raw.metrics.end()) {
        std::fprintf(stderr, "workload produced no '%s'\n", spec.name);
        return 1;
      }
      out.Set(spec.name, it->second.value, spec.unit);
    }
  }
  std::printf("%s\n", perfbench::ResultJson(out).c_str());
  return 0;
}
