// journal_ingest: the synthetic site arriving in discovery waves.
//
// Each repetition starts a fresh Journal server and ServeService, loads the
// whole site, then applies update waves (re-verify, rename, add, delete; some
// renames through a writer that flushes late with older stamps). Every wave
// is followed by one Refresh, and the checks run between waves, untimed. The
// simulator does no work here: the batch writer and wire codec, Journal
// apply, the change feed, correlation, and the view rebuild do it all.

#include <memory>
#include <vector>

#include "src/serve/serve.h"
#include "src/serve/views.h"
#include "src/telemetry/metrics.h"
#include "site.h"
#include "workloads.h"

namespace perfbench {

using namespace fremont;

namespace {

constexpr int kUpdateWaves = 6;
constexpr int kSubscribers = 3;
constexpr SimTime kStart = SimTime::FromMicros(86400LL * 1000000);

struct IngestRun {
  double pass_s = 0;
  double flush_s = 0;
  double refresh_s = 0;
  std::vector<double> refresh_samples;
  double fetch_s = 0;
  double view_build_s = 0;
  uint64_t records = 0;
  uint64_t failed = 0;
  uint64_t views_rebuilt = 0;
  uint64_t pushes = 0;
  JournalTap tap;
  JournalState last;
};

// One fresh repetition over a private copy of the model.
IngestRun RunIngestOnce(SiteModel model, const SiteParams& params, int waves, bool traced,
                        Checker& check) {
  telemetry::MetricsRegistry::Global().Reset();
  IngestRun run;
  SimTime now = kStart;
  JournalServer server([&now] { return now; });
  run.tap.server = &server;
  run.tap.enabled = traced;
  JournalClient client(run.tap.Transport());
  serve::ServeService service(&server, [&now] { return now; });
  JournalClient subscriber_client(&server);
  std::vector<std::unique_ptr<serve::ServeSubscriber>> subscribers;
  for (int i = 0; i < kSubscribers; ++i) {
    subscribers.push_back(std::make_unique<serve::ServeSubscriber>(&service, &subscriber_client));
    check.Expect(subscribers.back()->Subscribe(serve::kAllViewsMask), "subscribe failed");
  }

  for (int wave = 0; wave <= waves; ++wave) {
    now = kStart + Duration::Hours(wave);
    const WavePlan plan =
        wave == 0 ? model.InitialWave(now)
                  : model.UpdateWave(now, params.reverify, params.rename, params.add,
                                     params.remove);
    const double start = NowS();
    run.failed += WriteWave(client, model, plan);
    const double flushed = NowS();
    const serve::ServeService::RefreshResult refresh = service.Refresh();
    const double refreshed = NowS();
    run.flush_s += flushed - start;
    run.refresh_s += refreshed - flushed;
    run.refresh_samples.push_back(refreshed - flushed);
    run.records += plan.records();
    run.views_rebuilt += refresh.views_rebuilt ? 1 : 0;
    run.pushes += static_cast<uint64_t>(refresh.pushes);

    const bool tap_was = run.tap.enabled;
    run.tap.enabled = false;
    const double fetch_start = NowS();
    JournalState state = FetchState(server);
    const double build_start = NowS();
    const std::shared_ptr<const serve::ViewSnapshot> warm = service.snapshot();
    const serve::ViewSnapshot cold = serve::BuildViewSnapshot(
        state.interfaces, state.gateways, state.subnets, warm->built_at, warm->generation);
    run.fetch_s += build_start - fetch_start;
    run.view_build_s += NowS() - build_start;
    run.tap.enabled = tap_was;
    model.LearnIds(state.interfaces);
    CheckCounts(state, model, check);
    CheckGateways(state, model, check);
    CheckProblems(state, model, now, warm->problem_findings, check);
    CheckWarmMatchesCold(*warm, cold, state.generation, check);
    for (const auto& subscriber : subscribers) {
      CheckSubscriberCursor(subscriber->cursor(), *warm, check);
    }
    run.last = std::move(state);
  }
  run.pass_s = run.flush_s + run.refresh_s;
  run.tap.server = nullptr;
  return run;
}

}  // namespace

Result RunJournalIngest(const Options& options, const SiteParams& params) {
  const SiteModel base(options.seed, params);
  const double setup_s = NowS() - ProcessStartS();

  Result result;
  Checker check;
  PassSamples plain;
  std::vector<double> traced_s;
  std::vector<IngestRun> traced_runs;
  std::vector<double> refresh_samples;
  const double end = NowS() + options.seconds;
  for (int rep = 0; rep < MinRepetitions(options) || NowS() < end; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    IngestRun run = RunIngestOnce(base, params, kUpdateWaves, traced, check);
    result.attempted += run.records;
    result.failed += run.failed;
    result.Set("interfaces", static_cast<double>(run.last.interfaces.size()), "count");
    result.Set("gateways", static_cast<double>(run.last.gateways.size()), "count");
    result.Set("subnets", static_cast<double>(run.last.subnets.size()), "count");
    if (traced) {
      traced_s.push_back(run.pass_s);
      refresh_samples.insert(refresh_samples.end(), run.refresh_samples.begin(),
                             run.refresh_samples.end());
      run.last = {};
      traced_runs.push_back(std::move(run));
    } else {
      plain.Add(run.pass_s);
    }
  }
  result.correct = check.ok() && result.failed == 0;
  result.Set("setup_s", setup_s, "s");
  plain.Report(options.trace, result);
  if (options.trace) {
    auto median_of = [&traced_runs](auto field) {
      std::vector<double> values;
      for (const IngestRun& run : traced_runs) {
        values.push_back(static_cast<double>(field(run)));
      }
      return Median(values);
    };
    result.Set("journal.requests", median_of([](const IngestRun& r) { return r.tap.requests; }),
               "count");
    result.Set("journal.server_s", median_of([](const IngestRun& r) { return r.tap.server_s; }),
               "s");
    result.Set("journal.client_s",
               median_of([](const IngestRun& r) { return r.flush_s - r.tap.server_s; }), "s");
    result.Set("journal.bytes_in", median_of([](const IngestRun& r) { return r.tap.bytes_in; }),
               "B");
    result.Set("journal.bytes_out",
               median_of([](const IngestRun& r) { return r.tap.bytes_out; }), "B");
    result.Set("journal.fetch_s", median_of([](const IngestRun& r) { return r.fetch_s; }), "s");
    result.Set("journal.ingest_records_per_s", median_of([](const IngestRun& r) {
                 return static_cast<double>(r.records) / r.flush_s;
               }),
               "records/s");
    result.Set("serve.refresh_s", median_of([](const IngestRun& r) { return r.refresh_s; }), "s");
    result.Set("serve.refresh_ms", 1e3 * Median(refresh_samples), "ms");
    result.Set("serve.views_rebuilt",
               median_of([](const IngestRun& r) { return r.views_rebuilt; }), "count");
    result.Set("serve.pushes", median_of([](const IngestRun& r) { return r.pushes; }), "count");
    result.Set("analysis.view_build_s",
               median_of([](const IngestRun& r) { return r.view_build_s; }), "s");
    const double plain_s = Median(plain.wall_s);
    result.Set("trace.overhead_pct", 100.0 * (Median(traced_s) / plain_s - 1), "%");
  }
  return result;
}

}  // namespace perfbench
