// operator_queries: the journal_ingest site, loaded once, then a closed loop
// of operator reads with a small trickle of writes between read batches.
//
// One round: a batch of wire queries (by IP, MAC, name, subnet range, and
// modified-since, plus GetStats) through one long-lived operator client; a
// problems report rendered by a fresh, cold client the way
// `fremont_report problems` does; every subscriber reading every published
// view; then a trickle of writes and one Refresh. Each query result is
// checked against the site model, untimed. A change that speeds ingest at the
// cost of the read path shows here.

#include <memory>
#include <vector>

#include "src/serve/serve.h"
#include "src/serve/views.h"
#include "site.h"
#include "workloads.h"

namespace perfbench {

using namespace fremont;

namespace {

constexpr int kQueriesPerRound = 20000;
constexpr int kSubscribers = 4;
constexpr int kSetupUpdateWaves = 2;
constexpr SimTime kStart = SimTime::FromMicros(86400LL * 1000000);
// Trickle per round, as shares of the live interfaces (~50 re-verified,
// ~5 renamed, ~2 added, ~2 deleted on the full-size site).
constexpr double kTrickleReverify = 0.002;
constexpr double kTrickleRename = 0.0002;
constexpr double kTrickleAdd = 0.0001;
constexpr double kTrickleRemove = 0.0001;

struct RoundTimes {
  double pass_s = 0;
  double query_s = 0;
  double report_s = 0;
  double fetch_s = 0;
  double render_s = 0;
  double refresh_s = 0;
  double server_s = 0;
  uint64_t requests = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
};

// `since_times`: the set-up waves' change times, so every round asks the same
// questions of a Journal that changes only by the trickle.
Selector PickSelector(SiteModel& model, const std::vector<SimTime>& since_times, bool* stats) {
  SplitMix& rng = model.rng();
  const int64_t dice = rng.Range(0, 99);
  *stats = false;
  if (dice < 35) {
    return Selector::ByIp(model.hosts()[model.RandomLiveHost()].ip);
  }
  if (dice < 55) {
    return Selector::ByMac(model.hosts()[model.RandomLiveHost()].mac);
  }
  if (dice < 75) {
    return Selector::ByName(model.hosts()[model.RandomLiveHost()].name);
  }
  if (dice < 90) {
    const auto& subnets = model.subnets();
    return Selector::InSubnet(
        subnets[static_cast<size_t>(rng.Range(0, static_cast<int64_t>(subnets.size()) - 1))]);
  }
  if (dice < 95) {
    // "What changed since the last discovery wave(s)?"
    return Selector::ModifiedSince(since_times[static_cast<size_t>(
        rng.Range(1, static_cast<int64_t>(since_times.size()) - 1))]);
  }
  *stats = true;
  return Selector::All();
}

}  // namespace

Result RunOperatorQueries(const Options& options, const SiteParams& params) {
  SiteModel model(options.seed, params);
  SimTime now = kStart;
  JournalServer server([&now] { return now; });
  JournalClient writer(&server);
  serve::ServeService service(&server, [&now] { return now; });
  JournalClient subscriber_client(&server);
  std::vector<std::unique_ptr<serve::ServeSubscriber>> subscribers;
  Checker check;
  for (int i = 0; i < kSubscribers; ++i) {
    subscribers.push_back(std::make_unique<serve::ServeSubscriber>(&service, &subscriber_client));
    check.Expect(subscribers.back()->Subscribe(serve::kAllViewsMask), "subscribe failed");
  }
  Result result;
  for (int wave = 0; wave <= kSetupUpdateWaves; ++wave) {
    now = kStart + Duration::Hours(wave);
    const WavePlan plan =
        wave == 0 ? model.InitialWave(now)
                  : model.UpdateWave(now, params.reverify, params.rename, params.add,
                                     params.remove);
    result.failed += WriteWave(writer, model, plan);
    service.Refresh();
  }
  model.LearnIds(FetchState(server).interfaces);
  const std::vector<SimTime> since_times = model.change_times();
  const double setup_s = NowS() - ProcessStartS();

  JournalTap tap;
  tap.server = &server;
  JournalClient op(tap.Transport());
  PassSamples plain;
  std::vector<RoundTimes> traced_rounds;
  // Per-query samples, kept only in the traced mode.
  std::vector<double> latencies;
  const double end = NowS() + options.seconds;
  for (int round = 0; round < MinRepetitions(options) || NowS() < end; ++round) {
    const bool traced = options.trace && round % 2 == 1;
    now = kStart + Duration::Hours(kSetupUpdateWaves) + Duration::Minutes(round + 1);
    RoundTimes t;
    tap = JournalTap{&server, traced};

    // Wire queries, each timed on its own and checked against the model.
    for (int q = 0; q < kQueriesPerRound; ++q) {
      bool stats = false;
      const Selector selector = PickSelector(model, since_times, &stats);
      if (stats) {
        const double start = NowS();
        const JournalStats got = op.GetStats();
        const double took = NowS() - start;
        t.query_s += took;
        if (options.trace) {
          latencies.push_back(took);
        }
        CheckStats(got, model, check);
        continue;
      }
      const double start = NowS();
      const std::vector<InterfaceRecord> got = op.GetInterfaces(selector);
      const double took = NowS() - start;
      t.query_s += took;
      if (options.trace) {
        latencies.push_back(took);
      }
      CheckQuery(got, model, selector, check);
    }
    result.attempted += kQueriesPerRound;

    // The problems report from a cold client.
    {
      const double start = NowS();
      JournalClient cold(&server);
      const std::vector<InterfaceRecord> interfaces = cold.GetInterfaces();
      const std::vector<GatewayRecord> gateways = cold.GetGateways();
      const double fetched = NowS();
      const serve::ProblemsRender report = serve::RenderProblems(interfaces, gateways, now);
      const double rendered = NowS();
      t.fetch_s = fetched - start;
      t.render_s = rendered - fetched;
      t.report_s = rendered - start;
      CheckReportFindings(report.findings, model, check);
      ++result.attempted;
    }

    // Subscribers read the published views.
    double views_s = 0;
    for (const auto& subscriber : subscribers) {
      for (int v = 0; v < serve::kViewCount; ++v) {
        const double start = NowS();
        const auto kind = static_cast<serve::ViewKind>(v);
        const auto snap = service.ReadView(kind);
        views_s += NowS() - start;
        CheckSubscriberView(*snap, kind, subscriber->cursor(), check);
        ++result.attempted;
      }
    }

    // The write trickle and the Refresh that publishes it.
    const WavePlan plan = model.UpdateWave(now, kTrickleReverify, kTrickleRename, kTrickleAdd,
                                           kTrickleRemove);
    const double start = NowS();
    result.failed += WriteWave(writer, model, plan);
    const double written = NowS();
    service.Refresh();
    t.refresh_s = NowS() - written;
    result.attempted += plan.records();

    t.pass_s = t.query_s + t.report_s + views_s + (written - start) + t.refresh_s;
    t.server_s = tap.server_s;
    t.requests = tap.requests;
    t.bytes_in = tap.bytes_in;
    t.bytes_out = tap.bytes_out;
    if (traced) {
      traced_rounds.push_back(t);
    } else {
      plain.Add(t.pass_s);
    }
  }
  tap.enabled = false;

  const JournalStats final_stats = writer.GetStats();
  result.correct = check.ok() && result.failed == 0;
  result.Set("setup_s", setup_s, "s");
  result.Set("interfaces", static_cast<double>(final_stats.interface_count), "count");
  result.Set("gateways", static_cast<double>(final_stats.gateway_count), "count");
  result.Set("subnets", static_cast<double>(final_stats.subnet_count), "count");
  auto median_of = [](const std::vector<RoundTimes>& rounds, auto field) {
    std::vector<double> values;
    for (const RoundTimes& r : rounds) {
      values.push_back(static_cast<double>(field(r)));
    }
    return Median(values);
  };
  plain.Report(options.trace, result);
  if (options.trace) {
    const auto& tr = traced_rounds;
    result.Set("journal.requests", median_of(tr, [](const RoundTimes& r) { return r.requests; }),
               "count");
    result.Set("journal.server_s", median_of(tr, [](const RoundTimes& r) { return r.server_s; }),
               "s");
    result.Set("journal.client_s",
               median_of(tr, [](const RoundTimes& r) { return r.query_s - r.server_s; }), "s");
    result.Set("journal.bytes_in", median_of(tr, [](const RoundTimes& r) { return r.bytes_in; }),
               "B");
    result.Set("journal.bytes_out",
               median_of(tr, [](const RoundTimes& r) { return r.bytes_out; }), "B");
    result.Set("journal.fetch_s", median_of(tr, [](const RoundTimes& r) { return r.fetch_s; }),
               "s");
    result.Set("journal.query_p50_us", 1e6 * Percentile(latencies, 50), "us");
    result.Set("journal.query_p99_us", 1e6 * Percentile(latencies, 99), "us");
    result.Set("serve.refresh_s", median_of(tr, [](const RoundTimes& r) { return r.refresh_s; }),
               "s");
    result.Set("serve.refresh_ms",
               1e3 * median_of(tr, [](const RoundTimes& r) { return r.refresh_s; }), "ms");
    result.Set("analysis.render_problems_s",
               median_of(tr, [](const RoundTimes& r) { return r.render_s; }), "s");
    result.Set("analysis.report_ms",
               1e3 * median_of(tr, [](const RoundTimes& r) { return r.report_s; }), "ms");
    const double traced_pass = median_of(tr, [](const RoundTimes& r) { return r.pass_s; });
    result.Set("trace.overhead_pct", 100.0 * (traced_pass / Median(plain.wall_s) - 1), "%");
  }
  return result;
}

}  // namespace perfbench
