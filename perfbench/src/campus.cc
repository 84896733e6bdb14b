// campus_discovery: the paper's Table 6 campus under the default concurrent
// Discovery Manager with auto-correlation, for a fixed simulated span.
//
// Wall time here is the simulator substrate and the explorers; the Journal
// sees a few hundred requests. Each repetition builds a fresh Simulator,
// Journal server, and manager, restores no schedule, and must leave a
// byte-identical Journal for the same seed.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "src/explorer/dns_explorer.h"
#include "src/journal/server.h"
#include "src/manager/discovery_manager.h"
#include "src/manager/module_registry.h"
#include "src/sim/simulator.h"
#include "src/telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

using namespace fremont;

namespace {

constexpr Duration kRipConvergence = Duration::Minutes(5);
// Every run visits the same panel of campuses, Simulator seeds
// kFirstCampusSeed onwards; --seed picks the campus it starts from. The
// discovery counts are a fixed function of the campus (70-93 interfaces on
// most, and under the concurrent scheduler about one in twenty collapses to
// 0-4 gateways), so they are reported as the mean over the whole panel, which
// reads the same on every run of the same code and moves only when discovery
// does. The panel holds one collapsing campus, 2024, at about the rate seen
// over 80 seeds. Odd, so that plain and traced repetitions both visit every
// campus.
constexpr int kCampusSeeds = 21;
constexpr uint64_t kFirstCampusSeed = 2014;

void RegisterModules(DiscoveryManager& manager, JournalClient* journal, const Campus& campus,
                     const CampusParams& params) {
  for (const char* name : {"arpwatch", "etherhostprobe", "seqping", "broadcastping",
                           "subnetmasks", "ripwatch", "traceroute", "ripprobe",
                           "serviceprobe"}) {
    manager.RegisterModule(MakeStandardRegistration(name, campus.vantage, journal));
  }
  // As in examples/campus_discovery.cpp: DNS needs the zone and its server.
  const ModuleSpec* dns_spec = FindModuleSpec("dns");
  Host* vantage = campus.vantage;
  const Ipv4Address network = params.class_b;
  const Ipv4Address server = campus.dns_host->primary_interface()->ip;
  manager.RegisterModule({"dns", dns_spec->min_interval, dns_spec->max_interval,
                          [vantage, journal, network, server]() {
                            DnsExplorerParams dns_params;
                            dns_params.network = network;
                            dns_params.server = server;
                            return std::make_unique<DnsExplorer>(vantage, journal, dns_params);
                          }});
}

// DiscoveryManager::RunUntil, split at its layer boundaries so each part can
// be timed: the idle network between ticks, the tick's event-queue drive, and
// the manager's own begin/end (launch; retire + incremental correlation).
// Journal server time is taken out of the parts it happened in.
std::vector<ExplorerReport> RunTraced(DiscoveryManager& manager, EventQueue& events,
                                      SimTime deadline, CampusRun& run) {
  std::vector<ExplorerReport> reports;
  JournalTap& tap = run.tap;
  auto timed = [&tap](double& bucket, auto&& body) {
    const double server_before = tap.server_s;
    const double start = NowS();
    body();
    bucket += NowS() - start - (tap.server_s - server_before);
  };
  while (true) {
    const std::optional<SimTime> due = manager.NextDue();
    if (!due.has_value()) {
      break;
    }
    if (*due > deadline) {
      timed(run.idle_s, [&] { events.RunUntil(deadline); });
      break;
    }
    if (*due > events.Now()) {
      timed(run.idle_s, [&] { events.RunUntil(*due); });
    }
    size_t launched = 0;
    timed(run.begin_tick_s, [&] { launched = manager.BeginTick(&reports); });
    if (launched > 0) {
      timed(run.tick_s, [&] { events.RunWhile([&manager] { return manager.in_flight() > 0; }); });
    }
    timed(run.end_tick_s, [&] { manager.EndTick(); });
    ++run.ticks;
    if (events.Now() >= deadline) {
      break;
    }
  }
  return reports;
}

}  // namespace

CampusRun RunCampusOnce(uint64_t sim_seed, const CampusParams& params, Duration span,
                        bool traced, double* setup_s) {
  telemetry::MetricsRegistry::Global().Reset();
  CampusRun run;
  Simulator sim(sim_seed);
  Campus campus = BuildCampus(sim, params);
  sim.RunFor(kRipConvergence);

  JournalServer server([&sim]() { return sim.Now(); });
  run.tap.server = &server;
  run.tap.enabled = traced;
  JournalClient journal(run.tap.Transport());
  journal.EnableQueryCache();
  DiscoveryManager manager(&sim.events(), &journal);
  manager.EnableAutoCorrelation(24);
  RegisterModules(manager, &journal, campus, params);
  if (setup_s != nullptr) {
    *setup_s = NowS() - ProcessStartS();
  }

  EventQueue& events = sim.events();
  const uint64_t events_before = events.executed_count();
  const SimTime deadline = events.Now() + span;
  std::vector<ExplorerReport> reports;
  const double start = NowS();
  if (traced) {
    reports = RunTraced(manager, events, deadline, run);
  } else {
    reports = manager.RunUntil(deadline);
  }
  run.discovery_s = NowS() - start;
  run.events = events.executed_count() - events_before;
  for (const ExplorerReport& report : reports) {
    run.packets_sent += report.packets_sent;
    ++run.module_runs;
    if (report.new_info == 0) {
      ++run.fruitless_runs;
    }
  }

  run.tap.enabled = false;
  run.interfaces = server.journal().AllInterfaces();
  run.gateways = server.journal().AllGateways();
  run.subnets = server.journal().AllSubnets();
  ByteWriter writer;
  server.journal().EncodeAll(writer);
  run.encoded = writer.TakeBuffer();
  run.truth = campus.truth;
  run.truth_gateways = campus.gateways.size();
  run.backbone = campus.backbone->subnet();
  run.tap.server = nullptr;
  return run;
}

void CheckCampusRun(const CampusRun& run, const CampusParams& params, Checker& check) {
  const CampusTruth& truth = run.truth;
  const Subnet class_b(params.class_b, SubnetMask::FromPrefixLength(16));
  std::unordered_map<uint32_t, MacAddress> truth_mac;
  for (const InterfaceTruth& t : truth.interfaces) {
    truth_mac.emplace(t.ip.value(), t.mac);
  }
  std::set<RecordId> interface_ids;
  for (const InterfaceRecord& rec : run.interfaces) {
    interface_ids.insert(rec.id);
    check.Expect(class_b.Contains(rec.ip),
                 "interface " + rec.ip.ToString() + " outside " + class_b.ToString());
    if (rec.mac.has_value()) {
      const auto it = truth_mac.find(rec.ip.value());
      check.Expect(it != truth_mac.end() && it->second == *rec.mac,
                   "interface " + rec.ip.ToString() + " MAC " + rec.mac->ToString() +
                       " differs from the campus truth");
    }
  }
  std::set<Subnet> assigned(truth.assigned_subnets.begin(), truth.assigned_subnets.end());
  std::set<Subnet> connected(truth.connected_subnets.begin(), truth.connected_subnets.end());
  assigned.insert(run.backbone);
  connected.insert(run.backbone);
  for (const SubnetRecord& rec : run.subnets) {
    check.Expect(assigned.contains(rec.subnet),
                 "subnet " + rec.subnet.ToString() + " was never assigned");
  }
  for (const GatewayRecord& gw : run.gateways) {
    for (const Subnet& subnet : gw.connected_subnets) {
      check.Expect(connected.contains(subnet), "gateway " + std::to_string(gw.id) +
                                                   " connects unconnected subnet " +
                                                   subnet.ToString());
    }
    for (RecordId id : gw.interface_ids) {
      check.Expect(interface_ids.contains(id), "gateway " + std::to_string(gw.id) +
                                                   " names missing interface " +
                                                   std::to_string(id));
    }
  }
  check.Expect(run.interfaces.size() <= truth.interfaces.size(),
               "more interfaces than the campus has");
  check.Expect(run.gateways.size() <= run.truth_gateways, "more gateways than the campus has");
  check.Expect(run.subnets.size() <= assigned.size(),
               "more subnets than the campus has");
}

void CheckSameJournal(const CampusRun& run, const CampusRun& reference, Checker& check) {
  check.Expect(run.encoded == reference.encoded,
               "a repetition with the same seed left a different Journal");
}

Result RunCampusDiscovery(const Options& options, const CampusParams& params, Duration span) {
  Result result;
  Checker check;
  double setup_s = 0;
  PassSamples plain;
  std::vector<double> traced_s;
  std::vector<CampusRun> traced_runs;
  std::vector<CampusRun> references;  // The first repetition of each campus.
  const double end = NowS() + options.seconds;
  // In traced mode repetitions alternate plain and traced, so the tracing
  // overhead is measured under the same conditions as the layer split.
  // The counts need every campus of the panel, however slow the machine.
  const int min_reps = std::max(MinRepetitions(options), kCampusSeeds);
  for (int rep = 0; rep < min_reps || NowS() < end; ++rep) {
    const bool traced = options.trace && rep % 2 == 1;
    const size_t slot = static_cast<size_t>(rep % kCampusSeeds);
    const uint64_t sim_seed = kFirstCampusSeed + (options.seed + slot) % kCampusSeeds;
    CampusRun run = RunCampusOnce(sim_seed, params, span, traced,
                                  rep == 0 ? &setup_s : nullptr);
    CheckCampusRun(run, params, check);
    if (references.size() == slot) {
      references.push_back(run);
    }
    CheckSameJournal(run, references[slot], check);
    result.attempted += run.module_runs;
    if (traced) {
      traced_s.push_back(run.discovery_s);
      traced_runs.push_back(std::move(run));
    } else {
      plain.Add(run.discovery_s);
    }
  }
  double interfaces = 0;
  double gateways = 0;
  double subnets = 0;
  for (const CampusRun& run : references) {
    interfaces += static_cast<double>(run.interfaces.size());
    gateways += static_cast<double>(run.gateways.size());
    subnets += static_cast<double>(run.subnets.size());
  }
  const double seeds = static_cast<double>(references.size());
  result.Set("interfaces", interfaces / seeds, "count");
  result.Set("gateways", gateways / seeds, "count");
  result.Set("subnets", subnets / seeds, "count");
  result.correct = check.ok();
  result.Set("setup_s", setup_s, "s");
  plain.Report(options.trace, result);
  if (options.trace) {
    auto median_of = [&traced_runs](auto field) {
      std::vector<double> values;
      for (const CampusRun& run : traced_runs) {
        values.push_back(static_cast<double>(field(run)));
      }
      return Median(values);
    };
    const double idle = median_of([](const CampusRun& r) { return r.idle_s; });
    const double tick = median_of([](const CampusRun& r) { return r.tick_s; });
    const double events = median_of([](const CampusRun& r) { return r.events; });
    result.Set("sim.idle_s", idle, "s");
    result.Set("sim.tick_s", tick, "s");
    result.Set("sim.events", events, "count");
    result.Set("sim.ns_per_event", events > 0 ? (idle + tick) / events * 1e9 : 0, "ns");
    result.Set("explorer.packets_sent",
               median_of([](const CampusRun& r) { return r.packets_sent; }), "count");
    result.Set("explorer.module_runs",
               median_of([](const CampusRun& r) { return r.module_runs; }), "count");
    result.Set("explorer.fruitless_runs",
               median_of([](const CampusRun& r) { return r.fruitless_runs; }), "count");
    result.Set("manager.ticks", median_of([](const CampusRun& r) { return r.ticks; }), "count");
    result.Set("manager.begin_tick_s",
               median_of([](const CampusRun& r) { return r.begin_tick_s; }), "s");
    result.Set("manager.end_tick_s", median_of([](const CampusRun& r) { return r.end_tick_s; }),
               "s");
    result.Set("journal.requests", median_of([](const CampusRun& r) { return r.tap.requests; }),
               "count");
    result.Set("journal.server_s", median_of([](const CampusRun& r) { return r.tap.server_s; }),
               "s");
    result.Set("journal.bytes_in", median_of([](const CampusRun& r) { return r.tap.bytes_in; }),
               "B");
    result.Set("journal.bytes_out",
               median_of([](const CampusRun& r) { return r.tap.bytes_out; }), "B");
    result.Set("trace.coverage_pct", median_of([](const CampusRun& r) {
                 const double covered = r.idle_s + r.tick_s + r.begin_tick_s + r.end_tick_s +
                                        r.tap.server_s;
                 return 100.0 * covered / r.discovery_s;
               }),
               "%");
    const double plain_s = Median(plain.wall_s);
    result.Set("trace.overhead_pct", 100.0 * (Median(traced_s) / plain_s - 1), "%");
  }
  return result;
}

}  // namespace perfbench
