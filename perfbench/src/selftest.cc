// Self-test: every workload runs clean at a tiny size, and every check trips
// when fed a wrong model record, a dropped planted conflict, or a mismatched
// seed. A check that cannot fail proves nothing.

#include <cstdio>
#include <string>

#include "src/serve/serve.h"
#include "src/serve/views.h"
#include "site.h"
#include "workloads.h"

namespace perfbench {

using namespace fremont;

namespace {

class SelfTest {
 public:
  // `body` fills a Checker, which must stay clean.
  template <typename Body>
  void Passes(const std::string& name, Body body) {
    Checker check;
    body(check);
    Report(name, "passes", check.ok());
  }
  // `body` feeds a check bad input; the check whose description contains
  // `fragment` must be among those that trip.
  template <typename Body>
  void Trips(const std::string& name, const std::string& fragment, Body body) {
    Checker check(/*verbose=*/false);
    body(check);
    Report(name, "trips", check.Tripped(fragment));
  }
  int failures() const { return failures_; }

 private:
  void Report(const std::string& name, const char* expectation, bool good) {
    std::printf("%s %s %s\n", good ? "ok  " : "FAIL", name.c_str(), expectation);
    failures_ += good ? 0 : 1;
  }

  int failures_ = 0;
};

CampusParams TinyCampusParams() {
  CampusParams p;
  p.assigned_subnets = 8;
  p.connected_subnets = 7;
  p.min_hosts_per_subnet = 2;
  p.max_hosts_per_subnet = 4;
  p.faulty_gateway_subnets = 1;
  p.dns_registered_subnets = 5;
  p.dns_named_gateways = 2;
  return p;
}

// A traced run must have run a traced repetition: one layer metric the
// workload drives must be non-zero.
void ExpectClean(const Result& r, bool traced, const char* layer_metric, Checker& c) {
  c.Expect(r.correct && r.failed == 0 && r.attempted > 0, "the run failed its checks");
  if (traced) {
    const auto it = r.metrics.find(layer_metric);
    c.Expect(it != r.metrics.end() && it->second.value > 0,
             std::string("the traced run reports no ") + layer_metric);
  }
}

void WorkloadsRunClean(SelfTest& t) {
  const CampusParams campus = TinyCampusParams();
  const SiteParams site = TinySiteParams();
  for (const bool trace : {false, true}) {
    Options options;
    options.seed = 7;
    options.seconds = 0.01;
    options.trace = trace;
    const std::string mode = trace ? " (traced)" : "";
    t.Passes("campus_discovery tiny" + mode, [&](Checker& c) {
      ExpectClean(RunCampusDiscovery(options, campus, Duration::Minutes(30)), trace,
                  "sim.events", c);
    });
    t.Passes("journal_ingest tiny" + mode, [&](Checker& c) {
      ExpectClean(RunJournalIngest(options, site), trace, "journal.requests", c);
    });
    t.Passes("operator_queries tiny" + mode, [&](Checker& c) {
      ExpectClean(RunOperatorQueries(options, site), trace, "journal.requests", c);
    });
  }
}

void CampusChecksTrip(SelfTest& t) {
  const CampusParams params = TinyCampusParams();
  const Duration span = Duration::Minutes(30);
  const CampusRun run = RunCampusOnce(11, params, span, false);
  t.Passes("campus checks on a true run", [&](Checker& c) {
    CheckCampusRun(run, params, c);
    c.Expect(!run.interfaces.empty() && !run.gateways.empty(), "the tiny campus discovered nothing");
  });
  t.Passes("campus identity, same seed", [&](Checker& c) {
    CheckSameJournal(RunCampusOnce(11, params, span, true), run, c);
  });
  t.Trips("campus identity, mismatched seed", "different Journal", [&](Checker& c) {
    CheckSameJournal(RunCampusOnce(12, params, span, false), run, c);
  });
  t.Trips("campus class B, wrong network", "outside", [&](Checker& c) {
    CampusParams other = params;
    other.class_b = Ipv4Address(128, 139, 0, 0);
    CheckCampusRun(run, other, c);
  });
  t.Trips("campus MAC, wrong truth record", "differs from the campus truth", [&](Checker& c) {
    CampusRun bad = run;
    for (const InterfaceRecord& rec : bad.interfaces) {
      if (!rec.mac.has_value()) {
        continue;
      }
      for (InterfaceTruth& truth : bad.truth.interfaces) {
        if (truth.ip == rec.ip) {
          truth.mac = MacAddress(0x02, 0, 0, 0, 0, 0x99);
        }
      }
      break;
    }
    CheckCampusRun(bad, params, c);
  });
  t.Trips("campus subnet, dropped from the assignment", "was never assigned", [&](Checker& c) {
    CampusRun bad = run;
    for (const SubnetRecord& rec : bad.subnets) {
      if (rec.subnet != bad.backbone) {
        std::erase(bad.truth.assigned_subnets, rec.subnet);
        break;
      }
    }
    CheckCampusRun(bad, params, c);
  });
  t.Trips("campus gateway subnet, not connected", "connects unconnected subnet", [&](Checker& c) {
    CampusRun bad = run;
    for (const GatewayRecord& gw : bad.gateways) {
      for (const Subnet& subnet : gw.connected_subnets) {
        if (subnet != bad.backbone) {
          std::erase(bad.truth.connected_subnets, subnet);
        }
      }
    }
    CheckCampusRun(bad, params, c);
  });
  t.Trips("campus gateway, dangling interface id", "names missing interface", [&](Checker& c) {
    CampusRun bad = run;
    if (bad.gateways.empty() || bad.gateways.front().interface_ids.empty()) {
      return;  // Nothing to break: the case fails.
    }
    const RecordId id = bad.gateways.front().interface_ids.front();
    std::erase_if(bad.interfaces, [id](const InterfaceRecord& rec) { return rec.id == id; });
    CheckCampusRun(bad, params, c);
  });
  t.Trips("campus gateway count, above the truth", "more gateways than the campus has",
          [&](Checker& c) {
            CampusRun bad = run;
            bad.truth_gateways = bad.gateways.size() - 1;
            CheckCampusRun(bad, params, c);
          });
  // A Journal that reports a record twice: every record is true, only the
  // count exceeds the campus.
  t.Trips("campus interface count, above the truth", "more interfaces than the campus has",
          [&](Checker& c) {
            CampusRun bad = run;
            while (bad.interfaces.size() <= bad.truth.interfaces.size()) {
              bad.interfaces.push_back(bad.interfaces.front());
            }
            CheckCampusRun(bad, params, c);
          });
  t.Trips("campus subnet count, above the truth", "more subnets than the campus has",
          [&](Checker& c) {
            CampusRun bad = run;
            while (bad.subnets.size() <= bad.truth.assigned_subnets.size() + 1) {
              bad.subnets.push_back(bad.subnets.front());
            }
            CheckCampusRun(bad, params, c);
          });
}

// A tiny site loaded and updated once, with its Journal state, the warm
// published views before and after the update, and one push subscriber.
struct TinySite {
  SiteModel model;
  SimTime now = SimTime::FromMicros(3600LL * 1000000);
  JournalServer server{[this] { return now; }};
  serve::ServeService service{&server, [this] { return now; }};
  JournalClient subscriber_client{&server};
  serve::ServeSubscriber subscriber{&service, &subscriber_client};
  JournalState state;
  std::shared_ptr<const serve::ViewSnapshot> loaded;  // Before the update.
  std::shared_ptr<const serve::ViewSnapshot> warm;

  explicit TinySite(uint64_t seed) : model(seed, TinySiteParams()) {
    subscriber.Subscribe(serve::kAllViewsMask);
    JournalClient client(&server);
    WriteWave(client, model, model.InitialWave(now));
    service.Refresh();
    loaded = service.snapshot();
    model.LearnIds(FetchState(server).interfaces);
    now = now + Duration::Hours(1);
    const SiteParams p = TinySiteParams();
    WriteWave(client, model, model.UpdateWave(now, p.reverify, p.rename, p.add, p.remove));
    service.Refresh();
    state = FetchState(server);
    warm = service.snapshot();
  }
};

void SiteChecksTrip(SelfTest& t) {
  TinySite site(5);
  const SiteModel& model = site.model;
  const JournalState& state = site.state;
  const serve::ViewSnapshot cold = serve::BuildViewSnapshot(
      state.interfaces, state.gateways, state.subnets, site.warm->built_at, site.warm->generation);

  t.Passes("site checks on a true Journal", [&](Checker& c) {
    CheckCounts(state, model, c);
    CheckGateways(state, model, c);
    CheckProblems(state, model, site.now, site.warm->problem_findings, c);
    CheckWarmMatchesCold(*site.warm, cold, state.generation, c);
    CheckReportFindings(site.warm->problem_findings, model, c);
    CheckSubscriberCursor(site.subscriber.cursor(), *site.warm, c);
    JournalClient client(&site.server);
    CheckStats(client.GetStats(), model, c);
    for (int v = 0; v < serve::kViewCount; ++v) {
      const auto kind = static_cast<serve::ViewKind>(v);
      CheckSubscriberView(*site.service.ReadView(kind), kind, site.subscriber.cursor(), c);
    }
  });
  t.Trips("site interfaces, wrong model record", "Journal interfaces differ from the site model",
          [&](Checker& c) {
            SiteModel bad = model;
            bad.mutable_hosts().front().name = "not-in-the-journal.site.example";
            CheckCounts(state, bad, c);
          });
  t.Trips("site interface count, Journal record missing", " interfaces, the site ",
          [&](Checker& c) {
            JournalState bad = state;
            bad.interfaces.pop_back();
            CheckCounts(bad, model, c);
          });
  t.Trips("site subnet count, Journal record missing", " subnets, the site ", [&](Checker& c) {
    JournalState bad = state;
    bad.subnets.pop_back();
    CheckCounts(bad, model, c);
  });
  // The model forgets one planted multi-homed MAC: the Journal's gateway
  // for it is then unplanted.
  const SiteModel no_planted_mac = [&] {
    SiteModel bad = model;
    MacAddress planted;
    for (const SiteHost& host : bad.hosts()) {
      if (host.kind == HostKind::kMultihomed) {
        planted = host.mac;
        break;
      }
    }
    for (SiteHost& host : bad.mutable_hosts()) {
      if (host.mac == planted) {
        host.kind = HostKind::kPlain;
      }
    }
    return bad;
  }();
  t.Trips("site gateway count, planted MAC dropped", " gateways, the site plants ",
          [&](Checker& c) { CheckCounts(state, no_planted_mac, c); });
  t.Trips("site gateways, planted MAC dropped", "inferred gateways differ", [&](Checker& c) {
    CheckGateways(state, no_planted_mac, c);
  });
  t.Trips("site problems, planted duplicate dropped", "duplicate IPs found differ",
          [&](Checker& c) {
            SiteModel bad = model;
            bad.ForgetDuplicate();
            CheckProblems(state, bad, site.now, site.warm->problem_findings, c);
          });
  t.Trips("site problems, planted mask conflict dropped", "mask dissenters found differ",
          [&](Checker& c) {
            SiteModel bad = model;
            for (SiteHost& host : bad.mutable_hosts()) {
              if (host.alive && host.kind == HostKind::kWrongMask) {
                host.kind = HostKind::kPlain;
                break;
              }
            }
            CheckProblems(state, bad, site.now, site.warm->problem_findings, c);
          });
  t.Trips("site report, planted duplicate dropped", "problems report finds", [&](Checker& c) {
    SiteModel bad = model;
    bad.ForgetDuplicate();
    CheckReportFindings(site.warm->problem_findings, bad, c);
  });
  t.Trips("site warm vs cold, mismatched seed", "warm published views differ",
          [&](Checker& c) {
            TinySite other(6);
            const serve::ViewSnapshot other_cold = serve::BuildViewSnapshot(
                other.state.interfaces, other.state.gateways, other.state.subnets,
                site.warm->built_at, site.warm->generation);
            CheckWarmMatchesCold(*site.warm, other_cold, state.generation, c);
          });
  t.Trips("site warm vs cold, stale generation", "published views are at generation",
          [&](Checker& c) { CheckWarmMatchesCold(*site.warm, cold, state.generation - 1, c); });
  t.Trips("site subscriber cursor, stale published views", "a subscriber missed a push",
          [&](Checker& c) { CheckSubscriberCursor(site.subscriber.cursor(), *site.loaded, c); });
  t.Trips("site subscriber view, stale published views", "view is not the published one",
          [&](Checker& c) {
            CheckSubscriberView(*site.loaded, serve::ViewKind::kProblems,
                                site.subscriber.cursor(), c);
          });
  t.Trips("site stats, planted MAC dropped", "GetStats differs", [&](Checker& c) {
    JournalClient client(&site.server);
    CheckStats(client.GetStats(), no_planted_mac, c);
  });

  const SiteHost& host = model.hosts().front();
  const Selector selectors[] = {
      Selector::ByIp(host.ip),
      Selector::ByMac(host.mac),
      Selector::ByName(host.name),
      Selector::InSubnet(model.subnets().front()),
      Selector::ModifiedSince(model.change_times().back()),
  };
  t.Passes("queries on a true Journal", [&](Checker& c) {
    JournalClient client(&site.server);
    for (const Selector& selector : selectors) {
      CheckQuery(client.GetInterfaces(selector), model, selector, c);
    }
  });
  for (const Selector& selector : selectors) {
    t.Trips("query kind " + std::to_string(static_cast<int>(selector.kind)) +
                ", wrong model record",
            "differs from the site model", [&](Checker& c) {
             // One record of the selector's answer gets a name the Journal
             // never saw.
             SiteModel bad = model;
             const auto answer = model.Answer(selector);
             if (answer.empty()) {
               return;  // Nothing to break: the case fails.
             }
             const auto& [ip, mac, name] = *answer.begin();
             for (SiteHost& h : bad.mutable_hosts()) {
               if (h.alive && h.ip.value() == ip && h.mac.ToU64() == mac) {
                 h.name += ".wrong";
               }
             }
             JournalClient client(&site.server);
             CheckQuery(client.GetInterfaces(selector), bad, selector, c);
           });
  }
}

}  // namespace

int RunSelfTest() {
  SelfTest t;
  WorkloadsRunClean(t);
  CampusChecksTrip(t);
  SiteChecksTrip(t);
  std::printf("%s: %d failure(s)\n", t.failures() == 0 ? "PASS" : "FAIL", t.failures());
  return t.failures() == 0 ? 0 : 1;
}

}  // namespace perfbench
