// The synthetic multi-campus site behind journal_ingest and operator_queries.
//
// The benchmark's own model of what the Journal must hold: every interface
// record as (IP, MAC, name, mask, last change), the planted Sun-style
// multi-homed MACs that correlation must turn into gateways, the planted
// duplicate IPs and mask conflicts the problems report must find, and the
// answer to every query selector. The model is generated from the seed and
// changed only by the waves the benchmark writes, so every check compares the
// program against an independent computation.

#ifndef PERFBENCH_SITE_H_
#define PERFBENCH_SITE_H_

#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "src/journal/client.h"
#include "src/journal/protocol.h"
#include "src/journal/server.h"
#include "src/serve/views.h"

namespace perfbench {

struct SiteParams {
  int campuses = 3;            // Class B networks 128.(140+c).0.0/16.
  int subnets_per_campus = 100;
  // Plain hosts per /24. Fixed, so the seed moves the site's layout but not
  // its size, and the ingest and query figures compare across seeds.
  int hosts_per_subnet = 80;
  int multihomed = 40;         // Sun-style MACs on 2-4 subnets of one campus.
  int duplicate_ips = 30;      // A second live MAC on a plain host's IP.
  int mask_conflicts = 24;     // Plain hosts recording a /16 instead of a /24.
  // Per update wave, as shares of the live interfaces. A wave is an hourly
  // sweep that re-verifies nearly the whole site, so the Journal's write path
  // carries a share of each wave's cost comparable to the view rebuild.
  double reverify = 0.95;
  double rename = 0.01;
  double add = 0.005;
  double remove = 0.005;
};

// A tiny site for the self-test.
SiteParams TinySiteParams();

enum class HostKind : uint8_t { kPlain, kMultihomed, kDuplicate, kWrongMask };

struct SiteHost {
  fremont::Ipv4Address ip;
  fremont::MacAddress mac;
  std::string name;
  int prefix = 24;  // Recorded mask.
  HostKind kind = HostKind::kPlain;
  bool alive = true;
  fremont::SimTime last_changed;
  fremont::RecordId id = fremont::kInvalidRecordId;  // Learned from a fetch.
};

// What a query returns, compared as a set.
using RecordKey = std::tuple<uint32_t, uint64_t, std::string>;  // ip, mac, name

// One wave of writes, planned against the model (which it has already
// changed): stores through the main writer, stores stamped `late_age` earlier
// through a second writer flushed last, and deletes of known record ids.
struct WavePlan {
  fremont::SimTime time;
  std::vector<size_t> load;      // Full observations (new interfaces).
  // Written twice: by ARP watch (IP + MAC) and by a SeqPing sweep (IP only).
  std::vector<size_t> reverify;
  std::vector<size_t> rename;    // IP + MAC + new name.
  std::vector<size_t> late_rename;
  std::vector<fremont::RecordId> deletes;
  bool subnets = false;  // Also store every subnet (the initial load).
  size_t records() const {
    return load.size() + 2 * reverify.size() + rename.size() + late_rename.size() +
           deletes.size() + (subnets ? 1 : 0);
  }
};

class SiteModel {
 public:
  SiteModel(uint64_t seed, const SiteParams& params);

  static constexpr fremont::Duration kLateAge = fremont::Duration::Minutes(20);

  // The initial load: every subnet and interface, at `time`.
  WavePlan InitialWave(fremont::SimTime time);
  // An update wave at `time`: re-verify, rename (some through the late
  // writer), add, and delete the given shares of the live interfaces.
  WavePlan UpdateWave(fremont::SimTime time, double reverify, double rename, double add,
                      double remove);

  // Records the Journal's ids for the model's interfaces.
  void LearnIds(const std::vector<fremont::InterfaceRecord>& interfaces);

  size_t live_interfaces() const { return live_; }
  size_t subnet_count() const { return subnets_.size(); }
  const std::vector<fremont::Subnet>& subnets() const { return subnets_; }
  const std::vector<SiteHost>& hosts() const { return hosts_; }
  std::vector<SiteHost>& mutable_hosts() { return hosts_; }

  // Planted facts, as the Journal and its analyses must report them.
  std::set<uint64_t> MultihomedMacs() const;
  std::set<uint32_t> DuplicateIps() const;
  std::set<uint32_t> WrongMaskIps() const;
  // Problems-report findings: one per duplicate IP, one per class B network
  // holding a mask dissenter.
  int ExpectedFindings() const;

  // The model's answer to a Get selector (kByIp, kByMac, kByName, kInRange,
  // kModifiedSince).
  std::set<RecordKey> Answer(const fremont::Selector& selector) const;
  // Distinct change times, for modified-since selectors.
  const std::vector<fremont::SimTime>& change_times() const { return change_times_; }

  // Deterministic query picks.
  SplitMix& rng() { return rng_; }
  size_t RandomLiveHost();

  // Drops planted facts, for the self-test.
  void ForgetDuplicate() { forget_duplicate_ = true; }

 private:
  size_t AddHost(fremont::Ipv4Address ip, fremont::MacAddress mac, std::string name, int prefix,
                 HostKind kind);
  fremont::Ipv4Address FreeAddress(size_t subnet);
  void Index(size_t host);
  void Unindex(size_t host);

  SiteParams params_;
  SplitMix rng_;
  std::vector<fremont::Subnet> subnets_;
  std::vector<std::vector<uint32_t>> free_hosts_;  // Per subnet, host numbers unused.
  std::vector<SiteHost> hosts_;
  std::vector<std::vector<size_t>> by_subnet_;
  std::unordered_map<uint32_t, std::vector<size_t>> by_ip_;
  std::unordered_map<uint64_t, std::vector<size_t>> by_mac_;
  std::unordered_map<std::string, std::vector<size_t>> by_name_;
  std::vector<size_t> pending_load_;  // Created, not yet written.
  std::vector<fremont::SimTime> change_times_;
  size_t live_ = 0;
  uint64_t mac_serial_ = 0;
  int renames_ = 0;
  bool forget_duplicate_ = false;
};

// Writes one wave through JournalBatchWriters on `client` and returns the
// number of batch items that failed.
uint64_t WriteWave(fremont::JournalClient& client, const SiteModel& model, const WavePlan& plan);

// A full fetch through a fresh, cache-less client: what a cold reader sees.
struct JournalState {
  std::vector<fremont::InterfaceRecord> interfaces;
  std::vector<fremont::GatewayRecord> gateways;
  std::vector<fremont::SubnetRecord> subnets;
  uint64_t generation = 0;
};
JournalState FetchState(fremont::JournalServer& server);

// Checks after a wave: counts, inferred gateways, planted problems, and the
// warm published snapshot against a cold BuildViewSnapshot from a full fetch
// at the same generation and time.
void CheckCounts(const JournalState& state, const SiteModel& model, Checker& check);
void CheckGateways(const JournalState& state, const SiteModel& model, Checker& check);
void CheckProblems(const JournalState& state, const SiteModel& model, fremont::SimTime now,
                   int published_findings, Checker& check);
void CheckWarmMatchesCold(const fremont::serve::ViewSnapshot& warm,
                          const fremont::serve::ViewSnapshot& cold, uint64_t fetched_generation,
                          Checker& check);
// A rendered problems report's bottom line against the planted problems.
void CheckReportFindings(int findings, const SiteModel& model, Checker& check);
// GetStats against the model's counts.
void CheckStats(const fremont::JournalStats& stats, const SiteModel& model, Checker& check);
// A subscriber's cursor against the published views' generation.
void CheckSubscriberCursor(uint64_t cursor, const fremont::serve::ViewSnapshot& published,
                           Checker& check);
// A view read by a subscriber: non-empty and at the subscriber's generation.
void CheckSubscriberView(const fremont::serve::ViewSnapshot& read, fremont::serve::ViewKind kind,
                         uint64_t cursor, Checker& check);
// One query result against the model's answer for its selector.
void CheckQuery(const std::vector<fremont::InterfaceRecord>& got, const SiteModel& model,
                const fremont::Selector& selector, Checker& check);

}  // namespace perfbench

#endif  // PERFBENCH_SITE_H_
