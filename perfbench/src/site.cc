#include "site.h"

#include <algorithm>
#include <utility>

#include "src/analysis/conflicts.h"
#include "src/journal/batch_writer.h"

namespace perfbench {

using namespace fremont;

namespace {

MacAddress MacFromSerial(uint8_t a, uint8_t b, uint8_t c, uint64_t serial) {
  return MacAddress(a, b, c, static_cast<uint8_t>(serial >> 16), static_cast<uint8_t>(serial >> 8),
                    static_cast<uint8_t>(serial));
}

RecordKey KeyOf(const InterfaceRecord& rec) {
  return {rec.ip.value(), rec.mac.has_value() ? rec.mac->ToU64() : 0, rec.dns_name};
}

RecordKey KeyOf(const SiteHost& host) {
  return {host.ip.value(), host.mac.ToU64(), host.name};
}

}  // namespace

SiteParams TinySiteParams() {
  SiteParams p;
  p.campuses = 2;
  p.subnets_per_campus = 4;
  p.hosts_per_subnet = 8;
  p.multihomed = 3;
  p.duplicate_ips = 2;
  p.mask_conflicts = 2;
  p.reverify = 0.3;
  p.rename = 0.1;
  p.add = 0.05;
  p.remove = 0.05;
  return p;
}

SiteModel::SiteModel(uint64_t seed, const SiteParams& params)
    : params_(params), rng_(seed * 0x2545f4914f6cdd1dULL + 12) {
  for (int c = 0; c < params.campuses; ++c) {
    for (int s = 1; s <= params.subnets_per_campus; ++s) {
      subnets_.push_back(Subnet(Ipv4Address(128, static_cast<uint8_t>(140 + c),
                                            static_cast<uint8_t>(s), 0),
                                SubnetMask::FromPrefixLength(24)));
      std::vector<uint32_t> free;
      for (uint32_t h = 2; h <= 254; ++h) {
        free.push_back(h);
      }
      // Fisher-Yates with the site's own generator.
      for (size_t i = free.size() - 1; i > 0; --i) {
        std::swap(free[i], free[static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(i)))]);
      }
      free_hosts_.push_back(std::move(free));
    }
  }
  by_subnet_.resize(subnets_.size());

  for (size_t s = 0; s < subnets_.size(); ++s) {
    for (int h = 0; h < params.hosts_per_subnet; ++h) {
      const Ipv4Address ip = FreeAddress(s);
      AddHost(ip, MacFromSerial(0x02, 0x60, 0x8c, ++mac_serial_),
              "h" + std::to_string(s) + "-" + std::to_string(h) + ".site.example", 24,
              HostKind::kPlain);
    }
  }
  // Sun workstations doubling as gateways: one hostid-derived MAC on every
  // interface, each on a different subnet of one campus.
  for (int m = 0; m < params.multihomed; ++m) {
    const size_t campus = static_cast<size_t>(m % params.campuses);
    const size_t first = campus * static_cast<size_t>(params.subnets_per_campus);
    const int legs = static_cast<int>(
        rng_.Range(2, std::min(4, params.subnets_per_campus)));
    std::vector<size_t> chosen;
    while (static_cast<int>(chosen.size()) < legs) {
      const size_t s = first + static_cast<size_t>(rng_.Range(0, params.subnets_per_campus - 1));
      if (std::find(chosen.begin(), chosen.end(), s) == chosen.end()) {
        chosen.push_back(s);
      }
    }
    const MacAddress mac = MacFromSerial(0x08, 0x00, 0x20, static_cast<uint64_t>(m) + 1);
    for (size_t leg = 0; leg < chosen.size(); ++leg) {
      AddHost(FreeAddress(chosen[leg]), mac,
              "sun" + std::to_string(m) + "-" + std::to_string(leg) + ".site.example", 24,
              HostKind::kMultihomed);
    }
  }
  auto random_plain = [this]() {
    while (true) {
      const size_t i = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(hosts_.size()) - 1));
      if (hosts_[i].kind == HostKind::kPlain) {
        return i;
      }
    }
  };
  for (int d = 0; d < params.duplicate_ips; ++d) {
    const size_t original = random_plain();
    hosts_[original].kind = HostKind::kDuplicate;
    AddHost(hosts_[original].ip, MacFromSerial(0x02, 0x60, 0x8c, ++mac_serial_),
            "dup" + std::to_string(d) + ".site.example", 24, HostKind::kDuplicate);
  }
  // At most one dissenter per subnet.
  std::set<uint32_t> dissenting_subnets;
  while (static_cast<int>(dissenting_subnets.size()) < params.mask_conflicts) {
    const size_t i = random_plain();
    const uint32_t subnet = hosts_[i].ip.value() & 0xffffff00u;
    if (dissenting_subnets.insert(subnet).second) {
      hosts_[i].kind = HostKind::kWrongMask;
      hosts_[i].prefix = 16;
    }
  }
}

Ipv4Address SiteModel::FreeAddress(size_t subnet) {
  std::vector<uint32_t>& free = free_hosts_[subnet];
  const uint32_t host = free.back();
  free.pop_back();  // Addresses are never reused, even after a delete.
  return subnets_[subnet].HostAt(host);
}

size_t SiteModel::AddHost(Ipv4Address ip, MacAddress mac, std::string name, int prefix,
                          HostKind kind) {
  SiteHost host;
  host.ip = ip;
  host.mac = mac;
  host.name = std::move(name);
  host.prefix = prefix;
  host.kind = kind;
  hosts_.push_back(std::move(host));
  const size_t index = hosts_.size() - 1;
  Index(index);
  pending_load_.push_back(index);
  ++live_;
  return index;
}

void SiteModel::Index(size_t i) {
  const SiteHost& host = hosts_[i];
  const uint32_t network = host.ip.value() & 0xffffff00u;
  const size_t campus = ((network >> 16) & 0xff) - 140;
  const size_t subnet = campus * static_cast<size_t>(params_.subnets_per_campus) +
                        ((network >> 8) & 0xff) - 1;
  by_subnet_[subnet].push_back(i);
  by_ip_[host.ip.value()].push_back(i);
  by_mac_[host.mac.ToU64()].push_back(i);
  by_name_[host.name].push_back(i);
}

void SiteModel::Unindex(size_t i) {
  const SiteHost& host = hosts_[i];
  auto drop = [i](std::vector<size_t>& v) { v.erase(std::remove(v.begin(), v.end(), i), v.end()); };
  const uint32_t network = host.ip.value() & 0xffffff00u;
  const size_t campus = ((network >> 16) & 0xff) - 140;
  drop(by_subnet_[campus * static_cast<size_t>(params_.subnets_per_campus) +
                  ((network >> 8) & 0xff) - 1]);
  drop(by_ip_[host.ip.value()]);
  drop(by_mac_[host.mac.ToU64()]);
  drop(by_name_[host.name]);
}

WavePlan SiteModel::InitialWave(SimTime time) {
  WavePlan plan;
  plan.time = time;
  plan.subnets = true;
  plan.load = std::move(pending_load_);
  pending_load_.clear();
  for (size_t i : plan.load) {
    hosts_[i].last_changed = time;
  }
  change_times_.push_back(time);
  return plan;
}

size_t SiteModel::RandomLiveHost() {
  while (true) {
    const size_t i = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(hosts_.size()) - 1));
    if (hosts_[i].alive) {
      return i;
    }
  }
}

WavePlan SiteModel::UpdateWave(SimTime time, double reverify, double rename, double add,
                               double remove) {
  WavePlan plan;
  plan.time = time;
  const double live = static_cast<double>(live_);
  auto share = [live](double fraction) { return static_cast<size_t>(live * fraction + 0.5); };
  // Each live interface plays at most one part per wave.
  std::vector<char> taken(hosts_.size(), 0);
  auto pick = [&](bool plain_with_id) {
    while (true) {
      const size_t i = RandomLiveHost();
      if (taken[i] != 0) {
        continue;
      }
      if (plain_with_id &&
          (hosts_[i].kind != HostKind::kPlain || hosts_[i].id == kInvalidRecordId)) {
        continue;
      }
      taken[i] = 1;
      return i;
    }
  };
  for (size_t n = share(reverify); n > 0; --n) {
    plan.reverify.push_back(pick(false));
  }
  const size_t renames = share(rename);
  for (size_t n = 0; n < renames; ++n) {
    const size_t i = pick(false);
    // Every other rename arrives through the late writer, stamped older.
    const bool late = n % 2 == 1;
    const SimTime stamp = late ? time - kLateAge : time;
    Unindex(i);
    hosts_[i].name = "r" + std::to_string(++renames_) + ".site.example";
    hosts_[i].last_changed = std::max(hosts_[i].last_changed, stamp);
    Index(i);
    (late ? plan.late_rename : plan.rename).push_back(i);
  }
  size_t removes = share(remove);
  size_t plain_with_id = 0;
  for (const SiteHost& host : hosts_) {
    plain_with_id += host.alive && host.kind == HostKind::kPlain && host.id != kInvalidRecordId;
  }
  removes = std::min(removes, plain_with_id / 2);
  for (size_t n = 0; n < removes; ++n) {
    const size_t i = pick(true);
    plan.deletes.push_back(hosts_[i].id);
    Unindex(i);
    hosts_[i].alive = false;
    --live_;
  }
  for (size_t n = share(add); n > 0; --n) {
    const size_t subnet = static_cast<size_t>(rng_.Range(0, static_cast<int64_t>(subnets_.size()) - 1));
    const uint64_t serial = ++mac_serial_;
    AddHost(FreeAddress(subnet), MacFromSerial(0x02, 0x60, 0x8c, serial),
            "n" + std::to_string(serial) + ".site.example", 24, HostKind::kPlain);
  }
  plan.load = std::move(pending_load_);
  pending_load_.clear();
  for (size_t i : plan.load) {
    hosts_[i].last_changed = time;
  }
  change_times_.push_back(time - kLateAge);
  change_times_.push_back(time);
  return plan;
}

void SiteModel::LearnIds(const std::vector<InterfaceRecord>& interfaces) {
  for (const InterfaceRecord& rec : interfaces) {
    if (!rec.mac.has_value()) {
      continue;
    }
    const auto it = by_mac_.find(rec.mac->ToU64());
    if (it == by_mac_.end()) {
      continue;
    }
    for (size_t i : it->second) {
      if (hosts_[i].ip == rec.ip) {
        hosts_[i].id = rec.id;
      }
    }
  }
}

std::set<uint64_t> SiteModel::MultihomedMacs() const {
  std::set<uint64_t> out;
  for (const SiteHost& host : hosts_) {
    if (host.alive && host.kind == HostKind::kMultihomed) {
      out.insert(host.mac.ToU64());
    }
  }
  return out;
}

std::set<uint32_t> SiteModel::DuplicateIps() const {
  std::set<uint32_t> out;
  for (const SiteHost& host : hosts_) {
    if (host.alive && host.kind == HostKind::kDuplicate) {
      out.insert(host.ip.value());
    }
  }
  if (forget_duplicate_ && !out.empty()) {
    out.erase(out.begin());
  }
  return out;
}

std::set<uint32_t> SiteModel::WrongMaskIps() const {
  std::set<uint32_t> out;
  for (const SiteHost& host : hosts_) {
    if (host.alive && host.kind == HostKind::kWrongMask) {
      out.insert(host.ip.value());
    }
  }
  return out;
}

int SiteModel::ExpectedFindings() const {
  std::set<uint32_t> networks;
  for (uint32_t ip : WrongMaskIps()) {
    networks.insert(ip & 0xffff0000u);  // Class B: the classful grouping.
  }
  return static_cast<int>(DuplicateIps().size() + networks.size());
}

std::set<RecordKey> SiteModel::Answer(const Selector& selector) const {
  std::set<RecordKey> out;
  auto add_all = [&](const auto& index, const auto& key) {
    const auto it = index.find(key);
    if (it != index.end()) {
      for (size_t i : it->second) {
        out.insert(KeyOf(hosts_[i]));
      }
    }
  };
  switch (selector.kind) {
    case Selector::Kind::kByIp:
      add_all(by_ip_, selector.ip.value());
      break;
    case Selector::Kind::kByMac:
      add_all(by_mac_, selector.mac.ToU64());
      break;
    case Selector::Kind::kByName:
      add_all(by_name_, selector.name);
      break;
    case Selector::Kind::kInRange:
      for (size_t s = 0; s < subnets_.size(); ++s) {
        if (subnets_[s].BroadcastAddress() < selector.ip || selector.ip_hi < subnets_[s].network()) {
          continue;
        }
        for (size_t i : by_subnet_[s]) {
          if (selector.ip <= hosts_[i].ip && hosts_[i].ip <= selector.ip_hi) {
            out.insert(KeyOf(hosts_[i]));
          }
        }
      }
      break;
    case Selector::Kind::kModifiedSince:
      for (const SiteHost& host : hosts_) {
        if (host.alive && host.last_changed >= selector.since) {
          out.insert(KeyOf(host));
        }
      }
      break;
    default:
      for (const SiteHost& host : hosts_) {
        if (host.alive) {
          out.insert(KeyOf(host));
        }
      }
      break;
  }
  return out;
}

uint64_t WriteWave(JournalClient& client, const SiteModel& model, const WavePlan& plan) {
  const SimTime time = plan.time;
  const SimTime late_time = time - SiteModel::kLateAge;
  JournalBatchWriter writer(&client, [time] { return time; });
  JournalBatchWriter late(&client, [late_time] { return late_time; });
  const std::vector<SiteHost>& hosts = model.hosts();
  if (plan.subnets) {
    for (const Subnet& subnet : model.subnets()) {
      SubnetObservation obs;
      obs.subnet = subnet;
      writer.StoreSubnet(obs, DiscoverySource::kRipWatch);
    }
  }
  InterfaceObservation obs;
  for (size_t i : plan.load) {
    obs = {};
    obs.ip = hosts[i].ip;
    obs.mac = hosts[i].mac;
    obs.dns_name = hosts[i].name;
    obs.mask = SubnetMask::FromPrefixLength(hosts[i].prefix);
    writer.StoreInterface(obs, DiscoverySource::kEtherHostProbe);
  }
  for (size_t i : plan.reverify) {
    obs = {};
    obs.ip = hosts[i].ip;
    obs.mac = hosts[i].mac;
    writer.StoreInterface(obs, DiscoverySource::kArpWatch);
  }
  for (size_t i : plan.reverify) {
    obs = {};
    obs.ip = hosts[i].ip;
    writer.StoreInterface(obs, DiscoverySource::kSeqPing);
  }
  for (const auto* list : {&plan.rename, &plan.late_rename}) {
    JournalBatchWriter& target = list == &plan.rename ? writer : late;
    for (size_t i : *list) {
      obs = {};
      obs.ip = hosts[i].ip;
      obs.mac = hosts[i].mac;
      obs.dns_name = hosts[i].name;
      target.StoreInterface(obs, DiscoverySource::kDns);
    }
  }
  for (RecordId id : plan.deletes) {
    writer.DeleteInterface(id);
  }
  writer.Flush();
  late.Flush();  // Last: its stamps are older than everything above.
  return static_cast<uint64_t>(writer.totals().failed + late.totals().failed);
}

JournalState FetchState(JournalServer& server) {
  JournalClient client(&server);
  JournalState state;
  state.interfaces = client.GetInterfaces();
  state.gateways = client.GetGateways();
  state.subnets = client.GetSubnets();
  state.generation = client.last_seen_generation();
  return state;
}

void CheckCounts(const JournalState& state, const SiteModel& model, Checker& check) {
  check.Expect(state.interfaces.size() == model.live_interfaces(),
               "Journal holds " + std::to_string(state.interfaces.size()) +
                   " interfaces, the site " + std::to_string(model.live_interfaces()));
  check.Expect(state.subnets.size() == model.subnet_count(),
               "Journal holds " + std::to_string(state.subnets.size()) + " subnets, the site " +
                   std::to_string(model.subnet_count()));
  check.Expect(state.gateways.size() == model.MultihomedMacs().size(),
               "Journal holds " + std::to_string(state.gateways.size()) +
                   " gateways, the site plants " + std::to_string(model.MultihomedMacs().size()));
  std::set<RecordKey> journal;
  for (const InterfaceRecord& rec : state.interfaces) {
    journal.insert(KeyOf(rec));
  }
  check.Expect(journal == model.Answer(Selector::All()),
               "Journal interfaces differ from the site model");
}

void CheckGateways(const JournalState& state, const SiteModel& model, Checker& check) {
  std::unordered_map<RecordId, const InterfaceRecord*> by_id;
  for (const InterfaceRecord& rec : state.interfaces) {
    by_id.emplace(rec.id, &rec);
  }
  std::set<uint64_t> inferred;
  for (const GatewayRecord& gw : state.gateways) {
    std::set<uint64_t> macs;
    std::set<RecordKey> members;
    const InterfaceRecord* member = nullptr;
    for (RecordId id : gw.interface_ids) {
      const auto it = by_id.find(id);
      if (it == by_id.end() || !it->second->mac.has_value()) {
        check.Expect(false, "gateway " + std::to_string(gw.id) + " names a missing interface");
        continue;
      }
      member = it->second;
      macs.insert(member->mac->ToU64());
      members.insert(KeyOf(*member));
    }
    check.Expect(macs.size() == 1, "gateway " + std::to_string(gw.id) + " spans " +
                                       std::to_string(macs.size()) + " MACs");
    if (macs.size() == 1) {
      inferred.insert(*macs.begin());
      check.Expect(members == model.Answer(Selector::ByMac(*member->mac)),
                   "gateway " + std::to_string(gw.id) + " interfaces differ from the site");
    }
  }
  check.Expect(inferred == model.MultihomedMacs(),
               "inferred gateways differ from the planted multi-homed MACs");
}

void CheckProblems(const JournalState& state, const SiteModel& model, SimTime now,
                   int published_findings, Checker& check) {
  std::set<uint32_t> duplicates;
  for (const AddressConflict& c : FindAddressConflicts(state.interfaces, state.gateways, now)) {
    if (c.kind == AddressConflict::Kind::kGatewayOrProxy) {
      continue;
    }
    check.Expect(c.kind == AddressConflict::Kind::kDuplicateIp,
                 std::string("unplanted address conflict: ") + c.ToString());
    duplicates.insert(c.records.front().ip.value());
  }
  check.Expect(duplicates == model.DuplicateIps(),
               "duplicate IPs found differ from the planted ones");
  std::set<uint32_t> dissenters;
  for (const MaskConflict& c : FindMaskConflicts(state.interfaces)) {
    for (const InterfaceRecord& rec : c.dissenters) {
      dissenters.insert(rec.ip.value());
    }
  }
  check.Expect(dissenters == model.WrongMaskIps(),
               "mask dissenters found differ from the planted ones");
  CheckReportFindings(published_findings, model, check);
}

void CheckWarmMatchesCold(const serve::ViewSnapshot& warm, const serve::ViewSnapshot& cold,
                          uint64_t fetched_generation, Checker& check) {
  check.Expect(fetched_generation == warm.generation,
               "published views are at generation " + std::to_string(warm.generation) +
                   ", the Journal at " + std::to_string(fetched_generation));
  check.Expect(warm.Serialize() == cold.Serialize(),
               "warm published views differ from a cold build");
}

void CheckReportFindings(int findings, const SiteModel& model, Checker& check) {
  check.Expect(findings == model.ExpectedFindings(),
               "problems report finds " + std::to_string(findings) + ", the site plants " +
                   std::to_string(model.ExpectedFindings()));
}

void CheckStats(const JournalStats& stats, const SiteModel& model, Checker& check) {
  check.Expect(stats.interface_count == model.live_interfaces() &&
                   stats.subnet_count == model.subnet_count() &&
                   stats.gateway_count == model.MultihomedMacs().size(),
               "GetStats differs from the site model");
}

void CheckSubscriberCursor(uint64_t cursor, const serve::ViewSnapshot& published,
                           Checker& check) {
  check.Expect(cursor == published.generation,
               "a subscriber missed a push: cursor " + std::to_string(cursor) +
                   ", published generation " + std::to_string(published.generation));
}

void CheckSubscriberView(const serve::ViewSnapshot& read, serve::ViewKind kind, uint64_t cursor,
                         Checker& check) {
  check.Expect(!read.view(kind).empty() && read.generation == cursor,
               "a subscriber's view is not the published one");
}

void CheckQuery(const std::vector<InterfaceRecord>& got, const SiteModel& model,
                const Selector& selector, Checker& check) {
  std::set<RecordKey> keys;
  for (const InterfaceRecord& rec : got) {
    keys.insert(KeyOf(rec));
  }
  check.Expect(keys.size() == got.size() && keys == model.Answer(selector),
               "query of kind " + std::to_string(static_cast<int>(selector.kind)) +
                   " differs from the site model");
}

}  // namespace perfbench
