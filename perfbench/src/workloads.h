// The three workloads and the correctness checks the self-test exercises.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "site.h"
#include "src/journal/records.h"
#include "src/sim/topology.h"

namespace perfbench {

// Every workload reports the same end-to-end metrics (setup_s, peak_rss_mb,
// pass_rel, interfaces, gateways, subnets) and, in traced mode, the same
// per-layer set; a layer a workload does not touch reads 0.
// The campus and the site default to the benchmark's sizes; the self-test
// passes tiny ones. Campus discovery saturates well within 2 simulated hours
// (the same counts at 24 and 72), and 2 hours covers the first tick, where
// the concurrent scheduler loses the journal-driven modules' runs.
Result RunCampusDiscovery(const Options& options,
                          const fremont::CampusParams& params = fremont::CampusParams(),
                          fremont::Duration span = fremont::Duration::Hours(2));
Result RunJournalIngest(const Options& options, const SiteParams& params = SiteParams());
Result RunOperatorQueries(const Options& options, const SiteParams& params = SiteParams());

// Runs every workload at a tiny size, then feeds each check a wrong model
// record, a dropped planted conflict, or a mismatched seed and requires it to
// trip. Returns the process exit code.
int RunSelfTest();

// --- campus_discovery -------------------------------------------------------

struct CampusRun {
  double discovery_s = 0;
  std::vector<fremont::InterfaceRecord> interfaces;
  std::vector<fremont::GatewayRecord> gateways;
  std::vector<fremont::SubnetRecord> subnets;
  fremont::ByteBuffer encoded;  // Journal::EncodeAll at the end of the run.
  fremont::CampusTruth truth;
  size_t truth_gateways = 0;
  // The backbone segment's subnet: a real connected network that the Table 6
  // accounting in CampusTruth leaves out.
  fremont::Subnet backbone;
  // Layer split (filled only when traced).
  double idle_s = 0;
  double tick_s = 0;
  double begin_tick_s = 0;
  double end_tick_s = 0;
  JournalTap tap;
  uint64_t events = 0;
  uint64_t ticks = 0;
  uint64_t packets_sent = 0;
  uint64_t module_runs = 0;
  uint64_t fruitless_runs = 0;
};

// One fresh repetition: build the campus, let RIP converge (untimed unless
// `setup_s` is given), then one managed discovery run over `span`.
CampusRun RunCampusOnce(uint64_t sim_seed, const fremont::CampusParams& params,
                        fremont::Duration span, bool traced,
                        double* setup_s = nullptr);

// The per-repetition Journal checks against the campus ground truth.
void CheckCampusRun(const CampusRun& run, const fremont::CampusParams& params, Checker& check);
// Same seed, same Journal: repetitions must encode byte-identically.
void CheckSameJournal(const CampusRun& run, const CampusRun& reference, Checker& check);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
