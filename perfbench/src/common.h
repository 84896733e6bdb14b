// Shared plumbing for the end-to-end benchmark: options, the result record
// and its JSON line, robust statistics, a timing Journal transport, and the
// correctness checker every workload reports through.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/journal/client.h"
#include "src/journal/server.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Traced runs alternate plain and traced repetitions, so however short the
// run, they need one of each.
inline int MinRepetitions(const Options& options) { return options.trace ? 2 : 1; }

inline double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Steady-clock reading taken during static initialization, i.e. at process
// start; setup_s is measured from here.
double ProcessStartS();

// A fixed piece of work that calls nothing in Fremont: hash-table inserts and
// lookups, ordered-map searches, and building and sorting host names, the
// operations the Journal's indexes and views are made of, over about 6 MB,
// more than one core's L2. Returns its wall time. Run in this process right
// after each plain repetition, on the same core, it reads how fast the
// machine runs such code at that moment (see README.md, "Repetition scheme").
double ReferenceKernelS();

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

struct Metric {
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Each plain repetition's wall time, paired with the reference kernel's time
// right after it.
struct PassSamples {
  std::vector<double> wall_s;
  std::vector<double> ref_s;
  double peak_rss_mb = 0;
  // Records one plain repetition and runs the reference kernel. The first
  // call also reads the peak RSS so far (set-up plus one repetition), before
  // the kernel's memory can count in it; later repetitions redo the same
  // work from fresh state.
  void Add(double wall);
  // Sets pass_rel, the median of wall / ref: one repetition in units of the
  // reference kernel, and peak_rss_mb. With `traced`, also the raw medians
  // wall.pass_s and wall.ref_s.
  void Report(bool traced, Result& result) const;
};

// The single JSON line the driver reads (last line of stdout).
std::string ResultJson(const Result& result);

// Collects correctness failures. Each Expect() that fails records a
// description; the first few are echoed to stderr so a failing run says why.
class Checker {
 public:
  // A quiet checker (the self-test's deliberately failing inputs) echoes
  // nothing.
  explicit Checker(bool verbose = true) : verbose_(verbose) {}
  void Expect(bool ok, const std::string& what);
  bool ok() const { return failures_ == 0; }
  int failures() const { return failures_; }
  // Whether one of the first kKept failures' descriptions contains
  // `fragment`: the self-test's proof that a particular check tripped.
  bool Tripped(const std::string& fragment) const;

 private:
  static constexpr int kKept = 64;
  bool verbose_;
  int failures_ = 0;
  std::vector<std::string> kept_;
};

// Splitmix64: a fixed, library-independent generator, so a seed names the
// same inputs on every standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  bool Chance(double p) { return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p; }

 private:
  uint64_t state_;
};

// Wraps JournalServer::HandleRequest and, while `enabled`, tallies requests,
// bytes each way, and wall time spent inside the server.
struct JournalTap {
  fremont::JournalServer* server = nullptr;
  bool enabled = false;
  uint64_t requests = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  double server_s = 0;

  fremont::JournalClient::Transport Transport();
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
