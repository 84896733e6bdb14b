#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

namespace {
const double kProcessStart = NowS();
// Keeps the reference kernel's work observable, so the compiler cannot drop it.
volatile uint64_t reference_sink = 0;
}  // namespace

double ProcessStartS() { return kProcessStart; }

double ReferenceKernelS() {
  const double start = NowS();
  SplitMix rng(42);
  std::vector<uint64_t> keys(60000);
  std::unordered_map<uint64_t, uint64_t> table;
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng.Next();
    table[keys[i]] = i;
  }
  uint64_t sum = 0;
  for (int pass = 0; pass < 3; ++pass) {
    for (uint64_t key : keys) {
      sum += table.find(key)->second;
    }
  }
  std::map<uint64_t, uint64_t> tree;
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    tree[keys[i]] = i;
  }
  for (uint64_t key : keys) {
    const auto it = tree.lower_bound(key);
    sum += it == tree.end() ? 0 : it->second;
  }
  std::vector<std::string> names;
  for (size_t i = 0; i < keys.size() / 2; ++i) {
    names.push_back("h" + std::to_string(keys[i] % 1000003) + ".site.example");
  }
  std::sort(names.begin(), names.end());
  sum += names.front().size();
  reference_sink = sum;
  return NowS() - start;
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec, so it would
  // report the launching Python process's footprint when that is larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0;
  }
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return kib / 1024.0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

void PassSamples::Add(double wall) {
  if (wall_s.empty()) {
    peak_rss_mb = PeakRssMb();
  }
  wall_s.push_back(wall);
  ref_s.push_back(ReferenceKernelS());
}

void PassSamples::Report(bool traced, Result& result) const {
  std::vector<double> relative;
  for (size_t i = 0; i < wall_s.size(); ++i) {
    relative.push_back(wall_s[i] / ref_s[i]);
  }
  result.Set("pass_rel", Median(relative), "x_ref");
  result.Set("peak_rss_mb", peak_rss_mb, "MB");
  if (traced) {
    result.Set("wall.pass_s", Median(wall_s), "s");
    result.Set("wall.ref_s", Median(ref_s), "s");
  }
}

std::string ResultJson(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.9g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

void Checker::Expect(bool ok, const std::string& what) {
  if (ok) {
    return;
  }
  if (verbose_ && failures_ < 10) {
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }
  if (failures_ < kKept) {
    kept_.push_back(what);
  }
  ++failures_;
}

bool Checker::Tripped(const std::string& fragment) const {
  for (const std::string& what : kept_) {
    if (what.find(fragment) != std::string::npos) {
      return true;
    }
  }
  return false;
}

fremont::JournalClient::Transport JournalTap::Transport() {
  return [this](const fremont::ByteBuffer& request) {
    if (!enabled) {
      return server->HandleRequest(request);
    }
    const double start = NowS();
    fremont::ByteBuffer response = server->HandleRequest(request);
    server_s += NowS() - start;
    ++requests;
    bytes_in += request.size();
    bytes_out += response.size();
    return response;
  };
}

}  // namespace perfbench
