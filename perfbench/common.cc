#include "common.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/metrics.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double TimeSetupInChild(const std::function<void()>& setup) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    int code = 3;
    try {
      const double t0 = Now();
      setup();
      const double seconds = Now() - t0;
      if (write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds)) {
        code = 0;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: setup in child: %s\n", e.what());
    }
    std::fflush(nullptr);
    _exit(code);  // no destructors: the child's state dies with it
  }
  ::close(fds[1]);
  double seconds = -1;
  const ssize_t n = read(fds[0], &seconds, sizeof(seconds));
  ::close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (n != sizeof(seconds) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("setup repetition in a child process failed");
  }
  return seconds;
}

void Outcome::Fail(const std::string& why) {
  ++check_failures;
  if (errors.size() < 20) errors.push_back(why);
}

void ReportOps(const std::vector<double>& op_seconds, double window_seconds,
               const std::vector<double>& setup_seconds, double peak_rss_mb,
               Outcome* out) {
  std::vector<double> ms;
  ms.reserve(op_seconds.size());
  for (double s : op_seconds) ms.push_back(s * 1e3);
  out->AddE2e("setup_s", Median(setup_seconds), "s");
  out->info.push_back({"op_p50_ms", Quantile(ms, 0.5), "ms"});
  out->AddE2e("op_p90_ms", Quantile(ms, 0.9), "ms");
  out->AddE2e("op_rate",
              window_seconds > 0
                  ? static_cast<double>(op_seconds.size()) / window_seconds
                  : 0,
              "1/s");
  out->AddE2e("peak_rss_mb", peak_rss_mb, "MB");
}

double Spans::TakeOpTotal() {
  const double total = op_total_;
  op_total_ = 0;
  return total;
}

const std::vector<double>& Spans::samples(const std::string& name) const {
  static const std::vector<double> kEmpty;
  auto it = samples_.find(name);
  return it == samples_.end() ? kEmpty : it->second;
}

RegistryCounters RegistryCounters::Read(size_t max_workers) {
  gs::metrics::Registry& registry = gs::metrics::Registry::Global();
  RegistryCounters c;
  c.spine_merge_nanos = registry.GetHistogram("gs_spine_merge_nanos")->Sum();
  c.compaction_nanos =
      registry.GetHistogram("gs_spine_compaction_nanos")->Sum();
  c.arrcache_hits = registry.GetCounter("gs_arrcache_hits")->Value();
  c.arrcache_misses = registry.GetCounter("gs_arrcache_misses")->Value();
  static const char* kStates[5] = {"busy", "exchange", "barrier", "seal",
                                   "idle"};
  for (size_t s = 0; s < 5; ++s) {
    for (size_t w = 0; w < max_workers; ++w) {
      c.sched[s] += registry
                        .GetCounter("gs_sched_state_nanos",
                                    {{"state", kStates[s]},
                                     {"worker", std::to_string(w)}})
                        ->Value();
    }
  }
  return c;
}

RegistryCounters RegistryCounters::Minus(const RegistryCounters& b) const {
  RegistryCounters d;
  d.spine_merge_nanos = spine_merge_nanos - b.spine_merge_nanos;
  d.compaction_nanos = compaction_nanos - b.compaction_nanos;
  d.arrcache_hits = arrcache_hits - b.arrcache_hits;
  d.arrcache_misses = arrcache_misses - b.arrcache_misses;
  for (size_t s = 0; s < 5; ++s) d.sched[s] = sched[s] - b.sched[s];
  return d;
}

std::string WorkCounters::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "updates=%llu join_matches=%llu reduce_evals=%llu "
                "spine_merges=%llu frontier_rounds=%llu",
                static_cast<unsigned long long>(updates_published),
                static_cast<unsigned long long>(join_matches),
                static_cast<unsigned long long>(reduce_evaluations),
                static_cast<unsigned long long>(trace_spine_merges),
                static_cast<unsigned long long>(frontier_rounds));
  return buf;
}

std::string DiffResults(const gs::analytics::ResultMap& got,
                        const gs::analytics::ResultMap& want) {
  if (got == want) return "";
  std::ostringstream out;
  out << "size " << got.size() << " vs " << want.size();
  for (const auto& [key, value] : want) {
    auto it = got.find(key);
    if (it == got.end()) {
      out << ", missing key " << key;
      return out.str();
    }
    if (it->second != value) {
      out << ", key " << key << ": " << it->second << " vs " << value;
      return out.str();
    }
  }
  out << ", extra keys";
  return out.str();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::map<std::string, std::string> ReadParams(const std::string& path) {
  std::map<std::string, std::string> params;
  for (const std::string& line : ReadLines(path)) {
    const size_t space = line.find(' ');
    if (space == std::string::npos) continue;
    params[line.substr(0, space)] = line.substr(space + 1);
  }
  return params;
}

}  // namespace perfbench
