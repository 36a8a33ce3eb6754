// Shared pieces of the benchmark binary: run configuration, the result
// record every workload fills, latency statistics, outside-in span timing
// and deltas of the engine counters the library already exports.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/reference.h"
#include "differential/dataflow.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Toy sizes: every correctness check runs, in seconds.
  bool smoke = false;
  /// Directory holding the generated inputs (and scratch files such as WAL
  /// logs); created and removed by run.py.
  std::string dir;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Peak resident set size of this process in MB (getrusage).
double PeakRssMb();

/// One benchmark run's outcome. `e2e` holds the end-to-end metrics,
/// `layers` the per-layer metrics of a traced run. Every failed check is
/// counted against the op it belongs to and recorded in `errors`.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t check_failures = 0;
  std::vector<std::string> errors;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> e2e;
  /// Printed with the end-to-end metrics but left out of the result line.
  std::vector<Metric> info;
  std::map<std::string, double> layers;

  void Fail(const std::string& why);
  bool correct() const { return check_failures == 0; }
  void AddE2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
};

/// Runs `setup` in a forked child process and returns its wall time; the
/// child exits right after. Call only while this process runs no other
/// thread. Each setup repetition thus starts from a fresh process, as a
/// user's would, and leaves no heap behind to skew the next repetition or
/// this process's peak RSS.
double TimeSetupInChild(const std::function<void()>& setup);

/// Records the op latencies of the timed window and derives the end-to-end
/// metrics every workload reports. The median op latency is printed for
/// reference only (README.md: why it is not an end-to-end metric).
void ReportOps(const std::vector<double>& op_seconds, double window_seconds,
               const std::vector<double>& setup_seconds, double peak_rss_mb,
               Outcome* out);

/// Outside-in spans: wall time around a public call into one layer,
/// recorded per name. A disabled tracer reads no clock, so the same code
/// path serves the traced and the untraced variant of an op.
class Spans {
 public:
  class Scope {
   public:
    Scope(Spans* spans, const char* name)
        : spans_(spans), name_(name), start_(spans->enabled_ ? Now() : 0) {}
    ~Scope() {
      if (spans_->enabled_) spans_->Record(name_, Now() - start_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* spans_;
    const char* name_;
    double start_;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void Record(const std::string& name, double seconds) {
    samples_[name].push_back(seconds);
    op_total_ += seconds;
  }
  /// Sum of all spans recorded since the last Take (the op's attributed
  /// time), clearing the per-op accumulator.
  double TakeOpTotal();
  const std::vector<double>& samples(const std::string& name) const;
  double MedianOf(const std::string& name) const {
    return Median(samples(name));
  }

 private:
  bool enabled_ = false;
  std::map<std::string, std::vector<double>> samples_;
  double op_total_ = 0;
};

/// Engine counters exported through the global metrics registry, read
/// before and after an op.
struct RegistryCounters {
  uint64_t spine_merge_nanos = 0;
  uint64_t compaction_nanos = 0;
  uint64_t arrcache_hits = 0;
  uint64_t arrcache_misses = 0;
  /// gs_sched_state_nanos summed over workers: busy, exchange, barrier,
  /// seal, idle.
  uint64_t sched[5] = {0, 0, 0, 0, 0};

  static RegistryCounters Read(size_t max_workers);
  RegistryCounters Minus(const RegistryCounters& before) const;
};

/// Work counters of the differential engine that are exact at W=1: a job
/// that does the same work reports the same numbers.
struct WorkCounters {
  uint64_t updates_published = 0;
  uint64_t join_matches = 0;
  uint64_t reduce_evaluations = 0;
  uint64_t trace_spine_merges = 0;
  uint64_t frontier_rounds = 0;

  void Add(const gs::differential::DataflowStats& stats) {
    updates_published += stats.updates_published;
    join_matches += stats.join_matches;
    reduce_evaluations += stats.reduce_evaluations;
    trace_spine_merges += stats.trace_spine_merges;
  }
  bool operator==(const WorkCounters&) const = default;
  std::string ToString() const;
};

/// Compares an engine result map against its reference; returns an empty
/// string when equal, else a short description of the first difference.
std::string DiffResults(const gs::analytics::ResultMap& got,
                        const gs::analytics::ResultMap& want);

/// Line-oriented input files written by the generator.
std::vector<std::string> ReadLines(const std::string& path);
std::string ReadFile(const std::string& path);
void WriteFile(const std::string& path, const std::string& content);
/// `key value` lines of params.txt.
std::map<std::string, std::string> ReadParams(const std::string& path);

// Workload entry points.
void GenerateInputs(const Config& config);
void RunBatch(const Config& config, Outcome* out);
void RunLiveIngest(const Config& config, Outcome* out);
void RunServeMixed(const Config& config, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
