// perfbench: the repository benchmark's binary. run.py builds it and calls
//   perfbench gen --workload W --seed N --dir D [--smoke]
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--smoke] [--git-sha SHA] [--cleared-env A,B]
// `run` prints a meta line, one line per metric, and as its last line the
// result object {"correct", "attempted", "failed", "metrics"}. It exits 1
// when a correctness check failed and 2 on a usage or setup error.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "sizes.h"

extern char** environ;

namespace perfbench {
namespace {

/// A seed never used while the benchmark or a change is tuned: gain claims
/// are confirmed on it (README.md).
constexpr uint64_t kHeldOutSeed = 9001;

struct LayerMetric {
  const char* name;
  const char* unit;
};

/// Every per-layer metric a traced run reports, in BENCHMARK.json order.
/// A layer a workload does not exercise reads 0 there.
constexpr LayerMetric kLayerMetrics[] = {
    {"graph.csv_load_s", "s"},
    {"graph.wal_append_ms", "ms"},
    {"graph.apply_ms", "ms"},
    {"gvdl.parse_ms", "ms"},
    {"views.ebm_build_s", "s"},
    {"views.diff_stream_s", "s"},
    {"views.total_diffs", "count"},
    {"views.update_collection_ms", "ms"},
    {"views.live_advance_ms", "ms"},
    {"views.live_input_diffs", "count"},
    {"ordering.order_s", "s"},
    {"ordering.diffs_saved_frac", "frac"},
    {"algorithms.wcc_s", "s"},
    {"algorithms.pagerank_s", "s"},
    {"algorithms.bfs_s", "s"},
    {"differential.reduce_s", "s"},
    {"differential.join_s", "s"},
    {"differential.spine_merge_s", "s"},
    {"differential.compaction_s", "s"},
    {"differential.updates_published", "count"},
    {"differential.join_matches", "count"},
    {"differential.reduce_evaluations", "count"},
    {"differential.trace_spine_merges", "count"},
    {"differential.frontier_rounds", "count"},
    {"differential.trace_high_water_mb", "MB"},
    {"differential.busy_frac", "frac"},
    {"differential.exchange_frac", "frac"},
    {"differential.barrier_frac", "frac"},
    {"differential.seal_frac", "frac"},
    {"differential.idle_frac", "frac"},
    {"differential.exchanged_bytes", "bytes"},
    {"differential.shard_skew", "ratio"},
    {"differential.reduce_inflation", "ratio"},
    {"differential.arrcache_hit_ratio", "frac"},
    {"api.overhead_ms", "ms"},
    {"server.read_ms", "ms"},
    {"server.create_ms", "ms"},
    {"server.collection_run_ms", "ms"},
    {"server.results_ms", "ms"},
    {"server.overhead_ms", "ms"},
    {"server.rejected", "count"},
    {"trace.unattributed_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

void PrintMeta(const Config& config, const std::string& git_sha,
               const std::string& cleared_env) {
  const size_t nproc = std::thread::hardware_concurrency();
  // Timed ops run the engine at W=1; views_w1 also runs the sharded engine
  // (results check, traced variant).
  const size_t workers = config.workload == "views_w1"
                             ? BatchSizesFor(config.smoke).sharded_workers
                             : 1;
  std::string cleared = "[";
  size_t begin = 0;
  while (begin < cleared_env.size()) {
    size_t end = cleared_env.find(',', begin);
    if (end == std::string::npos) end = cleared_env.size();
    if (cleared.size() > 1) cleared += ", ";
    cleared += JsonString(cleared_env.substr(begin, end - begin));
    begin = end + 1;
  }
  cleared += "]";
  std::printf(
      "{\"meta\": {\"workload\": %s, \"seed\": %llu, \"held_out_seed\": %llu, "
      "\"max_workers\": %zu, \"nproc\": %zu, \"oversubscribed\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"git_sha\": %s, "
      "\"smoke\": %s, \"trace\": %s, \"seconds\": %s, "
      "\"graphsurge_env_cleared\": %s}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      static_cast<unsigned long long>(kHeldOutSeed), workers, nproc,
      workers > nproc ? "true" : "false",
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(PERFBENCH_CXX_COMPILER).c_str(), JsonString(git_sha).c_str(),
      config.smoke ? "true" : "false", config.trace ? "true" : "false",
      JsonNumber(config.seconds).c_str(), cleared.c_str());
}

void PrintResult(const Config& config, const Outcome& out) {
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    std::printf("%-34s %16.6f %s\n", name.c_str(), value, unit.c_str());
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
               ", \"unit\": " + JsonString(unit) + "}";
  };
  if (config.trace) {
    for (const LayerMetric& m : kLayerMetrics) {
      auto it = out.layers.find(m.name);
      add(m.name, it == out.layers.end() ? 0.0 : it->second, m.unit);
    }
    for (const auto& [name, value] : out.layers) {
      bool known = false;
      for (const LayerMetric& m : kLayerMetrics) known |= name == m.name;
      if (!known) Usage(("unlisted layer metric " + name).c_str());
    }
  } else {
    for (const Outcome::Metric& m : out.info) {
      std::printf("%-34s %16.6f %s (reference only)\n", m.name.c_str(),
                  m.value, m.unit.c_str());
    }
    for (const Outcome::Metric& m : out.e2e) add(m.name, m.value, m.unit);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), metrics.c_str());
  std::fflush(stdout);
}

int Main(int argc, char** argv) {
  if (argc < 2) Usage("expected a mode: gen | run");
  const std::string mode = argv[1];
  Config config;
  std::string git_sha = "unknown";
  std::string cleared_env;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      config.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--dir") {
      config.dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--cleared-env") {
      cleared_env = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.dir.empty()) Usage("--dir is required");
  if (config.workload != "views_w1" && config.workload != "live_ingest" &&
      config.workload != "serve_mixed") {
    Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  if (mode == "gen") {
    GenerateInputs(config);
    return 0;
  }
  if (mode != "run") Usage("expected a mode: gen | run");
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    Usage("refusing to measure a non-Release build");
  }
  for (char** env = environ; *env != nullptr; ++env) {
    // The library reads these at start-up; a measured run must see none.
    if (std::strncmp(*env, "GRAPHSURGE_", 11) == 0) {
      Usage(("environment must not set GRAPHSURGE_* (found " +
             std::string(*env) + ")")
                .c_str());
    }
  }
  PrintMeta(config, git_sha, cleared_env);
  Outcome out;
  if (config.workload == "live_ingest") {
    RunLiveIngest(config, &out);
  } else if (config.workload == "serve_mixed") {
    RunServeMixed(config, &out);
  } else {
    RunBatch(config, &out);
  }
  if (out.attempted == 0) Usage("no op was attempted");
  PrintResult(config, out);
  return out.correct() && out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
