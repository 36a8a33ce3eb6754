// views_w1: the paper's core loop. Load a temporal graph from CSV, create a
// 16-window GVDL collection with the ordering optimizer on, then run jobs of
// WCC, PageRank and BFS over every view, differentially, at W=1. The same
// job on the sharded engine checks results and, in a traced run, measures
// the exchange and barrier layers.
#include <memory>
#include <stdexcept>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common.h"
#include "common/metrics.h"
#include "common/sched_profile.h"
#include "graph/csv.h"
#include "gvdl/parser.h"
#include "ordering/optimizer.h"
#include "sizes.h"
#include "views/diff_stream.h"
#include "views/ebm.h"
#include "views/executor.h"

namespace perfbench {
namespace {

namespace an = gs::analytics;

struct Inputs {
  std::string nodes;
  std::string edges;
  std::string gvdl;
  gs::VertexId bfs_source = 0;
};

/// The three computations of one job, in run order.
struct Job {
  explicit Job(const Inputs& in, unsigned pagerank_iterations)
      : pagerank(pagerank_iterations), bfs(in.bfs_source) {}
  an::Wcc wcc;
  an::PageRank pagerank;
  an::Bfs bfs;
  const an::Computation* at(size_t i) const {
    const an::Computation* all[3] = {&wcc, &pagerank, &bfs};
    return all[i];
  }
  static constexpr const char* kSpan[3] = {
      "algorithms.wcc_s", "algorithms.pagerank_s", "algorithms.bfs_s"};
};

struct JobRun {
  std::vector<gs::views::ExecutionResult> runs;  // one per computation
  WorkCounters counters;
  std::string error;  // empty when every run succeeded
};

uint64_t FrontierRounds() {
  return gs::metrics::Registry::Global()
      .GetCounter("gs_engine_frontier_rounds")
      ->Value();
}

/// Runs the job's three computations through `run(i)`, summing their work
/// counters; stops at the first error.
template <typename RunFn>
JobRun RunJob(const Job& job, RunFn run) {
  JobRun out;
  const uint64_t rounds = FrontierRounds();
  for (size_t i = 0; i < 3; ++i) {
    gs::StatusOr<gs::views::ExecutionResult> result = run(i);
    if (!result.ok()) {
      out.error = job.at(i)->name() + ": " + result.status().ToString();
      return out;
    }
    out.counters.Add(result.value().engine_stats);
    out.runs.push_back(std::move(result).value());
  }
  out.counters.frontier_rounds = FrontierRounds() - rounds;
  return out;
}

/// One job through the facade (api::Graphsurge::RunComputation).
JobRun FacadeJob(const gs::Graphsurge& system, const Job& job, bool capture) {
  return RunJob(job, [&](size_t i) {
    gs::views::ExecutionOptions options;
    options.capture_results = capture;
    return system.RunComputation(*job.at(i), "C", options);
  });
}

/// The same job through direct views:: calls, one span per computation.
JobRun DirectJob(const gs::PropertyGraph& graph,
                 const gs::views::MaterializedCollection& collection,
                 size_t workers, const Job& job, bool capture, Spans* spans) {
  return RunJob(job, [&](size_t i) {
    gs::views::ExecutionOptions options;
    options.capture_results = capture;
    options.dataflow.num_workers = workers;
    Spans::Scope span(spans, Job::kSpan[i]);
    return gs::views::RunOnCollection(*job.at(i), graph, collection, options);
  });
}

/// Per-view results of a captured job against the sequential oracles in
/// algorithms/reference.h.
void CheckOracles(const gs::PropertyGraph& graph,
                  const gs::views::MaterializedCollection& collection,
                  const Inputs& in, unsigned pagerank_iterations,
                  const JobRun& job, Outcome* out) {
  for (size_t t = 0; t < collection.num_views(); ++t) {
    std::vector<gs::WeightedEdge> edges;
    for (gs::EdgeId e : collection.diffs.Reconstruct(t)) {
      edges.push_back(graph.ResolveWeighted(e, -1));
    }
    const an::ResultMap want[3] = {
        an::WccReference(edges),
        an::PageRankReference(edges, pagerank_iterations),
        an::BfsReference(edges, in.bfs_source)};
    for (size_t i = 0; i < 3; ++i) {
      const std::string diff = DiffResults(job.runs[i].results[t], want[i]);
      if (!diff.empty()) {
        out->Fail(std::string(Job::kSpan[i]) + " view " +
                  collection.view_names[t] + " differs from the oracle: " +
                  diff);
      }
    }
  }
}

/// Setup: construct the system, load the CSV, create the collection and
/// run one warm-up job (captured, for the correctness checks).
std::unique_ptr<gs::Graphsurge> Setup(const Inputs& in, const Job& job,
                                      JobRun* warm) {
  gs::GraphsurgeOptions options;
  options.order_collections = true;
  auto system = std::make_unique<gs::Graphsurge>(options);
  gs::Status s = system->LoadGraphCsv("G", in.nodes, in.edges);
  if (!s.ok()) throw std::runtime_error("LoadGraphCsv: " + s.ToString());
  s = system->Execute(in.gvdl);
  if (!s.ok()) throw std::runtime_error("Execute: " + s.ToString());
  *warm = FacadeJob(*system, job, /*capture=*/true);
  return system;
}

/// The collection-creation layers timed one by one through their public
/// entry points (the facade runs the same sequence inside Execute).
void CreationLayers(const Inputs& in, size_t reps, Outcome* out) {
  Spans spans;
  spans.set_enabled(true);
  gs::ThreadPool pool(1);
  auto timed = [&spans](const char* name, auto fn) {
    Spans::Scope span(&spans, name);
    return fn();
  };
  double saved_frac = 0;
  for (size_t r = 0; r < reps; ++r) {
    auto graph = timed("graph.csv_load_s", [&] {
      return gs::LoadGraphFromCsv(in.nodes, in.edges);
    });
    if (!graph.ok()) throw std::runtime_error(graph.status().ToString());
    auto script =
        timed("gvdl.parse_s", [&] { return gs::gvdl::ParseScript(in.gvdl); });
    if (!script.ok()) throw std::runtime_error(script.status().ToString());
    const auto& def =
        std::get<gs::gvdl::ViewCollectionDef>(script.value().at(0));
    std::vector<gs::gvdl::ExprPtr> predicates;
    for (const auto& member : def.views) predicates.push_back(member.predicate);
    auto ebm = timed("views.ebm_build_s", [&] {
      return gs::views::EdgeBooleanMatrix::Compute(graph.value(), predicates,
                                                   &pool);
    });
    if (!ebm.ok()) throw std::runtime_error(ebm.status().ToString());
    const gs::ordering::OrderingResult order = timed("ordering.order_s", [&] {
      return gs::ordering::OrderCollection(ebm.value(), &pool);
    });
    timed("views.diff_stream_s", [&] {
      return gs::views::EdgeDifferenceStream::FromMatrix(ebm.value(),
                                                         order.order, &pool);
    });
    saved_frac = 1.0 - static_cast<double>(order.difference_count) /
                           static_cast<double>(order.identity_difference_count);
  }
  out->layers["graph.csv_load_s"] = spans.MedianOf("graph.csv_load_s");
  out->layers["gvdl.parse_ms"] = spans.MedianOf("gvdl.parse_s") * 1e3;
  out->layers["views.ebm_build_s"] = spans.MedianOf("views.ebm_build_s");
  out->layers["ordering.order_s"] = spans.MedianOf("ordering.order_s");
  out->layers["views.diff_stream_s"] = spans.MedianOf("views.diff_stream_s");
  out->layers["ordering.diffs_saved_frac"] = saved_frac;
}

uint64_t OpNanosWithPrefix(const gs::differential::DataflowStats& stats,
                           const std::string& prefix) {
  uint64_t total = 0;
  for (const auto& [name, nanos] : stats.AggregatedOpNanos()) {
    if (name.rfind(prefix, 0) == 0) total += nanos;
  }
  return total;
}

/// Per-layer figures of one traced job.
struct TracedJob {
  double reduce_s = 0, join_s = 0, spine_merge_s = 0, compaction_s = 0;
  double high_water_mb = 0, exchanged_bytes = 0, shard_skew = 0;
  RegistryCounters counters;
  WorkCounters work;
};

TracedJob Summarize(const JobRun& job, const RegistryCounters& delta) {
  TracedJob t;
  std::vector<uint64_t> events;
  for (const auto& run : job.runs) {
    const auto& stats = run.engine_stats;
    t.reduce_s += OpNanosWithPrefix(stats, "reduce") / 1e9;
    t.join_s += OpNanosWithPrefix(stats, "join") / 1e9;
    t.high_water_mb = std::max(
        t.high_water_mb, stats.trace_high_water_bytes / (1024.0 * 1024.0));
    t.exchanged_bytes += static_cast<double>(stats.exchanged_bytes);
    if (events.size() < run.per_worker_events.size()) {
      events.resize(run.per_worker_events.size(), 0);
    }
    for (size_t w = 0; w < run.per_worker_events.size(); ++w) {
      events[w] += run.per_worker_events[w];
    }
  }
  t.spine_merge_s = delta.spine_merge_nanos / 1e9;
  t.compaction_s = delta.compaction_nanos / 1e9;
  t.shard_skew = gs::sched::ComputeSkew(events).max_mean_ratio;
  t.counters = delta;
  t.work = job.counters;
  return t;
}

Inputs ReadInputs(const Config& config) {
  Inputs in;
  in.nodes = config.dir + "/nodes.csv";
  in.edges = config.dir + "/edges.csv";
  in.gvdl = ReadFile(config.dir + "/collection.gvdl");
  in.bfs_source =
      std::stoull(ReadParams(config.dir + "/params.txt").at("bfs_source"));
  return in;
}

}  // namespace

void RunBatch(const Config& config, Outcome* out) {
  const BatchSizes sizes = BatchSizesFor(config.smoke);
  const Inputs in = ReadInputs(config);
  const Job job(in, sizes.pagerank_iterations);
  const size_t sharded = sizes.sharded_workers;

  // --- Setup, repeated; setup_s is the median. The repetitions but the
  // last run in child processes; this process keeps the last system.
  std::vector<double> setup_seconds;
  for (size_t r = 1; r < sizes.setup_reps && !config.trace; ++r) {
    setup_seconds.push_back(TimeSetupInChild([&] {
      JobRun warm;
      // Released, not destroyed: teardown is not part of setup, and the
      // child exits without running destructors.
      Setup(in, job, &warm).release();
      if (!warm.error.empty()) throw std::runtime_error(warm.error);
    }));
  }
  JobRun warm;
  const double setup_start = Now();
  std::unique_ptr<gs::Graphsurge> system = Setup(in, job, &warm);
  setup_seconds.push_back(Now() - setup_start);
  ++out->attempted;
  if (!warm.error.empty()) {
    ++out->failed;
    out->Fail("warm-up job: " + warm.error);
    return;
  }
  const gs::PropertyGraph& graph = *system->GetGraph("G").value();
  const gs::views::MaterializedCollection& collection =
      *system->GetCollection("C").value();
  uint64_t failures_before = out->check_failures;
  CheckOracles(graph, collection, in, sizes.pagerank_iterations, warm, out);
  if (out->check_failures > failures_before) ++out->failed;

  // --- Timed window: closed loop of W=1 jobs through the facade. A traced
  // run rotates four variants: the facade job, the direct job untraced, the
  // direct job traced, and the direct job traced on the sharded engine
  // (W = sharded_workers), whose exchange, barrier and skew figures only
  // exist at W>1.
  Spans spans;
  std::vector<double> facade_s, direct_s, traced_s, unattributed;
  std::vector<TracedJob> traced, traced_sharded;
  const double start = Now();
  for (size_t n = 0; Now() - start < config.seconds || n < sizes.min_ops;
       ++n) {
    const int variant = config.trace ? static_cast<int>(n % 4) : 0;
    const size_t workers = variant == 3 ? sharded : 1;
    spans.set_enabled(variant == 2);
    const RegistryCounters before =
        variant >= 2 ? RegistryCounters::Read(workers) : RegistryCounters();
    const double t0 = Now();
    JobRun run = variant == 0
                     ? FacadeJob(*system, job, false)
                     : DirectJob(graph, collection, workers, job, false,
                                 &spans);
    const double seconds = Now() - t0;
    ++out->attempted;
    if (!run.error.empty()) {
      ++out->failed;
      out->Fail("job: " + run.error);
      continue;
    }
    // W=1 work is deterministic: every job must repeat the warm-up's.
    if (workers == 1 && !(run.counters == warm.counters)) {
      ++out->failed;
      out->Fail("timed job work counters " + run.counters.ToString() +
                " differ from the warm-up's " + warm.counters.ToString());
      continue;
    }
    const RegistryCounters delta =
        variant >= 2 ? RegistryCounters::Read(workers).Minus(before)
                     : RegistryCounters();
    if (variant == 0) facade_s.push_back(seconds);
    if (variant == 1) direct_s.push_back(seconds);
    if (variant == 2) {
      traced_s.push_back(seconds);
      unattributed.push_back(1.0 - spans.TakeOpTotal() / seconds);
      traced.push_back(Summarize(run, delta));
    }
    if (variant == 3) traced_sharded.push_back(Summarize(run, delta));
  }
  const double window = Now() - start;
  const double peak_rss_mb = PeakRssMb();

  // The sharded engine's results must equal the W=1 warm-up's, view by view.
  {
    Spans off;
    JobRun check = DirectJob(graph, collection, sharded, job, true, &off);
    ++out->attempted;
    failures_before = out->check_failures;
    if (!check.error.empty()) {
      out->Fail("W=" + std::to_string(sharded) + " job: " + check.error);
    }
    for (size_t i = 0; i < check.runs.size(); ++i) {
      for (size_t t = 0; t < collection.num_views(); ++t) {
        const std::string diff =
            DiffResults(check.runs[i].results[t], warm.runs[i].results[t]);
        if (!diff.empty()) {
          out->Fail(std::string(Job::kSpan[i]) + " view " +
                    collection.view_names[t] + " at W=" +
                    std::to_string(sharded) + " differs from W=1: " + diff);
        }
      }
    }
    if (out->check_failures > failures_before) ++out->failed;
  }

  if (!config.trace) {
    ReportOps(facade_s, window, setup_seconds, peak_rss_mb, out);
    return;
  }

  CreationLayers(in, sizes.setup_reps, out);
  auto& L = out->layers;
  L["views.total_diffs"] = static_cast<double>(collection.total_diffs);
  for (const char* name : Job::kSpan) L[name] = spans.MedianOf(name);
  auto median_of = [](const std::vector<TracedJob>& jobs, auto field) {
    std::vector<double> v;
    for (const TracedJob& t : jobs) v.push_back(field(t));
    return Median(v);
  };
  // Operator times and work counts of one W=1 job (the counts are exact:
  // every job repeats them).
  L["differential.reduce_s"] =
      median_of(traced, [](auto& t) { return t.reduce_s; });
  L["differential.join_s"] = median_of(traced, [](auto& t) { return t.join_s; });
  L["differential.spine_merge_s"] =
      median_of(traced, [](auto& t) { return t.spine_merge_s; });
  L["differential.compaction_s"] =
      median_of(traced, [](auto& t) { return t.compaction_s; });
  L["differential.trace_high_water_mb"] =
      median_of(traced, [](auto& t) { return t.high_water_mb; });
  L["differential.updates_published"] = warm.counters.updates_published;
  L["differential.join_matches"] = warm.counters.join_matches;
  L["differential.reduce_evaluations"] = warm.counters.reduce_evaluations;
  L["differential.trace_spine_merges"] = warm.counters.trace_spine_merges;
  L["differential.frontier_rounds"] = warm.counters.frontier_rounds;
  // The sharded engine: exchange volume, skew, W>1 work inflation and where
  // the workers' time went.
  L["differential.exchanged_bytes"] =
      median_of(traced_sharded, [](auto& t) { return t.exchanged_bytes; });
  L["differential.shard_skew"] =
      median_of(traced_sharded, [](auto& t) { return t.shard_skew; });
  L["differential.reduce_inflation"] =
      median_of(traced_sharded,
                [](auto& t) { return 1.0 * t.work.reduce_evaluations; }) /
      static_cast<double>(warm.counters.reduce_evaluations);
  uint64_t states[5] = {0, 0, 0, 0, 0};
  uint64_t total = 0;
  for (const TracedJob& t : traced_sharded) {
    for (size_t s = 0; s < 5; ++s) {
      states[s] += t.counters.sched[s];
      total += t.counters.sched[s];
    }
  }
  const char* kShare[5] = {"differential.busy_frac", "differential.exchange_frac",
                           "differential.barrier_frac", "differential.seal_frac",
                           "differential.idle_frac"};
  for (size_t s = 0; s < 5; ++s) {
    L[kShare[s]] = total == 0 ? 0 : static_cast<double>(states[s]) / total;
  }
  L["api.overhead_ms"] = (Median(facade_s) - Median(direct_s)) * 1e3;
  L["trace.overhead_frac"] = Median(traced_s) / Median(direct_s) - 1.0;
  L["trace.unattributed_frac"] = Median(unattributed);
}

}  // namespace perfbench
