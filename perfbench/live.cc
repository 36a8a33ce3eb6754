// live_ingest: the write path. A WAL-backed graph, a maintainable
// collection of 4 nested recent windows and a live WCC; one closed-loop
// writer applies seeded 50-mutation batches, one epoch each.
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "algorithms/algorithms.h"
#include "api/graphsurge.h"
#include "common.h"
#include "graph/csv.h"
#include "graph/mutation.h"
#include "graph/wal/wal.h"
#include "gvdl/parser.h"
#include "sizes.h"
#include "views/collection.h"
#include "views/executor.h"
#include "views/live.h"

namespace perfbench {
namespace {

struct Inputs {
  std::string nodes;
  std::string edges;
  std::string gvdl;
  std::vector<gs::MutationBatch> batches;
};

std::vector<gs::MutationBatch> ReadBatches(const std::string& path) {
  std::vector<gs::MutationBatch> batches;
  for (const std::string& line : ReadLines(path)) {
    std::istringstream in(line);
    std::string kind;
    in >> kind;
    if (kind == "B") {
      batches.emplace_back();
      continue;
    }
    if (batches.empty()) throw std::runtime_error("mutation before batch");
    if (kind == "A") {
      uint64_t src, dst;
      int64_t ts, weight;
      in >> src >> dst >> ts >> weight;
      batches.back().push_back(gs::Mutation::AddEdge(
          src, dst, {gs::PropertyValue(ts), gs::PropertyValue(weight)}));
    } else if (kind == "S") {
      uint64_t edge;
      int64_t ts;
      in >> edge >> ts;
      batches.back().push_back(gs::Mutation::SetEdgeProperty(
          edge, "timestamp", gs::PropertyValue(ts)));
    } else if (kind == "R") {
      uint64_t edge;
      in >> edge;
      batches.back().push_back(gs::Mutation::RemoveEdge(edge));
    } else {
      throw std::runtime_error("bad mutation line: " + line);
    }
    if (!in) throw std::runtime_error("bad mutation line: " + line);
  }
  return batches;
}

gs::gvdl::ViewCollectionDef ParseCollection(const std::string& gvdl) {
  auto script = gs::gvdl::ParseScript(gvdl);
  if (!script.ok()) throw std::runtime_error(script.status().ToString());
  return std::get<gs::gvdl::ViewCollectionDef>(script.value().at(0));
}

void Check(const gs::Status& s, const std::string& what) {
  if (!s.ok()) throw std::runtime_error(what + ": " + s.ToString());
}

/// Setup through the facade: load, create the collection, attach the WAL,
/// start the live WCC and apply the warm-up epochs.
std::unique_ptr<gs::Graphsurge> Setup(const Inputs& in, const LiveSizes& sizes,
                                      const gs::analytics::Wcc& wcc,
                                      const std::string& wal_path) {
  auto system = std::make_unique<gs::Graphsurge>();
  Check(system->LoadGraphCsv("G", in.nodes, in.edges), "LoadGraphCsv");
  Check(system->Execute(in.gvdl), "Execute");
  Check(system->EnableWal("G", wal_path), "EnableWal");
  Check(system->StartLiveComputation("live", wcc, "L"), "StartLive");
  for (size_t i = 0; i < sizes.warmup_epochs; ++i) {
    Check(system->ApplyMutations("G", in.batches[i]), "warm-up epoch");
  }
  return system;
}

/// The facade's ApplyMutations, replicated through the public calls of
/// each layer so every layer can carry a span.
struct DirectPipeline {
  gs::PropertyGraph graph;
  gs::wal::WalWriter wal;
  gs::views::MaterializedCollection collection;
  std::unique_ptr<gs::views::LiveRun> run;

  void Apply(const gs::MutationBatch& batch, Spans* spans) {
    Check(gs::CheckMutationBatch(graph, batch), "CheckMutationBatch");
    {
      Spans::Scope span(spans, "graph.wal_append_s");
      Check(wal.Append(batch), "WalWriter::Append");
    }
    gs::MutationEffects effects;
    {
      Spans::Scope span(spans, "graph.apply_s");
      Check(gs::ApplyMutationBatch(&graph, batch, &effects),
            "ApplyMutationBatch");
    }
    {
      Spans::Scope span(spans, "views.update_collection_s");
      Check(gs::views::UpdateCollectionForMutations(&collection, graph,
                                                    effects.touched_edges),
            "UpdateCollectionForMutations");
    }
    Spans::Scope span(spans, "views.live_advance_s");
    Check(run->AdvanceEpoch(effects.touched_edges), "AdvanceEpoch");
  }
};

std::unique_ptr<DirectPipeline> SetupDirect(const Inputs& in,
                                            const LiveSizes& sizes,
                                            const gs::analytics::Wcc& wcc,
                                            const std::string& wal_path,
                                            Spans* spans) {
  auto direct = std::make_unique<DirectPipeline>();
  {
    Spans::Scope span(spans, "graph.csv_load_s");
    auto graph = gs::LoadGraphFromCsv(in.nodes, in.edges);
    Check(graph.status(), "LoadGraphFromCsv");
    direct->graph = std::move(graph).value();
  }
  gs::gvdl::ViewCollectionDef def;
  {
    Spans::Scope span(spans, "gvdl.parse_s");
    def = ParseCollection(in.gvdl);
  }
  gs::ThreadPool pool(1);
  gs::views::MaterializeOptions options;
  options.pool = &pool;
  auto mc = gs::views::MaterializeCollection(direct->graph, def, options);
  Check(mc.status(), "MaterializeCollection");
  direct->collection = std::move(mc).value();
  Check(direct->wal.Open(wal_path), "WalWriter::Open");
  gs::views::LiveRunOptions live_options;
  live_options.dataflow.num_workers = 1;
  auto run = gs::views::LiveRun::Start(wcc, direct->graph,
                                       &direct->collection, live_options);
  Check(run.status(), "LiveRun::Start");
  direct->run = std::move(run).value();
  Spans off;
  for (size_t i = 0; i < sizes.warmup_epochs; ++i) {
    direct->Apply(in.batches[i], &off);
  }
  return direct;
}

/// The last epoch of the live run must equal a from-scratch run over a
/// collection rematerialized from the mutated graph.
void CheckLastEpoch(const gs::Graphsurge& system, const Inputs& in,
                    const gs::analytics::Wcc& wcc, Outcome* out) {
  const gs::views::LiveRun* live = system.GetLiveRun("live").value();
  const gs::PropertyGraph& graph = *system.GetGraph("G").value();
  const uint32_t epoch = live->epochs_fed() - 1;
  auto fresh = gs::views::MaterializeCollection(
      graph, ParseCollection(in.gvdl), gs::views::MaterializeOptions());
  Check(fresh.status(), "MaterializeCollection");
  gs::views::ExecutionOptions options;
  options.capture_results = true;
  options.strategy = gs::splitting::Strategy::kScratch;
  auto scratch =
      gs::views::RunOnCollection(wcc, graph, fresh.value(), options);
  Check(scratch.status(), "RunOnCollection");
  const auto& maintained = *system.GetCollection("L").value();
  if (maintained.view_names != fresh.value().view_names) {
    out->Fail("maintained collection's view order differs from a fresh one");
    return;
  }
  for (size_t t = 0; t < live->num_views(); ++t) {
    auto got = live->ResultsAt(epoch, t);
    Check(got.status(), "ResultsAt");
    const std::string diff =
        DiffResults(got.value(), scratch.value().results[t]);
    if (!diff.empty()) {
      out->Fail("live epoch " + std::to_string(epoch) + " view " +
                fresh.value().view_names[t] +
                " differs from a from-scratch run: " + diff);
    }
  }
}

}  // namespace

void RunLiveIngest(const Config& config, Outcome* out) {
  const LiveSizes sizes = LiveSizesFor(config.smoke);
  Inputs in;
  in.nodes = config.dir + "/nodes.csv";
  in.edges = config.dir + "/edges.csv";
  in.gvdl = ReadFile(config.dir + "/collection.gvdl");
  in.batches = ReadBatches(config.dir + "/mutations.txt");
  const gs::analytics::Wcc wcc;

  // --- Setup, repeated; setup_s is the median. The repetitions but the
  // last run in child processes, each logging to its own WAL. An untraced
  // run adds one repetition per round of the window (below), so setup_s
  // samples the machine across the run, not only the moment before it.
  std::vector<double> setup_seconds;
  size_t child_setups = 0;
  auto setup_in_child = [&] {
    const std::string wal = config.dir + "/wal_child" +
                            std::to_string(++child_setups);
    setup_seconds.push_back(TimeSetupInChild([&] {
      // Released, not destroyed: the child exits without destructors.
      Setup(in, sizes, wcc, wal).release();
    }));
  };
  for (size_t r = 1; r < sizes.setup_reps && !config.trace; ++r) {
    setup_in_child();
  }
  auto wal_path = [&](size_t round) {
    return config.dir + "/wal_round" + std::to_string(round) + ".log";
  };
  size_t round = 0;
  const double setup_start = Now();
  std::unique_ptr<gs::Graphsurge> system =
      Setup(in, sizes, wcc, wal_path(round));
  setup_seconds.push_back(Now() - setup_start);

  Spans spans;
  std::unique_ptr<DirectPipeline> direct;
  auto setup_direct = [&] {
    if (!config.trace) return;
    spans.set_enabled(true);
    direct = SetupDirect(in, sizes, wcc,
                         wal_path(round) + ".direct", &spans);
    spans.TakeOpTotal();
  };
  setup_direct();

  // After a round: the last epoch must equal a from-scratch run, the WAL
  // must replay exactly the batches applied, and a traced run's direct
  // pipeline must agree with the facade. The round's WAL files are removed.
  auto check_round = [&](size_t applied) {
    const uint64_t failures_before = out->check_failures;
    CheckLastEpoch(*system, in, wcc, out);
    auto replay = gs::wal::ReplayWal(wal_path(round));
    Check(replay.status(), "ReplayWal");
    if (replay.value().batches.size() != applied) {
      out->Fail("WAL holds " + std::to_string(replay.value().batches.size()) +
                " batches, " + std::to_string(applied) + " were applied");
    }
    if (direct) {
      const gs::views::LiveRun* live = system->GetLiveRun("live").value();
      const uint32_t epoch = live->epochs_fed() - 1;
      for (size_t t = 0; t < live->num_views(); ++t) {
        if (live->ResultsAt(epoch, t).value() !=
            direct->run->ResultsAt(epoch, t).value()) {
          out->Fail("direct pipeline diverged from the facade at view " +
                    std::to_string(t));
        }
      }
    }
    if (out->check_failures > failures_before) ++out->failed;
    std::remove(wal_path(round).c_str());
    std::remove((wal_path(round) + ".direct").c_str());
  };

  // --- Timed window: one closed-loop writer, in rounds of `round_epochs`
  // epochs (sizes.h). Between rounds, untimed, the round is checked and a
  // fresh system is set up to replay the same batches. A traced run follows
  // every facade epoch with the same batch through the direct pipeline,
  // alternately traced and untraced.
  std::vector<double> facade_s, direct_s, traced_s, unattributed;
  std::vector<double> input_diffs, seal_frac, compaction_s, reduce_s, join_s;
  size_t next = sizes.warmup_epochs;
  double between_rounds = 0;
  const double start = Now();
  while (Now() - start - between_rounds < config.seconds) {
    if (next == in.batches.size()) {
      const double t0 = Now();
      check_round(next);
      system.reset();
      direct.reset();
      // No other thread runs now, as TimeSetupInChild requires.
      if (!config.trace) setup_in_child();
      ++round;
      system = Setup(in, sizes, wcc, wal_path(round));
      setup_direct();
      next = sizes.warmup_epochs;
      between_rounds += Now() - t0;
      continue;
    }
    const gs::MutationBatch& batch = in.batches[next++];
    const double t0 = Now();
    const gs::Status s = system->ApplyMutations("G", batch);
    const double seconds = Now() - t0;
    ++out->attempted;
    if (!s.ok()) {
      ++out->failed;
      out->Fail("ApplyMutations: " + s.ToString());
      break;
    }
    facade_s.push_back(seconds);
    if (!direct) continue;
    const bool traced = next % 2 == 0;
    spans.set_enabled(traced);
    const RegistryCounters counters_before = RegistryCounters::Read(1);
    const auto ops_before = direct->run->EngineStats().AggregatedOpNanos();
    const double d0 = Now();
    direct->Apply(batch, &spans);
    const double d = Now() - d0;
    if (!traced) {
      direct_s.push_back(d);
      continue;
    }
    traced_s.push_back(d);
    unattributed.push_back(1.0 - spans.TakeOpTotal() / d);
    input_diffs.push_back(direct->run->last_epoch_input_diffs());
    const auto& attr = direct->run->last_epoch_attribution();
    seal_frac.push_back(attr.total_ns() == 0
                            ? 0
                            : static_cast<double>(attr.seal_ns) /
                                  static_cast<double>(attr.total_ns()));
    compaction_s.push_back(
        RegistryCounters::Read(1).Minus(counters_before).compaction_nanos /
        1e9);
    double reduce = 0, join = 0;
    for (const auto& [name, nanos] :
         direct->run->EngineStats().AggregatedOpNanos()) {
      auto it = ops_before.find(name);
      const double delta =
          (nanos - (it == ops_before.end() ? 0 : it->second)) / 1e9;
      if (name.rfind("reduce", 0) == 0) reduce += delta;
      if (name.rfind("join", 0) == 0) join += delta;
    }
    reduce_s.push_back(reduce);
    join_s.push_back(join);
  }
  const double window = Now() - start - between_rounds;
  check_round(next);

  if (!config.trace) {
    ReportOps(facade_s, window, setup_seconds, PeakRssMb(), out);
    return;
  }
  auto& L = out->layers;
  L["graph.csv_load_s"] = spans.MedianOf("graph.csv_load_s");
  L["gvdl.parse_ms"] = spans.MedianOf("gvdl.parse_s") * 1e3;
  L["graph.wal_append_ms"] = spans.MedianOf("graph.wal_append_s") * 1e3;
  L["graph.apply_ms"] = spans.MedianOf("graph.apply_s") * 1e3;
  L["views.update_collection_ms"] =
      spans.MedianOf("views.update_collection_s") * 1e3;
  L["views.live_advance_ms"] = spans.MedianOf("views.live_advance_s") * 1e3;
  L["views.live_input_diffs"] = Median(input_diffs);
  L["differential.seal_frac"] = Median(seal_frac);
  L["differential.compaction_s"] = Median(compaction_s);
  L["differential.reduce_s"] = Median(reduce_s);
  L["differential.join_s"] = Median(join_s);
  L["api.overhead_ms"] = (Median(facade_s) - Median(direct_s)) * 1e3;
  L["trace.overhead_frac"] = Median(traced_s) / Median(direct_s) - 1.0;
  L["trace.unattributed_frac"] = Median(unattributed);
}

}  // namespace perfbench
