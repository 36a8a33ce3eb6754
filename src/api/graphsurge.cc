#include "api/graphsurge.h"

#include <atomic>
#include <iomanip>
#include <sstream>

#include "common/crash_dump.h"
#include "differential/arrcache.h"
#include "common/introspect.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/timer.h"
#include "common/timeseries.h"
#include "common/watchdog.h"
#include "server/status_server.h"

namespace gs {

namespace {

/// The Graphsurge instance currently backing /profilez. The handler lambda
/// registered on the (never-destroyed) global status server must not
/// capture a raw `this`, so instances check in/out of this slot instead;
/// the newest live instance wins the endpoint.
std::mutex g_profilez_mutex;
const Graphsurge* g_profilez_system = nullptr;

/// Monotone instance numbering for arrangement-cache scopes: a system's
/// scopes must never alias another instance's (live or destroyed), even for
/// graphs with equal names at equal epochs.
std::atomic<uint64_t> g_next_instance_id{1};

}  // namespace

Graphsurge::Graphsurge(GraphsurgeOptions options)
    : options_(options),
      instance_id_(g_next_instance_id.fetch_add(1)),
      pool_(std::make_unique<ThreadPool>(
          options.num_workers == 0 ? 1 : options.num_workers)),
      ingest_source_("ingest", [this] {
        std::lock_guard<std::mutex> lock(ingest_status_mutex_);
        return ingest_status_json_;
      }) {
  // A dying run should leave its flight recorder behind (no-ops under
  // sanitizer runtimes, which install their own handlers first).
  InstallCrashHandlers();
  server::StatusServer::MaybeStartFromEnv();
  // The health plane is opt-in the same way the status server is: sampling
  // on GRAPHSURGE_SAMPLE_MS, the watchdog on GRAPHSURGE_WATCHDOG.
  timeseries::Sampler::MaybeStartFromEnv();
  watchdog::Watchdog::MaybeStartFromEnv();
  {
    std::lock_guard<std::mutex> lock(g_profilez_mutex);
    g_profilez_system = this;
  }
  server::StatusServer::Global().Handle("/profilez", [] {
    server::HttpResponse r;
    std::lock_guard<std::mutex> lock(g_profilez_mutex);
    r.body = g_profilez_system != nullptr
                 ? g_profilez_system->Profile()
                 : std::string("no live Graphsurge instance\n");
    return r;
  });
}

Graphsurge::~Graphsurge() {
  // Teardown-zero: every cached arrangement this instance's graphs seeded
  // is dropped (scopes all carry the instance prefix), so the arrcache
  // byte gauge returns to zero once in-flight readers release their pins.
  differential::ArrangementCache::Global().InvalidateScopePrefix(
      "gs" + std::to_string(instance_id_) + "/");
  std::lock_guard<std::mutex> lock(g_profilez_mutex);
  if (g_profilez_system == this) g_profilez_system = nullptr;
}

std::string Graphsurge::CacheScopeFor(const std::string& graph_name,
                                      uint64_t epoch) const {
  return "gs" + std::to_string(instance_id_) + "/" + graph_name + "@" +
         std::to_string(epoch);
}

std::string Graphsurge::ArrangementCacheScope(
    const std::string& graph_name) const {
  auto it = graphs_.find(graph_name);
  const uint64_t epoch =
      it == graphs_.end() ? 0 : it->second.mutation_epoch();
  return CacheScopeFor(graph_name, epoch);
}

Status Graphsurge::CheckNameFree(const std::string& name) const {
  if (graphs_.count(name) || collections_.count(name) ||
      aggregate_views_.count(name)) {
    return Status::AlreadyExists("name '" + name + "' is already in use");
  }
  return Status::Ok();
}

Status Graphsurge::LoadGraphCsv(const std::string& name,
                                const std::string& nodes_path,
                                const std::string& edges_path) {
  GS_RETURN_IF_ERROR(CheckNameFree(name));
  GS_ASSIGN_OR_RETURN(PropertyGraph graph,
                      LoadGraphFromCsv(nodes_path, edges_path));
  graphs_.emplace(name, std::move(graph));
  return Status::Ok();
}

Status Graphsurge::AddGraph(const std::string& name, PropertyGraph graph) {
  GS_RETURN_IF_ERROR(CheckNameFree(name));
  GS_RETURN_IF_ERROR(graph.Validate());
  graphs_.emplace(name, std::move(graph));
  return Status::Ok();
}

StatusOr<const PropertyGraph*> Graphsurge::GetGraph(
    const std::string& name) const {
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph or view named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::Execute(const std::string& gvdl) {
  GS_ASSIGN_OR_RETURN(std::vector<gvdl::Statement> statements,
                      gvdl::ParseScript(gvdl));
  for (const gvdl::Statement& statement : statements) {
    if (const auto* fv = std::get_if<gvdl::FilteredViewDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(fv->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, GetGraph(fv->on));
      GS_ASSIGN_OR_RETURN(
          PropertyGraph view,
          views::MaterializeFilteredView(*base, fv->predicate, pool_.get()));
      graphs_.emplace(fv->name, std::move(view));
    } else if (const auto* vc =
                   std::get_if<gvdl::ViewCollectionDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(vc->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, GetGraph(vc->on));
      views::MaterializeOptions mopts;
      mopts.use_ordering = options_.order_collections;
      mopts.pool = pool_.get();
      GS_ASSIGN_OR_RETURN(views::MaterializedCollection mc,
                          views::MaterializeCollection(*base, *vc, mopts));
      collections_.emplace(vc->name, std::move(mc));
    } else if (const auto* av =
                   std::get_if<gvdl::AggregateViewDef>(&statement)) {
      GS_RETURN_IF_ERROR(CheckNameFree(av->name));
      GS_ASSIGN_OR_RETURN(const PropertyGraph* base, GetGraph(av->on));
      GS_ASSIGN_OR_RETURN(agg::AggregateView result,
                          agg::ComputeAggregateView(*base, *av, pool_.get()));
      aggregate_views_.emplace(av->name, std::move(result));
    } else if (const auto* ex = std::get_if<gvdl::ExplainDef>(&statement)) {
      GS_ASSIGN_OR_RETURN(std::string text, ExplainCollection(ex->target));
      GS_LOG(Info) << "EXPLAIN " << ex->target << "\n" << text;
    }
  }
  return Status::Ok();
}

StatusOr<const views::MaterializedCollection*> Graphsurge::GetCollection(
    const std::string& name) const {
  auto it = collections_.find(name);
  if (it == collections_.end()) {
    return Status::NotFound("no view collection named '" + name + "'");
  }
  return &it->second;
}

StatusOr<const agg::AggregateView*> Graphsurge::GetAggregateView(
    const std::string& name) const {
  auto it = aggregate_views_.find(name);
  if (it == aggregate_views_.end()) {
    return Status::NotFound("no aggregate view named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::CreateCollection(
    const std::string& name, const std::string& base_graph,
    const std::vector<std::string>& view_names,
    const std::vector<std::function<bool(EdgeId)>>& predicates,
    const views::MaterializeOptions* materialize_options) {
  GS_RETURN_IF_ERROR(CheckNameFree(name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base, GetGraph(base_graph));
  views::MaterializeOptions mopts;
  if (materialize_options != nullptr) {
    mopts = *materialize_options;
  } else {
    mopts.use_ordering = options_.order_collections;
  }
  if (mopts.pool == nullptr) mopts.pool = pool_.get();
  GS_ASSIGN_OR_RETURN(
      views::MaterializedCollection mc,
      views::MaterializeCollectionWith(*base, name, view_names, predicates,
                                       mopts));
  mc.base_graph = base_graph;
  collections_.emplace(name, std::move(mc));
  return Status::Ok();
}

StatusOr<views::ExecutionResult> Graphsurge::RunComputation(
    const analytics::Computation& computation,
    const std::string& collection_name,
    views::ExecutionOptions options) const {
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      GetCollection(collection_name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base,
                      GetGraph(collection->base_graph));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  StatusOr<views::ExecutionResult> result =
      views::RunOnCollection(computation, *base, *collection, options);
  if (result.ok()) {
    // Keep the run's metadata (not the captured results — those can be the
    // size of the collection) for Profile() and Explain(): set the results
    // aside while copying the rest.
    std::vector<analytics::ResultMap> results = std::move(result->results);
    result->results.clear();
    auto run = std::make_shared<const views::ExecutionResult>(*result);
    result->results = std::move(results);
    std::lock_guard<std::mutex> lock(run_state_mutex_);
    last_run_ = run;
    last_runs_[collection_name] = std::move(run);
  }
  return result;
}

std::string Graphsurge::Profile() const {
  std::shared_ptr<const views::ExecutionResult> run;
  {
    std::lock_guard<std::mutex> lock(run_state_mutex_);
    run = last_run_;
  }
  std::string report = run != nullptr ? run->Profile() : std::string();
  report += "\n";
  report += metrics::Registry::Global().ExpositionText();
  return report;
}

Status Graphsurge::StartStatusServer(uint16_t port) {
  return server::StatusServer::Global().Start(port);
}

StatusOr<std::string> Graphsurge::Explain(const std::string& target) const {
  // Accept either a bare collection name or an `explain <name>` statement.
  std::string name = target;
  if (target.find(' ') != std::string::npos ||
      target.find('\n') != std::string::npos) {
    GS_ASSIGN_OR_RETURN(gvdl::Statement statement, gvdl::Parse(target));
    const auto* ex = std::get_if<gvdl::ExplainDef>(&statement);
    if (ex == nullptr) {
      return Status::InvalidArgument(
          "Explain() expects an 'explain <collection>' statement");
    }
    name = ex->target;
  }
  return ExplainCollection(name);
}

StatusOr<std::string> Graphsurge::ExplainCollection(
    const std::string& name) const {
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      GetCollection(name));

  // Snapshot the last run for this collection, if any.
  std::shared_ptr<const views::ExecutionResult> run;
  {
    std::lock_guard<std::mutex> lock(run_state_mutex_);
    auto it = last_runs_.find(name);
    if (it != last_runs_.end()) run = it->second;
  }
  const bool has_run = run != nullptr;

  std::ostringstream out;
  out << std::fixed;
  out << "collection " << collection->name << " on " << collection->base_graph
      << " (" << collection->num_views() << " views)\n";
  out << "order source: " << collection->order_source
      << "  estimated ds(B,sigma)=" << collection->total_diffs
      << "  identity ds=" << collection->identity_ds;
  if (collection->identity_ds > 0 &&
      collection->total_diffs < collection->identity_ds) {
    out << std::setprecision(1) << "  ("
        << 100.0 * (1.0 - static_cast<double>(collection->total_diffs) /
                              static_cast<double>(collection->identity_ds))
        << "% fewer diffs than user-given order)";
  }
  out << "\n";
  if (collection->ordering_seconds > 0) {
    out << std::setprecision(3)
        << "ordering overhead: " << collection->ordering_seconds * 1e3
        << " ms of " << collection->creation_seconds * 1e3 << " ms CCT\n";
  }

  // Per-position plan: the view at each position with the optimizer's
  // estimated |GV_t| and |δC_t| (the per-adjacent-pair ds contribution),
  // joined with the last run's actual counts when available.
  out << "\n" << std::left << std::setw(5) << "pos" << std::setw(14) << "view"
      << std::setw(7) << "def#" << std::right << std::setw(12) << "est |GV|"
      << std::setw(12) << "est |dC|";
  if (has_run) {
    out << std::setw(10) << "mode" << std::setw(12) << "actual in"
        << std::setw(12) << "actual out" << std::setw(10) << "ms";
  }
  out << "\n";
  for (size_t t = 0; t < collection->num_views(); ++t) {
    out << std::left << std::setw(5) << t << std::setw(14)
        << collection->view_names[t] << std::setw(7) << collection->order[t]
        << std::right << std::setw(12) << collection->view_sizes[t]
        << std::setw(12) << collection->diff_sizes[t];
    if (has_run && t < run->per_view.size()) {
      const views::ViewRunStats& v = run->per_view[t];
      out << std::setw(10) << (v.ran_scratch ? "scratch" : "diff")
          << std::setw(12) << v.input_size << std::setw(12) << v.output_diffs
          << std::setprecision(3) << std::setw(10) << v.seconds * 1e3;
    }
    out << "\n";
  }

  if (has_run) {
    out << "\nlast run: strategy=" << splitting::StrategyName(run->strategy)
        << " chunk_size=" << run->chunk_size << " splits=" << run->num_splits
        << std::setprecision(3) << " total_ms=" << run->total_seconds * 1e3
        << "\n";
    if (!run->chunk_decisions.empty()) {
      out << std::left << std::setw(12) << "chunk" << std::setw(10)
          << "choice" << std::right << std::setw(16) << "pred scratch s"
          << std::setw(14) << "pred diff s" << "  basis\n";
      for (const views::ChunkDecision& d : run->chunk_decisions) {
        out << std::left << std::setw(12)
            << ("[" + std::to_string(d.begin) + "," +
                std::to_string(d.end) + ")")
            << std::setw(10) << (d.scratch ? "scratch" : "diff");
        out << std::right << std::setprecision(6) << std::setw(16);
        if (d.from_model) {
          out << d.predicted_scratch_seconds << std::setw(14)
              << d.predicted_diff_seconds << "  cost-model";
        } else {
          out << "-" << std::setw(14) << "-"
              << (run->strategy == splitting::Strategy::kAdaptive
                      ? "  bootstrap"
                      : "  fixed strategy");
        }
        out << "\n";
      }
    }
  } else {
    out << "\nno recorded run for this collection yet — RunComputation() "
           "fills in actual per-view diff counts and splitting decisions\n";
  }
  return out.str();
}

StatusOr<analytics::ResultMap> Graphsurge::RunOnView(
    const analytics::Computation& computation, const std::string& name,
    views::ExecutionOptions options) const {
  GS_ASSIGN_OR_RETURN(const PropertyGraph* graph, GetGraph(name));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  if (options.arrangement_cache_scope.empty()) {
    options.arrangement_cache_scope =
        CacheScopeFor(name, graph->mutation_epoch());
  }
  return views::RunOnGraph(computation, *graph, options);
}

// --- Streaming ingest ------------------------------------------------------

StatusOr<PropertyGraph*> Graphsurge::GetMutableGraph(const std::string& name) {
  auto it = graphs_.find(name);
  if (it == graphs_.end()) {
    return Status::NotFound("no graph named '" + name + "'");
  }
  return &it->second;
}

Status Graphsurge::ApplyBatchInternal(const std::string& graph_name,
                                      PropertyGraph* graph,
                                      const MutationBatch& batch) {
  // Arrangements cached for the pre-mutation epoch describe a graph that no
  // longer exists; drop them (in-flight readers keep their pinned
  // snapshots). Post-mutation runs key under the bumped epoch and rebuild.
  const std::string stale_scope =
      CacheScopeFor(graph_name, graph->mutation_epoch());
  MutationEffects effects;
  GS_RETURN_IF_ERROR(ApplyMutationBatch(graph, batch, &effects));
  differential::ArrangementCache::Global().InvalidateScope(stale_scope);

  // Maintain every collection over this graph before advancing its live
  // runs: LiveRun::AdvanceEpoch requires the refreshed collection.
  for (auto& [name, mc] : collections_) {
    if (mc.base_graph != graph_name) continue;
    if (!mc.maintainable()) {
      GS_LOG(Warning) << "collection '" << name
                      << "' cannot be incrementally maintained (no stored "
                         "predicates); it is now stale (graph epoch "
                      << graph->mutation_epoch() << ", collection epoch "
                      << mc.graph_epoch << ")";
      continue;
    }
    GS_RETURN_IF_ERROR(views::UpdateCollectionForMutations(
        &mc, *graph, effects.touched_edges));
  }
  for (auto& [name, entry] : live_runs_) {
    if (entry.base_graph != graph_name) continue;
    GS_RETURN_IF_ERROR(entry.run->AdvanceEpoch(effects.touched_edges));
  }

  static metrics::Counter* batches =
      metrics::Registry::Global().GetCounter("gs_ingest_batches");
  static metrics::Counter* mutations =
      metrics::Registry::Global().GetCounter("gs_ingest_mutations");
  batches->Increment();
  mutations->Increment(batch.size());
  metrics::Registry::Global()
      .GetGauge("gs_graph_epoch", {{"graph", graph_name}})
      ->Set(static_cast<int64_t>(graph->mutation_epoch()));
  return Status::Ok();
}

Status Graphsurge::EnableWal(const std::string& graph_name,
                             const std::string& wal_path,
                             wal::WalWriterOptions wal_options) {
  GS_ASSIGN_OR_RETURN(PropertyGraph* graph, GetMutableGraph(graph_name));
  if (wals_.count(graph_name) > 0) {
    return Status::AlreadyExists("graph '" + graph_name +
                                 "' already has a WAL attached");
  }
  GS_ASSIGN_OR_RETURN(wal::WalReplayResult replay, wal::ReplayWal(wal_path));
  for (size_t i = 0; i < replay.batches.size(); ++i) {
    Status s = ApplyBatchInternal(graph_name, graph, replay.batches[i]);
    if (!s.ok()) {
      return Status(s.code(), "WAL replay failed at record " +
                                  std::to_string(i) + ": " + s.message());
    }
  }
  if (replay.recovered_torn_tail) {
    GS_LOG(Warning) << "WAL '" << wal_path << "': dropped torn tail after "
                    << replay.batches.size() << " complete records";
  }
  GS_RETURN_IF_ERROR(wals_[graph_name].Open(wal_path, wal_options));
  RefreshIngestStatus();
  return Status::Ok();
}

Status Graphsurge::ApplyMutations(const std::string& graph_name,
                                  const MutationBatch& batch) {
  Timer apply_timer;
  GS_ASSIGN_OR_RETURN(PropertyGraph* graph, GetMutableGraph(graph_name));
  // Validate up front so the WAL never records a batch the apply rejects
  // (the write-ahead append must strictly precede an apply that cannot
  // fail).
  GS_RETURN_IF_ERROR(CheckMutationBatch(*graph, batch));
  auto wal_it = wals_.find(graph_name);
  if (wal_it != wals_.end()) {
    GS_RETURN_IF_ERROR(wal_it->second.Append(batch));
  }
  GS_RETURN_IF_ERROR(ApplyBatchInternal(graph_name, graph, batch));
  RefreshIngestStatus();
  // SLO: the full ingest round trip — validate, WAL append (+fsync), graph
  // apply, view maintenance, and every dependent live-run epoch advance.
  static auto* apply_nanos =
      metrics::Registry::Global().GetHistogram("gs_ingest_apply_nanos");
  apply_nanos->Observe(static_cast<uint64_t>(apply_timer.Nanos()));
  return Status::Ok();
}

StatusOr<uint64_t> Graphsurge::GraphEpoch(const std::string& graph_name) const {
  GS_ASSIGN_OR_RETURN(const PropertyGraph* graph, GetGraph(graph_name));
  return graph->mutation_epoch();
}

Status Graphsurge::StartLiveComputation(
    const std::string& name, const analytics::Computation& computation,
    const std::string& collection_name, views::LiveRunOptions options) {
  if (live_runs_.count(name) > 0) {
    return Status::AlreadyExists("live computation '" + name +
                                 "' already exists");
  }
  GS_ASSIGN_OR_RETURN(const views::MaterializedCollection* collection,
                      GetCollection(collection_name));
  GS_ASSIGN_OR_RETURN(const PropertyGraph* base,
                      GetGraph(collection->base_graph));
  if (options.dataflow.num_workers == 0) {
    options.dataflow.num_workers = options_.num_workers;
  }
  GS_ASSIGN_OR_RETURN(
      std::unique_ptr<views::LiveRun> run,
      views::LiveRun::Start(computation, *base, collection, options));
  live_runs_.emplace(name, LiveEntry{collection_name, collection->base_graph,
                                     std::move(run)});
  RefreshIngestStatus();
  return Status::Ok();
}

StatusOr<const views::LiveRun*> Graphsurge::GetLiveRun(
    const std::string& name) const {
  auto it = live_runs_.find(name);
  if (it == live_runs_.end()) {
    return Status::NotFound("no live computation named '" + name + "'");
  }
  return it->second.run.get();
}

void Graphsurge::RefreshIngestStatus() {
  std::ostringstream out;
  out << "{\"graphs\":{";
  bool first = true;
  for (const auto& [name, graph] : graphs_) {
    // Only graphs on the ingest path (mutated or WAL-attached) are listed.
    if (graph.mutation_epoch() == 0 && wals_.count(name) == 0) continue;
    if (!first) out << ",";
    first = false;
    out << "\"" << introspect::JsonEscape(name)
        << "\":{\"epoch\":" << graph.mutation_epoch()
        << ",\"live_nodes\":" << graph.num_live_nodes()
        << ",\"live_edges\":" << graph.num_live_edges();
    auto w = wals_.find(name);
    if (w != wals_.end()) {
      out << ",\"wal_bytes\":" << w->second.bytes_written();
    }
    out << "}";
  }
  out << "},\"live_runs\":{";
  first = true;
  for (const auto& [name, entry] : live_runs_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << introspect::JsonEscape(name) << "\":{\"collection\":\""
        << introspect::JsonEscape(entry.collection)
        << "\",\"epochs_fed\":" << entry.run->epochs_fed()
        << ",\"views\":" << entry.run->num_views()
        << ",\"last_epoch_input_diffs\":" << entry.run->last_epoch_input_diffs()
        << "}";
  }
  out << "}}";
  std::lock_guard<std::mutex> lock(ingest_status_mutex_);
  ingest_status_json_ = out.str();
}

std::vector<std::string> Graphsurge::GraphNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : graphs_) names.push_back(name);
  return names;
}

std::vector<std::string> Graphsurge::CollectionNames() const {
  std::vector<std::string> names;
  for (const auto& [name, _] : collections_) names.push_back(name);
  return names;
}

}  // namespace gs
