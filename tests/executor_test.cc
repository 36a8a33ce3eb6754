// The collection analytics executor: all three strategies produce
// identical, oracle-matching per-view results; splitting bookkeeping and
// engine statistics behave as specified.
#include "views/executor.h"

#include <gtest/gtest.h>

#include "algorithms/algorithms.h"
#include "algorithms/reference.h"
#include "common/random.h"
#include "graph/generators.h"
#include "gvdl/parser.h"

namespace gs::views {
namespace {

using analytics::ResultMap;

// A temporal graph plus a window collection over it.
struct Fixture {
  PropertyGraph graph;
  MaterializedCollection collection;

  static Fixture ExpandingWindows(size_t num_views) {
    Fixture f;
    TemporalGraphOptions opts;
    opts.num_nodes = 120;
    opts.num_edges = 1500;
    opts.end_time = 1000;
    f.graph = GenerateTemporalGraph(opts);

    auto stmt_text = std::string("create view collection w on G ");
    for (size_t i = 0; i < num_views; ++i) {
      if (i) stmt_text += ", ";
      stmt_text += "[w" + std::to_string(i) + ": timestamp <= " +
                   std::to_string(1000 * (i + 1) / num_views) + "]";
    }
    auto stmt = gvdl::Parse(stmt_text);
    EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
    MaterializeOptions mopts;
    auto mc = MaterializeCollection(
        f.graph, std::get<gvdl::ViewCollectionDef>(*stmt), mopts);
    EXPECT_TRUE(mc.ok()) << mc.status().ToString();
    f.collection = std::move(*mc);
    return f;
  }

  // Reference result for the view at position t.
  std::vector<WeightedEdge> ViewEdges(size_t t, int weight_column) const {
    std::vector<WeightedEdge> out;
    for (EdgeId e : collection.diffs.Reconstruct(t)) {
      out.push_back(graph.ResolveWeighted(e, weight_column));
    }
    return out;
  }
};

TEST(ExecutorTest, AllStrategiesMatchOracle) {
  Fixture f = Fixture::ExpandingWindows(6);
  analytics::Wcc wcc;
  for (auto strategy :
       {splitting::Strategy::kDiffOnly, splitting::Strategy::kScratch,
        splitting::Strategy::kAdaptive}) {
    ExecutionOptions opts;
    opts.strategy = strategy;
    opts.chunk_size = 2;
    opts.capture_results = true;
    auto result = RunOnCollection(wcc, f.graph, f.collection, opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->results.size(), f.collection.num_views());
    for (size_t t = 0; t < f.collection.num_views(); ++t) {
      EXPECT_EQ(result->results[t],
                analytics::WccReference(f.ViewEdges(t, -1)))
          << splitting::StrategyName(strategy) << " view " << t;
    }
  }
}

TEST(ExecutorTest, WeightedComputationUsesWeightColumn) {
  Fixture f = Fixture::ExpandingWindows(4);
  int weight_col = f.graph.FindWeightColumn("weight");
  ASSERT_GE(weight_col, 0);
  // Source: first vertex with an outgoing edge in the first view.
  auto first_view = f.collection.diffs.Reconstruct(0);
  ASSERT_FALSE(first_view.empty());
  VertexId source = f.graph.edge(first_view[0]).src;

  analytics::BellmanFord bf(source);
  ExecutionOptions opts;
  opts.weight_column = weight_col;
  opts.capture_results = true;
  auto result = RunOnCollection(bf, f.graph, f.collection, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t t = 0; t < f.collection.num_views(); ++t) {
    EXPECT_EQ(result->results[t],
              analytics::SsspReference(f.ViewEdges(t, weight_col), source))
        << "view " << t;
  }
}

TEST(ExecutorTest, StrategyBookkeeping) {
  Fixture f = Fixture::ExpandingWindows(7);
  analytics::Bfs bfs(f.graph.edge(0).src);

  ExecutionOptions diff_opts;
  diff_opts.strategy = splitting::Strategy::kDiffOnly;
  auto diff_run = RunOnCollection(bfs, f.graph, f.collection, diff_opts);
  ASSERT_TRUE(diff_run.ok());
  EXPECT_EQ(diff_run->num_splits, 0u);
  ASSERT_EQ(diff_run->per_view.size(), 7u);
  EXPECT_TRUE(diff_run->per_view[0].ran_scratch);  // first view is a seed
  for (size_t t = 1; t < 7; ++t) {
    EXPECT_FALSE(diff_run->per_view[t].ran_scratch);
    EXPECT_EQ(diff_run->per_view[t].input_size,
              f.collection.diff_sizes[t]);
  }

  ExecutionOptions scratch_opts;
  scratch_opts.strategy = splitting::Strategy::kScratch;
  auto scratch_run =
      RunOnCollection(bfs, f.graph, f.collection, scratch_opts);
  ASSERT_TRUE(scratch_run.ok());
  EXPECT_EQ(scratch_run->num_splits, 6u);
  for (size_t t = 0; t < 7; ++t) {
    EXPECT_TRUE(scratch_run->per_view[t].ran_scratch);
    EXPECT_EQ(scratch_run->per_view[t].input_size,
              f.collection.view_sizes[t]);
  }

  ExecutionOptions adaptive_opts;
  adaptive_opts.strategy = splitting::Strategy::kAdaptive;
  auto adaptive_run =
      RunOnCollection(bfs, f.graph, f.collection, adaptive_opts);
  ASSERT_TRUE(adaptive_run.ok());
  // Bootstrap: view 0 scratch, view 1 differential.
  EXPECT_TRUE(adaptive_run->per_view[0].ran_scratch);
  EXPECT_FALSE(adaptive_run->per_view[1].ran_scratch);
}

TEST(ExecutorTest, DiffOnlySharesWorkOnSimilarViews) {
  Fixture f = Fixture::ExpandingWindows(8);
  analytics::Wcc wcc;
  ExecutionOptions diff_opts;
  diff_opts.strategy = splitting::Strategy::kDiffOnly;
  auto diff_run = RunOnCollection(wcc, f.graph, f.collection, diff_opts);
  ExecutionOptions scratch_opts;
  scratch_opts.strategy = splitting::Strategy::kScratch;
  auto scratch_run =
      RunOnCollection(wcc, f.graph, f.collection, scratch_opts);
  ASSERT_TRUE(diff_run.ok());
  ASSERT_TRUE(scratch_run.ok());
  // Engine work (updates published) must be substantially lower for the
  // differential run on an expanding-window collection.
  EXPECT_LT(diff_run->engine_stats.updates_published,
            scratch_run->engine_stats.updates_published / 2)
      << "differential execution should share computation";
}

TEST(ExecutorTest, RunOnGraphMatchesReference) {
  PropertyGraph g = GeneratePowerLawGraph(80, 600, 1.2, 11);
  analytics::PageRank pr(4);
  auto result = RunOnGraph(pr, g);
  ASSERT_TRUE(result.ok());
  std::vector<WeightedEdge> edges;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    edges.push_back(g.ResolveWeighted(e, -1));
  }
  EXPECT_EQ(*result, analytics::PageRankReference(edges, 4));
}

TEST(ExecutorTest, ProfileAccountsForEndToEndTime) {
  // The ISSUE acceptance scenario: 8K nodes / 40K edges / 10 views. The
  // per-operator attribution must cover (nearly) the whole per-view wall
  // time — operator time is a strict subset of the view timer, so the
  // ratio is ≤ 1 and must stay within 10% of it.
  Fixture f;
  TemporalGraphOptions gopts;
  gopts.num_nodes = 8000;
  gopts.num_edges = 40000;
  gopts.end_time = 1000;
  f.graph = GenerateTemporalGraph(gopts);
  std::string text = "create view collection w on G ";
  for (size_t i = 0; i < 10; ++i) {
    if (i) text += ", ";
    text += "[w" + std::to_string(i) + ": timestamp <= " +
            std::to_string(100 * (i + 1)) + "]";
  }
  auto stmt = gvdl::Parse(text);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  MaterializeOptions mopts;
  auto mc = MaterializeCollection(
      f.graph, std::get<gvdl::ViewCollectionDef>(*stmt), mopts);
  ASSERT_TRUE(mc.ok()) << mc.status().ToString();
  f.collection = std::move(*mc);

  analytics::Wcc wcc;
  ExecutionOptions opts;
  opts.strategy = splitting::Strategy::kDiffOnly;
  auto result = RunOnCollection(wcc, f.graph, f.collection, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->per_view.size(), 10u);

  double view_seconds = 0;
  double op_seconds = 0;
  for (const ViewRunStats& v : result->per_view) {
    view_seconds += v.seconds;
    EXPECT_FALSE(v.op_nanos.empty());
    for (const auto& [name, nanos] : v.op_nanos) {
      EXPECT_EQ(name.find('@'), std::string::npos) << name;
      op_seconds += static_cast<double>(nanos) * 1e-9;
    }
  }
  ASSERT_GT(view_seconds, 0.0);
  EXPECT_LE(op_seconds, view_seconds * 1.001);
  EXPECT_GT(op_seconds, view_seconds * 0.9)
      << "profiled operator time " << op_seconds << "s accounts for < 90% of "
      << view_seconds << "s end-to-end";

  // And the rendered report carries the table and the headline counters.
  std::string report = result->Profile();
  EXPECT_NE(report.find("view"), std::string::npos);
  EXPECT_NE(report.find("TOTAL"), std::string::npos);
  EXPECT_NE(report.find("end_to_end_ms="), std::string::npos);
  EXPECT_NE(report.find("exchanged_bytes="), std::string::npos);
}

TEST(ExecutorTest, ProfileCoversScratchAndShardedRuns) {
  Fixture f = Fixture::ExpandingWindows(5);
  analytics::Bfs bfs(f.graph.edge(0).src);
  for (auto strategy :
       {splitting::Strategy::kScratch, splitting::Strategy::kDiffOnly}) {
    for (size_t workers : {size_t{1}, size_t{4}}) {
      ExecutionOptions opts;
      opts.strategy = strategy;
      opts.dataflow.num_workers = workers;
      auto result = RunOnCollection(bfs, f.graph, f.collection, opts);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      for (const ViewRunStats& v : result->per_view) {
        EXPECT_FALSE(v.op_nanos.empty())
            << splitting::StrategyName(strategy) << " workers=" << workers;
      }
      std::string report = result->Profile();
      EXPECT_NE(report.find("TOTAL"), std::string::npos);
    }
  }
}

TEST(ExecutorTest, EmptyViewsAreHandled) {
  PropertyGraph g = MakeCallGraphExample();
  auto stmt = gvdl::Parse(
      "create view collection c on Calls "
      "[none: year > 3000], [all: year > 0], [none2: year > 3000]");
  ASSERT_TRUE(stmt.ok());
  MaterializeOptions mopts;
  auto mc = MaterializeCollection(
      g, std::get<gvdl::ViewCollectionDef>(*stmt), mopts);
  ASSERT_TRUE(mc.ok());
  analytics::Wcc wcc;
  ExecutionOptions opts;
  opts.capture_results = true;
  auto result = RunOnCollection(wcc, g, *mc, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->results[0].empty());
  EXPECT_FALSE(result->results[1].empty());
  EXPECT_TRUE(result->results[2].empty());
}

TEST(ExecutorTest, EdgeBeyondGraphIsOutOfRange) {
  PropertyGraph g = MakeCallGraphExample();
  const EdgeId beyond = static_cast<EdgeId>(g.num_edges());
  MaterializedCollection mc = CollectionFromDiffBatches(
      "c", "Calls", {{{0, 1}}, {{beyond, 1}}});
  analytics::Wcc wcc;
  auto result = RunOnCollection(wcc, g, mc, ExecutionOptions());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
      << result.status().ToString();
}

}  // namespace
}  // namespace gs::views
