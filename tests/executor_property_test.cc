// End-to-end property matrix: every collection × algorithm × execution
// strategy must produce, at every view, exactly the sequential oracle's
// result on that view's edges.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "algorithms/algorithms.h"
#include "algorithms/reference.h"
#include "api/graphsurge.h"
#include "graph/generators.h"

namespace gs {
namespace {

using analytics::ResultMap;

class ExecutorMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string, splitting::Strategy>> {
 protected:
  static void SetUpTestSuite() {
    system_ = new Graphsurge();
    TemporalGraphOptions opts;
    opts.num_nodes = 150;
    opts.num_edges = 1200;
    opts.end_time = 1000;
    ASSERT_TRUE(system_->AddGraph("g", GenerateTemporalGraph(opts)).ok());
    // A mixed collection: expanding windows then a disjoint slide —
    // exercises additions, deletions, and a natural splitting point.
    ASSERT_TRUE(system_
                    ->Execute("create view collection mixed on g "
                              "[a: timestamp <= 300], "
                              "[b: timestamp <= 550], "
                              "[c: timestamp <= 800], "
                              "[d: timestamp > 500 and timestamp <= 900], "
                              "[e: timestamp > 600], "
                              "[f: timestamp <= 400]")
                    .ok());

    // Narrow sliding windows over a sub-range of a second graph, then a
    // few tombstones inside the windows: most of the graph's edges are in
    // no view, and the incrementally maintained stream drops removed ones.
    opts.seed = 7;
    ASSERT_TRUE(system_->AddGraph("h", GenerateTemporalGraph(opts)).ok());
    ASSERT_TRUE(system_
                    ->Execute("create view collection narrow on h "
                              "[w0: timestamp > 300 and timestamp <= 340], "
                              "[w1: timestamp > 320 and timestamp <= 360], "
                              "[w2: timestamp > 340 and timestamp <= 380], "
                              "[w3: timestamp > 360 and timestamp <= 400], "
                              "[w4: timestamp > 380 and timestamp <= 420], "
                              "[w5: timestamp > 400 and timestamp <= 440], "
                              "[w6: timestamp > 420 and timestamp <= 460]")
                    .ok());
    const views::MaterializedCollection& narrow =
        **system_->GetCollection("narrow");
    std::set<EdgeId> removed;
    for (size_t t = 1; t < narrow.num_views(); t += 2) {
      std::vector<EdgeId> view = narrow.diffs.Reconstruct(t);
      ASSERT_FALSE(view.empty());
      removed.insert(view[view.size() / 2]);
    }
    MutationBatch tombstones;
    for (EdgeId e : removed) tombstones.push_back(Mutation::RemoveEdge(e));
    ASSERT_TRUE(system_->ApplyMutations("h", tombstones).ok());
    std::set<EdgeId> in_some_view;
    for (size_t t = 0; t < narrow.num_views(); ++t) {
      for (EdgeId e : narrow.diffs.Reconstruct(t)) in_some_view.insert(e);
    }
    ASSERT_LT(in_some_view.size() * 4, opts.num_edges);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static std::unique_ptr<analytics::Computation> Make(
      const std::string& algorithm, VertexId source) {
    if (algorithm == "wcc") return std::make_unique<analytics::Wcc>();
    if (algorithm == "bfs") return std::make_unique<analytics::Bfs>(source);
    if (algorithm == "bellman-ford") {
      return std::make_unique<analytics::BellmanFord>(source);
    }
    if (algorithm == "pagerank") {
      return std::make_unique<analytics::PageRank>(3);
    }
    if (algorithm == "scc") return std::make_unique<analytics::Scc>();
    if (algorithm == "mpsp") {
      return std::make_unique<analytics::Mpsp>(
          std::vector<std::pair<VertexId, VertexId>>{{source, 5},
                                                     {source, 9}});
    }
    return nullptr;
  }

  static ResultMap Reference(const std::string& algorithm,
                             const std::vector<WeightedEdge>& edges,
                             VertexId source) {
    if (algorithm == "wcc") return analytics::WccReference(edges);
    if (algorithm == "bfs") return analytics::BfsReference(edges, source);
    if (algorithm == "bellman-ford") {
      return analytics::SsspReference(edges, source);
    }
    if (algorithm == "pagerank") {
      return analytics::PageRankReference(edges, 3);
    }
    if (algorithm == "scc") return analytics::SccReference(edges);
    if (algorithm == "mpsp") {
      return analytics::MpspReference(edges, {{source, 5}, {source, 9}});
    }
    return {};
  }

  static Graphsurge* system_;
};

Graphsurge* ExecutorMatrixTest::system_ = nullptr;

TEST_P(ExecutorMatrixTest, EveryViewMatchesOracle) {
  const auto& [collection, algorithm, strategy] = GetParam();
  const views::MaterializedCollection& mc =
      **system_->GetCollection(collection);
  const PropertyGraph& g = **system_->GetGraph(mc.base_graph);
  int weight_col = g.FindWeightColumn("weight");
  const std::vector<EdgeId> first_view = mc.diffs.Reconstruct(0);
  ASSERT_FALSE(first_view.empty());
  VertexId source = g.edge(first_view.front()).src;

  auto computation = Make(algorithm, source);
  ASSERT_NE(computation, nullptr);
  views::ExecutionOptions options;
  options.strategy = strategy;
  options.chunk_size = 2;
  options.weight_column = weight_col;
  options.capture_results = true;
  auto run = system_->RunComputation(*computation, collection, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  ASSERT_EQ(run->results.size(), mc.num_views());
  ASSERT_EQ(run->per_view.size(), mc.num_views());

  for (size_t t = 0; t < mc.num_views(); ++t) {
    std::vector<WeightedEdge> edges;
    for (EdgeId e : mc.diffs.Reconstruct(t)) {
      edges.push_back(g.ResolveWeighted(e, weight_col));
    }
    ASSERT_EQ(run->results[t], Reference(algorithm, edges, source))
        << collection << "/" << algorithm << "/"
        << splitting::StrategyName(strategy)
        << " diverges from the oracle at view " << t;
    // A scratch seed feeds exactly the view's edges.
    if (run->per_view[t].ran_scratch) {
      EXPECT_EQ(run->per_view[t].input_size, mc.view_sizes[t])
          << collection << "/" << algorithm << " view " << t;
    }
  }
}

std::string MatrixName(
    const ::testing::TestParamInfo<ExecutorMatrixTest::ParamType>& info) {
  std::string n = std::get<0>(info.param) + "_" + std::get<1>(info.param);
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  const splitting::Strategy strategy = std::get<2>(info.param);
  return n + "_" + splitting::StrategyName(strategy)[0] +
         std::to_string(static_cast<int>(strategy));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllStrategies, ExecutorMatrixTest,
    ::testing::Combine(
        ::testing::Values("mixed", "narrow"),
        ::testing::Values("wcc", "bfs", "bellman-ford", "pagerank", "scc",
                          "mpsp"),
        ::testing::Values(splitting::Strategy::kDiffOnly,
                          splitting::Strategy::kScratch,
                          splitting::Strategy::kAdaptive)),
    MatrixName);

}  // namespace
}  // namespace gs
