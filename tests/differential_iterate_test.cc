// Iterative scopes: fixpoints, computation sharing across versions, nested
// iteration, and the iteration cap.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/random.h"

#include "differential/differential.h"

namespace gs::differential {
namespace {

using VertexDist = std::pair<uint64_t, int64_t>;
using EdgeRec = std::pair<uint64_t, uint64_t>;  // (src, dst)

template <typename D>
std::map<D, Diff> ToMap(const Batch<D>& batch) {
  std::map<D, Diff> m;
  for (const auto& u : batch) m[u.data] += u.diff;
  for (auto it = m.begin(); it != m.end();) {
    it = it->second == 0 ? m.erase(it) : std::next(it);
  }
  return m;
}

// Builds a BFS-hops dataflow: distances from vertex 0 via min-reduce
// fixpoint. Returns the capture of the final distances.
struct BfsHarness {
  Dataflow df;
  Input<EdgeRec> edges{&df};
  Input<VertexDist> roots{&df};
  CaptureOp<VertexDist>* capture = nullptr;

  explicit BfsHarness(uint32_t max_iterations = 1u << 20) {
    IterateOptions opts;
    opts.max_iterations = max_iterations;
    auto dists = Iterate<VertexDist>(
        roots.stream(),
        [this](LoopScope& scope, Stream<VertexDist> inner) {
          auto edges_in = scope.Enter(edges.stream());
          auto roots_in = scope.Enter(roots.stream());
          auto messages =
              Join(inner, edges_in,
                   [](const uint64_t&, const int64_t& dist,
                      const uint64_t& dst) {
                     return std::make_pair(dst, dist + 1);
                   });
          return ReduceMin(messages.Concat(roots_in));
        },
        opts);
    capture = Capture(dists);
  }
};

// Reference hop distances from vertex 0 over the edges with positive
// count.
std::map<VertexDist, Diff> ReferenceBfs(const std::map<EdgeRec, Diff>& edges) {
  std::map<uint64_t, int64_t> dist{{0, 0}};
  std::vector<uint64_t> frontier{0};
  while (!frontier.empty()) {
    std::vector<uint64_t> next;
    for (uint64_t v : frontier) {
      for (const auto& [e, count] : edges) {
        if (count > 0 && e.first == v && !dist.count(e.second)) {
          dist[e.second] = dist[v] + 1;
          next.push_back(e.second);
        }
      }
    }
    frontier = std::move(next);
  }
  std::map<VertexDist, Diff> out;
  for (const auto& [v, d] : dist) out[{v, d}] = 1;
  return out;
}

// Reference per-vertex minimum label: every label floods along the edges
// with positive count.
std::map<VertexDist, Diff> ReferenceMinLabels(
    std::map<uint64_t, int64_t> labels, const std::map<EdgeRec, Diff>& edges) {
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [e, count] : edges) {
      if (count <= 0 || !labels.count(e.first)) continue;
      auto [it, inserted] = labels.try_emplace(e.second, labels[e.first]);
      if (!inserted && labels[e.first] < it->second) {
        it->second = labels[e.first];
        changed = true;
      }
      changed = changed || inserted;
    }
  }
  std::map<VertexDist, Diff> out;
  for (const auto& [v, label] : labels) out[{v, label}] = 1;
  return out;
}

// Sends `count` random edge insertions or retractions over vertices
// [0, num_vertices), keeping `edges` as their running multiset.
void SendRandomEdges(Input<EdgeRec>* input, std::map<EdgeRec, Diff>* edges,
                     Rng* rng, int count, uint64_t num_vertices) {
  for (int i = 0; i < count; ++i) {
    EdgeRec e{rng->Index(num_vertices), rng->Index(num_vertices)};
    Diff d = (*edges)[e] > 0 && rng->Bernoulli(0.35) ? -1 : 1;
    input->Send(e, d);
    (*edges)[e] += d;
  }
}

TEST(IterateTest, BfsFixpointOnChain) {
  BfsHarness h;
  // 0 -> 1 -> 2 -> 3
  for (uint64_t v = 0; v + 1 < 4; ++v) h.edges.Send({v, v + 1}, 1);
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  EXPECT_EQ(ToMap(h.capture->AccumulatedAt(0)),
            (std::map<VertexDist, Diff>{
                {{0, 0}, 1}, {{1, 1}, 1}, {{2, 2}, 1}, {{3, 3}, 1}}));
}

TEST(IterateTest, BfsHandlesCycles) {
  BfsHarness h;
  h.edges.Send({0, 1}, 1);
  h.edges.Send({1, 2}, 1);
  h.edges.Send({2, 0}, 1);  // cycle back to the root
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  EXPECT_EQ(ToMap(h.capture->AccumulatedAt(0)),
            (std::map<VertexDist, Diff>{{{0, 0}, 1}, {{1, 1}, 1}, {{2, 2}, 1}}));
}

TEST(IterateTest, EdgeAdditionSharesComputation) {
  BfsHarness h;
  // Long chain 0..49 plus an unrelated star around 100.
  for (uint64_t v = 0; v + 1 < 50; ++v) h.edges.Send({v, v + 1}, 1);
  for (uint64_t v = 101; v < 140; ++v) h.edges.Send({100, v}, 1);
  h.edges.Send({0, 100}, 1);
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  uint64_t work_v0 = h.df.stats().updates_published;

  // Version 1: add a shortcut 0 -> 10. Distances of vertices 11.. on the
  // chain shrink; the star around 100 is untouched.
  h.edges.Send({0, 10}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  uint64_t work_v1 = h.df.stats().updates_published - work_v0;

  auto acc = ToMap(h.capture->AccumulatedAt(1));
  EXPECT_EQ(acc.at({10, 1}), 1);
  EXPECT_EQ(acc.at({49, 40}), 1);   // 0->10 shortcut: 49 reached at 1+39
  EXPECT_EQ(acc.at({139, 2}), 1);   // star distance unchanged
  EXPECT_LT(work_v1, work_v0) << "differential step must do less work";

  // The version-1 output diff must not mention star vertices.
  for (const auto& [rec, d] : ToMap(h.capture->VersionDiffs(1))) {
    EXPECT_LT(rec.first, 100u) << "unaffected vertex recomputed";
  }
}

TEST(IterateTest, EdgeDeletionRepairsDistances) {
  BfsHarness h;
  // Diamond: 0->1->3, 0->2->3 plus tail 3->4.
  h.edges.Send({0, 1}, 1);
  h.edges.Send({1, 3}, 1);
  h.edges.Send({0, 2}, 1);
  h.edges.Send({2, 3}, 1);
  h.edges.Send({3, 4}, 1);
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());

  h.edges.Send({1, 3}, -1);  // remove one of the two shortest paths
  ASSERT_TRUE(h.df.Step().ok());
  // Distances unchanged (the other path remains).
  EXPECT_EQ(ToMap(h.capture->VersionDiffs(1)), (std::map<VertexDist, Diff>{}));

  h.edges.Send({2, 3}, -1);  // now 3 and 4 are unreachable
  ASSERT_TRUE(h.df.Step().ok());
  EXPECT_EQ(ToMap(h.capture->AccumulatedAt(2)),
            (std::map<VertexDist, Diff>{{{0, 0}, 1}, {{1, 1}, 1}, {{2, 1}, 1}}));
}

TEST(IterateTest, IterationCapBoundsLoop) {
  BfsHarness h(/*max_iterations=*/3);
  for (uint64_t v = 0; v + 1 < 10; ++v) h.edges.Send({v, v + 1}, 1);
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  auto acc = ToMap(h.capture->AccumulatedAt(0));
  // With the loop cut at iteration 3, only vertices within 3 hops have
  // distances.
  EXPECT_TRUE(acc.count({3, 3}));
  EXPECT_FALSE(acc.count({9, 9}));
}

TEST(IterateTest, NestedLoopsComputeTransitiveClosurePerLayer) {
  // Outer loop: repeatedly apply "propagate min label one hop" inner loop
  // (a contrived doubly-nested computation validating depth-2 times).
  Dataflow df;
  Input<EdgeRec> edges(&df);
  Input<VertexDist> labels(&df);

  auto result = Iterate<VertexDist>(
      labels.stream(),
      [&](LoopScope& outer, Stream<VertexDist> outer_var) {
        auto edges_outer = outer.Enter(edges.stream());
        // Inner loop: full label propagation to fixpoint.
        return Iterate<VertexDist>(
            outer_var,
            [&](LoopScope& inner, Stream<VertexDist> inner_var) {
              auto edges_in = inner.Enter(edges_outer);
              auto moved = Join(inner_var, edges_in,
                                [](const uint64_t&, const int64_t& label,
                                   const uint64_t& dst) {
                                  return std::make_pair(dst, label);
                                });
              return ReduceMin(moved.Concat(inner_var));
            });
      });
  auto* cap = Capture(result);

  edges.Send({0, 1}, 1);
  edges.Send({1, 2}, 1);
  labels.Send({0, 5}, 1);
  labels.Send({1, 9}, 1);
  labels.Send({2, 7}, 1);
  ASSERT_TRUE(df.Step().ok());
  // Min label 5 floods the chain.
  EXPECT_EQ(ToMap(cap->AccumulatedAt(0)),
            (std::map<VertexDist, Diff>{{{0, 5}, 1}, {{1, 5}, 1}, {{2, 5}, 1}}));
}

TEST(IterateTest, MultipleVersionsConvergeIndependently) {
  BfsHarness h;
  h.edges.Send({0, 1}, 1);
  h.roots.Send({0, 0}, 1);
  ASSERT_TRUE(h.df.Step().ok());
  for (uint64_t v = 1; v < 6; ++v) {
    h.edges.Send({v, v + 1}, 1);  // extend the chain each version
    ASSERT_TRUE(h.df.Step().ok());
    auto acc = ToMap(h.capture->AccumulatedAt(static_cast<uint32_t>(v)));
    EXPECT_EQ(acc.size(), v + 2);
    EXPECT_EQ(acc.at({v + 1, static_cast<int64_t>(v + 1)}), 1);
  }
}

TEST(IterateTest, ShallowReducesKeepNoPrivateTrace) {
  // A depth-1 ReduceMin inside Iterate and a depth-0 Count both own their
  // input, so their KeyState histories are their only history: no private
  // trace entry is written, and the histories are accounted as the
  // operators' trace bytes.
  BfsHarness h;
  auto* degrees = Capture(Count(h.edges.stream()));
  h.roots.Send({0, 0}, 1);
  std::map<EdgeRec, Diff> edges;
  Rng rng(11);
  for (uint32_t version = 0; version < 8; ++version) {
    SendRandomEdges(&h.edges, &edges, &rng, 14, 16);
    ASSERT_TRUE(h.df.Step().ok());
    EXPECT_EQ(ToMap(h.capture->AccumulatedAt(version)), ReferenceBfs(edges))
        << "version " << version;
    std::map<std::pair<uint64_t, int64_t>, Diff> expected_degrees;
    std::map<uint64_t, int64_t> degree;
    for (const auto& [e, count] : edges) degree[e.first] += count;
    for (const auto& [v, d] : degree) {
      if (d != 0) expected_degrees[{v, d}] = 1;
    }
    EXPECT_EQ(ToMap(degrees->AccumulatedAt(version)), expected_degrees)
        << "version " << version;
  }
  size_t reduces = 0;
  for (const auto& snap : h.df.CollectOperatorSnapshots()) {
    if (snap.name != "reduce") continue;
    ++reduces;
    EXPECT_EQ(snap.memory.trace_entries, 0u) << "op " << snap.order;
    EXPECT_EQ(snap.memory.trace_batches, 0u) << "op " << snap.order;
    EXPECT_EQ(snap.memory.trace_merges, 0u) << "op " << snap.order;
    EXPECT_GT(snap.memory.trace_bytes, 0u) << "op " << snap.order;
    EXPECT_GE(snap.memory.trace_high_water_bytes, snap.memory.trace_bytes)
        << "op " << snap.order;
  }
  EXPECT_EQ(reduces, 2u);
}

TEST(IterateTest, NestedReduceEvaluatesFromItsTraces) {
  // Depth-2 times leave the iteration-scalar regime: the inner ReduceMin
  // keeps its input and output traces and evaluates from them, across
  // versions that both add and retract edges.
  Dataflow df;
  Input<EdgeRec> edges(&df);
  Input<VertexDist> labels(&df);
  auto result = Iterate<VertexDist>(
      labels.stream(),
      [&](LoopScope& outer, Stream<VertexDist> outer_var) {
        auto edges_outer = outer.Enter(edges.stream());
        return Iterate<VertexDist>(
            outer_var,
            [&](LoopScope& inner, Stream<VertexDist> inner_var) {
              auto edges_in = inner.Enter(edges_outer);
              auto moved = Join(inner_var, edges_in,
                                [](const uint64_t&, const int64_t& label,
                                   const uint64_t& dst) {
                                  return std::make_pair(dst, label);
                                });
              return ReduceMin(moved.Concat(inner_var));
            });
      });
  auto* cap = Capture(result);

  std::map<uint64_t, int64_t> initial;
  for (uint64_t v = 0; v < 4; ++v) {
    initial[v] = static_cast<int64_t>(40 - 7 * v);
    labels.Send({v, initial[v]}, 1);
  }
  std::map<EdgeRec, Diff> edge_counts;
  Rng rng(31);
  for (uint32_t version = 0; version < 5; ++version) {
    SendRandomEdges(&edges, &edge_counts, &rng, 6, 10);
    ASSERT_TRUE(df.Step().ok());
    EXPECT_EQ(ToMap(cap->AccumulatedAt(version)),
              ReferenceMinLabels(initial, edge_counts))
        << "version " << version;
  }
  size_t reduces = 0;
  for (const auto& snap : df.CollectOperatorSnapshots()) {
    if (snap.name != "reduce") continue;
    ++reduces;
    EXPECT_GT(snap.memory.trace_entries, 0u);
  }
  EXPECT_EQ(reduces, 1u);
}

}  // namespace
}  // namespace gs::differential
