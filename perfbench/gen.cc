// Seeded input generation. Everything a workload feeds the program under
// test — graph CSVs, the GVDL collection script, mutation batches and
// request schedules — is derived from the seed here and written to the run
// directory before any timer starts. The same seed gives the same files.
#include <algorithm>
#include <cstdio>
#include <random>
#include <sstream>
#include <stdexcept>

#include "common.h"
#include "graph/csv.h"
#include "graph/generators.h"
#include "sizes.h"

namespace perfbench {
namespace {

constexpr int64_t kEndTime = 1000000;

class Rand {
 public:
  explicit Rand(uint64_t seed) : engine_(seed) {}
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return engine_() % n; }
  int64_t Between(int64_t lo, int64_t hi) {  // inclusive
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }
  double Unit() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }

 private:
  std::mt19937_64 engine_;
};

gs::PropertyGraph MakeGraph(uint64_t seed, size_t nodes, size_t edges) {
  gs::TemporalGraphOptions options;
  options.num_nodes = nodes;
  options.num_edges = edges;
  options.start_time = 0;
  options.end_time = kEndTime;
  options.seed = seed;
  return gs::GenerateTemporalGraph(options);
}

void WriteGraph(const gs::PropertyGraph& graph, const std::string& dir) {
  gs::Status s =
      gs::WriteGraphToCsv(graph, dir + "/nodes.csv", dir + "/edges.csv");
  if (!s.ok()) throw std::runtime_error("writing CSV: " + s.ToString());
}

int64_t Timestamp(const gs::PropertyGraph& graph, gs::EdgeId e) {
  return graph.edge_properties().column(0).GetInt(e);
}

/// Nodes ordered by out-degree over edges with timestamp >= `from`
/// (highest first, ties by id): BFS roots that reach most of a view.
std::vector<gs::VertexId> HubsSince(const gs::PropertyGraph& graph,
                                    int64_t from) {
  std::vector<uint64_t> degree(graph.num_nodes(), 0);
  for (gs::EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (Timestamp(graph, e) >= from) ++degree[graph.edge(e).src];
  }
  std::vector<gs::VertexId> nodes(graph.num_nodes());
  for (size_t v = 0; v < nodes.size(); ++v) nodes[v] = v;
  std::stable_sort(nodes.begin(), nodes.end(),
                   [&](gs::VertexId a, gs::VertexId b) {
                     return degree[a] > degree[b];
                   });
  return nodes;
}

/// `prefix` followed by `n` ("w3", "C0").
std::string Numbered(char prefix, size_t n) {
  std::string name(1, prefix);
  return name += std::to_string(n);
}

std::string Window(const std::string& name, int64_t lo, int64_t hi) {
  return "[" + name + ": timestamp >= " + std::to_string(lo) +
         " and timestamp < " + std::to_string(hi) + "]";
}

/// views_w1: 16 sliding windows at the recent end of the range, listed in
/// bit-reversed index order, far from the best feed, so the ordering
/// optimizer has to recover it. The listing is the same for every seed: with
/// a seeded shuffle the optimizer's heuristic tour landed on one of two
/// orders (22% apart in total diffs), which made the work per job bimodal
/// across seeds.
void GenerateBatch(const Config& config, const BatchSizes& sizes) {
  gs::PropertyGraph graph = MakeGraph(config.seed, sizes.nodes, sizes.edges);
  WriteGraph(graph, config.dir);
  const int64_t width = static_cast<int64_t>(kEndTime * sizes.window_frac);
  const int64_t step = width / 2;
  const int64_t first =
      kEndTime + 1 - width - step * static_cast<int64_t>(sizes.views - 1);
  auto bit_reversed = [](size_t i) {
    size_t r = 0;
    for (int b = 0; b < 16; ++b) r |= ((i >> b) & 1) << (15 - b);
    return r;
  };
  std::vector<size_t> order(sizes.views);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return bit_reversed(a) < bit_reversed(b);
  });
  std::string gvdl = "create view collection C on G ";
  for (size_t i = 0; i < order.size(); ++i) {
    const int64_t lo = first + step * static_cast<int64_t>(order[i]);
    if (i != 0) gvdl += ", ";
    gvdl += Window(Numbered('w', order[i]), lo, lo + width);
  }
  WriteFile(config.dir + "/collection.gvdl", gvdl + "\n");
  WriteFile(config.dir + "/params.txt",
            "bfs_source " + std::to_string(HubsSince(graph, first)[0]) + "\n");
}

/// live_ingest: 4 nested recent windows plus the 50-mutation batches of one
/// round (recent edge adds, recent edge removals, timestamp updates), which
/// every round of the run replays on a fresh system. The generator tracks
/// the graph's evolution (edge ids are never reused: an added edge takes the
/// next id) so every batch is valid when applied in order.
void GenerateLive(const Config& config, const LiveSizes& sizes) {
  gs::PropertyGraph graph = MakeGraph(config.seed, sizes.nodes, sizes.edges);
  WriteGraph(graph, config.dir);
  const int64_t width = static_cast<int64_t>(kEndTime * sizes.window_frac);
  std::string gvdl = "create view collection L on G ";
  for (int k = 4; k >= 1; --k) {
    if (k != 4) gvdl += ", ";
    gvdl += "[r" + std::to_string(k) + ": timestamp >= " +
            std::to_string(kEndTime - k * width) + "]";
  }
  WriteFile(config.dir + "/collection.gvdl", gvdl + "\n");

  // Recent live edges: candidates for removal and timestamp updates.
  const int64_t recent_from = kEndTime - 4 * width;
  std::vector<gs::EdgeId> recent;
  for (gs::EdgeId e = 0; e < graph.num_edges(); ++e) {
    if (Timestamp(graph, e) >= recent_from) recent.push_back(e);
  }
  gs::EdgeId next_edge = graph.num_edges();
  Rand rand(config.seed * 104729 + 3);
  const size_t adds = sizes.batch_size / 2;
  const size_t updates = sizes.batch_size / 5;
  const size_t removes = sizes.batch_size - adds - updates;
  auto recent_ts = [&] { return rand.Between(kEndTime - width, kEndTime); };
  auto endpoint = [&] {
    // Skewed toward low ids, like the generator's preferential attachment.
    const double u = rand.Unit();
    return static_cast<gs::VertexId>(u * u * u * sizes.nodes) % sizes.nodes;
  };
  std::ostringstream out;
  for (size_t b = 0; b < sizes.warmup_epochs + sizes.round_epochs; ++b) {
    out << "B\n";
    std::vector<gs::EdgeId> added;
    for (size_t i = 0; i < adds; ++i) {
      gs::VertexId src = endpoint();
      gs::VertexId dst = rand.Below(sizes.nodes);
      if (src == dst) dst = (dst + 1) % sizes.nodes;
      out << "A " << src << " " << dst << " " << recent_ts() << " "
          << rand.Between(1, 100) << "\n";
      added.push_back(next_edge++);
    }
    for (size_t i = 0; i < updates && !recent.empty(); ++i) {
      out << "S " << recent[rand.Below(recent.size())] << " " << recent_ts()
          << "\n";
    }
    for (size_t i = 0; i < removes && !recent.empty(); ++i) {
      const size_t at = rand.Below(recent.size());
      out << "R " << recent[at] << "\n";
      recent[at] = recent.back();
      recent.pop_back();
    }
    recent.insert(recent.end(), added.begin(), added.end());
  }
  WriteFile(config.dir + "/mutations.txt", out.str());
}

/// serve_mixed: per-client request schedules. Lines are `<kind> <text>`:
/// open/close a session, `read` (analytics on the host graph), `create`
/// (a session-private collection), `crun` (analytics on that collection)
/// and `results` (get results).
void GenerateServe(const Config& config, const ServeSizes& sizes) {
  gs::PropertyGraph graph = MakeGraph(config.seed, sizes.nodes, sizes.edges);
  WriteGraph(graph, config.dir);
  Rand rand(config.seed * 15485863 + 5);
  const std::vector<gs::VertexId> hubs = HubsSince(graph, 0);
  std::vector<std::string> reads = {"run wcc on G"};
  for (size_t i = 0; i < sizes.bfs_sources; ++i) {
    const gs::VertexId s = hubs[rand.Below(std::min<size_t>(50, hubs.size()))];
    reads.push_back("run bfs(" + std::to_string(s) + ") on G");
  }
  // Collection templates: three adjacent windows each, at seeded offsets
  // in the recent half of the range.
  std::vector<std::string> templates;
  const int64_t width = static_cast<int64_t>(kEndTime * sizes.window_frac);
  for (size_t t = 0; t < sizes.templates; ++t) {
    const int64_t lo = rand.Between(kEndTime / 2, kEndTime - 3 * width);
    templates.push_back(Window("a", lo, lo + width) + ", " +
                        Window("b", lo, lo + 2 * width) + ", " +
                        Window("c", lo + width, lo + 3 * width));
  }
  std::string params;
  for (const std::string& r : reads) params += "read " + r + "\n";
  for (const std::string& t : templates) params += "template " + t + "\n";
  WriteFile(config.dir + "/params.txt", params);

  // Each session: open, reads (a few followed by a result fetch), write
  // groups (create a collection, run on it, fetch results) at seeded
  // positions, close. Requests of one kind cost about the same. Most reads
  // run WCC, the slowest kind, so the 90th percentile of all requests lies
  // in the upper part of the WCC reads' latencies: a quantile in the middle
  // of one kind moves with the host's speed swings as a median does.
  for (size_t c = 0; c < sizes.clients; ++c) {
    std::ostringstream out;
    const std::string session = "s" + std::to_string(c);
    for (size_t written = 0; written < sizes.schedule_length;) {
      out << "open " << session << "\n";
      size_t collections = 0;
      for (size_t r = 0; r < sizes.reads_per_session; ++r) {
        if (rand.Below(sizes.reads_per_session) < sizes.writes_per_session) {
          const std::string name = Numbered('C', collections++);
          out << "create create view collection " << name << " on G "
              << templates[rand.Below(templates.size())] << "\n";
          // The same analytics, on the collection instead of the host graph.
          std::string run = reads[rand.Below(2)];
          run.replace(run.size() - 1, 1, name);
          out << "crun " << run << "\nresults get results\n";
          written += 3;
        }
        // Three reads in four run WCC (reads[0]), the rest BFS.
        out << "read "
            << (rand.Below(4) != 0
                    ? reads[0]
                    : reads[1 + rand.Below(reads.size() - 1)])
            << "\n";
        ++written;
        if (rand.Unit() < sizes.results_after_read) {
          out << "results get results\n";
          ++written;
        }
      }
      out << "close " << session << "\n";
      written += 2;
    }
    WriteFile(config.dir + "/client" + std::to_string(c) + ".txt", out.str());
  }
}

}  // namespace

void GenerateInputs(const Config& config) {
  if (config.workload == "views_w1") {
    GenerateBatch(config, BatchSizesFor(config.smoke));
  } else if (config.workload == "live_ingest") {
    GenerateLive(config, LiveSizesFor(config.smoke));
  } else if (config.workload == "serve_mixed") {
    GenerateServe(config, ServeSizesFor(config.smoke));
  } else {
    throw std::runtime_error("unknown workload " + config.workload);
  }
}

}  // namespace perfbench
