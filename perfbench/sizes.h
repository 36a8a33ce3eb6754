// Input sizes per workload. The full sizes make every end-to-end number
// rest on seconds of work (see README.md); the smoke sizes run every
// correctness check in seconds.
#ifndef PERFBENCH_SIZES_H_
#define PERFBENCH_SIZES_H_

#include <cstddef>

namespace perfbench {

struct BatchSizes {
  size_t nodes;
  size_t edges;
  size_t views;
  /// Window width as a share of the timestamp range; windows step by half
  /// a width.
  double window_frac;
  /// PageRank iterations in each job.
  unsigned pagerank_iterations;
  /// Setup repetitions per run (setup_s is their median).
  size_t setup_reps;
  /// Jobs the timed window completes at least.
  size_t min_ops;
  /// Workers of the sharded engine the results check and the traced run's
  /// sharded variant use (= nproc on the reference 4-core machine).
  size_t sharded_workers;
};

struct LiveSizes {
  size_t nodes;
  size_t edges;
  double window_frac;
  size_t batch_size;
  size_t warmup_epochs;
  /// Timed epochs per round. A live run keeps every epoch's results and
  /// its epochs get slower as they pile up, so the timed window runs in
  /// rounds, each on a freshly set-up system replaying the same batches:
  /// the op's cost then does not depend on how many epochs this machine
  /// manages in the window.
  size_t round_epochs;
  /// Setup repetitions before the window; an untraced run adds one per
  /// round (setup_s is the median of all).
  size_t setup_reps;
};

struct ServeSizes {
  size_t nodes;
  size_t edges;
  size_t clients;
  size_t bfs_sources;
  size_t templates;
  double window_frac;
  /// Host-graph reads per session; about `writes_per_session` of them are
  /// preceded by a write group, and `results_after_read` of them are
  /// followed by a result fetch.
  size_t reads_per_session;
  size_t writes_per_session;
  double results_after_read;
  /// Requests per client schedule: more than any run sends.
  size_t schedule_length;
  size_t setup_reps;
  /// Requests (all clients) after which peak RSS is read.
  size_t rss_requests;
};

inline BatchSizes BatchSizesFor(bool smoke) {
  if (smoke) {
    return {.nodes = 2000, .edges = 20000, .views = 6, .window_frac = 0.05,
            .pagerank_iterations = 4, .setup_reps = 2, .min_ops = 2,
            .sharded_workers = 4};
  }
  return {.nodes = 5000, .edges = 500000, .views = 16,
          .window_frac = 0.00008, .pagerank_iterations = 8, .setup_reps = 7,
          .min_ops = 5, .sharded_workers = 4};
}

inline LiveSizes LiveSizesFor(bool smoke) {
  if (smoke) {
    return {.nodes = 2000, .edges = 20000, .window_frac = 0.05,
            .batch_size = 50, .warmup_epochs = 2, .round_epochs = 10,
            .setup_reps = 2};
  }
  return {.nodes = 20000, .edges = 200000, .window_frac = 0.0015,
          .batch_size = 50, .warmup_epochs = 3, .round_epochs = 200,
          .setup_reps = 3};
}

inline ServeSizes ServeSizesFor(bool smoke) {
  if (smoke) {
    return {.nodes = 1000, .edges = 5000, .clients = 3, .bfs_sources = 2,
            .templates = 2, .window_frac = 0.05, .reads_per_session = 10,
            .writes_per_session = 2, .results_after_read = 0.2,
            .schedule_length = 200, .setup_reps = 2, .rss_requests = 50};
  }
  return {.nodes = 5000, .edges = 25000, .clients = 3, .bfs_sources = 4,
          .templates = 4, .window_frac = 0.02, .reads_per_session = 34,
          .writes_per_session = 2, .results_after_read = 0.1,
          .schedule_length = 4000, .setup_reps = 7, .rss_requests = 250};
}

}  // namespace perfbench

#endif  // PERFBENCH_SIZES_H_
