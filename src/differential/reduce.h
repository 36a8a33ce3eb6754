// Differential group-by-key reduction.
//
// For each key, the operator maintains the full timestamped input history
// and the output history it has emitted. When diffs for a key arrive at
// time t it re-evaluates the user function at every "interesting" time —
// the lub-closure of {t} over the key's input history — and emits output
// corrections `f(input@u) - output@u`. This is DD's reduce restricted to
// totally ordered versions; the closure argument for correctness under
// arbitrary processing order is spelled out in DESIGN.md §3.1.
//
// Accumulations are served from a persistent per-key *iteration-major*
// history (KeyState) instead of walking the trace on every evaluation: at
// any evaluation time every history entry's version is ≤ the current
// version (entries are only inserted at already-processed times), so at
// scope depth ≤ 1 membership of an entry in the accumulation depends on
// its innermost iteration coordinate alone. Keeping the history sorted by
// iteration with a cursor makes each evaluation O(entries between the
// previous and current iteration) — independent of how many versions or
// epochs the trace spans — and lets retract/insert pairs landing at the
// same iteration in different epochs cancel, which the trace itself can
// never do (it must keep version distinctions until they seal).
#ifndef GRAPHSURGE_DIFFERENTIAL_REDUCE_H_
#define GRAPHSURGE_DIFFERENTIAL_REDUCE_H_

#include <algorithm>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "differential/arrange.h"
#include "differential/dataflow.h"
#include "differential/exchange.h"
#include "differential/trace.h"

namespace gs::differential {

/// Reduce with user function
///   void fn(const K& key, const Batch<V>& input, Batch<Out>* output)
/// where `input` is the key's consolidated value multiset (counts normally
/// positive; transiently negative counts are possible mid-fixpoint and must
/// be tolerated) and `output` receives the desired output multiset.
/// Keys whose input multiset is empty produce no output (DD convention).
///
/// The input history is either owned (stream constructor: the operator
/// indexes its exchanged input itself) or shared (Arranged constructor: the
/// operator reads the arrangement's trace and only tracks which keys were
/// touched — no second copy of the index). The output history doubles as an
/// arrangement: arranged() exposes it for downstream sharing, which is
/// sound because the deltas are inserted into the output trace before they
/// are published.
template <typename K, typename V, typename Out, typename Fn>
class ReduceOp : public OperatorBase {
 public:
  ReduceOp(Dataflow* dataflow, Stream<std::pair<K, V>> in, Fn fn)
      : OperatorBase(dataflow, "reduce"),
        fn_(std::move(fn)),
        input_(&owned_input_) {
    RegisterOutput(&output_);
    in.publisher()->Subscribe(
        dataflow, order(),
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          port_.Append(t, b);
          RequestRun(t);
        });
  }

  ReduceOp(Dataflow* dataflow, const Arranged<K, V>& in, Fn fn)
      : OperatorBase(dataflow, "reduce"),
        fn_(std::move(fn)),
        input_(in.trace()) {
    dataflow->stats().arrangement_shares++;
    RegisterOutput(&output_);
    in.deltas().publisher()->Subscribe(
        dataflow, order(),
        [this](const Time& t, const Batch<std::pair<K, V>>& b) {
          port_.Append(t, b);
          RequestRun(t);
        });
  }

  Stream<std::pair<K, Out>> stream() {
    return Stream<std::pair<K, Out>>(dataflow_, &output_);
  }

  /// The output history as a shared arrangement (already key-partitioned:
  /// the input was exchanged by key and the output is keyed the same way).
  /// Exposing the output as an arrangement also arms the process-level
  /// arrangement cache for it: a reduce whose output other dataflows could
  /// rebuild identically (e.g. the DistinctArranged adjacency) is exactly
  /// one whose output is shared downstream.
  Arranged<K, Out> arranged() {
    ArmCache();
    return Arranged<K, Out>(&output_trace_, stream());
  }

  void OnStepBegin(uint32_t version) override {
    if (!import_ || version != 0) return;
    // Import mode: replay the cached output deltas downstream instead of
    // evaluating. All snapshot entries sit at Time(0) — the builder only
    // qualified because every evaluation landed there.
    Batch<std::pair<K, Out>> replay;
    replay.reserve(seeded_rows_->size());
    for (const auto& e : *seeded_rows_) {
      replay.push_back(Update<std::pair<K, Out>>{{e.key, e.value}, e.diff});
    }
    seeded_rows_.reset();
    if (!replay.empty()) output_.Publish(dataflow_, Time(0), std::move(replay));
  }

  void OnVersionSealed(uint32_t version) override {
    if (input_ == &owned_input_) owned_input_.CompactTo(version);
    output_trace_.CompactTo(version);
    if (export_) {
      if (version == 0) {
        dataflow_->options().arrcache->PutRows(
            static_cast<int>(order()),
            static_cast<int>(dataflow_->worker_index()),
            output_trace_.ExportConsolidated());
      }
      export_ = false;
    }
  }

  void OnEpochSealed(uint32_t last_version) override {
    if (input_ == &owned_input_) owned_input_.CompactEpoch(last_version);
    output_trace_.CompactEpoch(last_version);
  }

  void CollectMemory(OperatorMemory* out) const override {
    // The shared-arrangement input trace is accounted by its owning
    // ArrangeOp/ReduceOp, never double-counted here.
    if (input_ == &owned_input_) out->AddTrace(owned_input_);
    out->AddTrace(output_trace_);
    out->queued_bytes += port_.buffered_bytes();
    // The iteration-major evaluation index (see KeyState) is auxiliary
    // operator state, reported alongside the queues.
    // Iteration-major evaluation index (KeyState histories), maintained
    // incrementally — SealPhase calls this every version, so walking the
    // whole key map here would dwarf the work being measured. The small
    // per-key accumulations are not counted.
    out->queued_bytes += states_bytes_;
  }

 private:
  /// One entry of the iteration-major history: a trace entry with its
  /// version coordinate dropped. Sound as an evaluation index because
  /// probes only ever look backward along the version axis (see the file
  /// header): at probe time (v, i), entry ≤ probe ⇔ entry.iter ≤ i.
  template <typename U>
  struct IterEntry {
    uint32_t iter;
    U value;
    Diff diff;
  };

  /// Persistent per-key evaluation state — the iteration-major mirror of
  /// the key's input and output histories, plus running accumulations.
  ///
  /// Invariants (built == true):
  ///   - `hist` holds exactly the key's input history (same per-(value,
  ///     iteration) diff sums as the trace), sorted by iteration;
  ///     `out_hist` likewise for the output history.
  ///   - `acc` is the consolidated sum of hist[0, pos), where [0, pos) is
  ///     exactly the entries with iter ≤ cur_iter; `out_acc`/`out_pos`
  ///     mirror this for the output.
  /// Maintained incrementally: every insert into the underlying traces for
  /// this key is mirrored here, either from the key's slice of the arriving
  /// batch (input; ArrangeOp and this op's owned input both insert exactly
  /// the batches they deliver, and batch keys are always evaluated at the
  /// batch's time) or from the emitted delta (output). Trace compaction
  /// cannot invalidate the state: it preserves per-(value, ≤t) diff sums
  /// for every probe time t at or after the frontier, and the mirror holds
  /// copies. Depth ≥ 2 times (nested Iterate) leave the iteration-scalar
  /// regime and fall back to a full trace walk per evaluation.
  struct KeyState {
    std::vector<IterEntry<V>> hist;       // sorted by iter
    std::vector<IterEntry<Out>> out_hist;  // sorted by iter
    Batch<V> acc;
    Batch<Out> out_acc;
    /// Snapshots of (acc, pos) / (out_acc, out_pos) at iteration 0. Every
    /// version's first evaluation of a key lands at iteration 0, so the
    /// cursor's once-per-version backward sweep (from wherever the previous
    /// version converged) is replaced by restoring these — O(accumulation)
    /// instead of O(entries between the iterations).
    Batch<V> base_acc;
    Batch<Out> base_out_acc;
    size_t base_pos = 0;
    size_t base_out_pos = 0;
    size_t pos = 0;      // hist[0, pos) ⇔ iter ≤ cur_iter
    size_t out_pos = 0;  // out_hist[0, out_pos) ⇔ iter ≤ cur_iter
    uint32_t cur_iter = 0;
    size_t hist_lwm = 0;  // size after the last consolidation
    size_t out_lwm = 0;
    bool built = false;
  };
  struct KeyHash {
    size_t operator()(const K& k) const {
      return static_cast<size_t>(HashValue(k));
    }
  };

  // Processing model: a key touched at time t is (re-)evaluated at t only.
  // "Interesting" future times — lubs of t with the key's history — are
  // *scheduled* as pending visits rather than evaluated eagerly; when that
  // time is reached the visit coalesces with any diffs that arrive there
  // anyway. This deferral is what keeps differential re-execution
  // proportional to the change volume (the eager alternative evaluates
  // O(#iterations²) times per key per version).
  // Checks the run's arrangement-cache transaction once, when the output
  // is first exposed as a shared arrangement (arranged()).
  void ArmCache() {
    if (cache_checked_) return;
    cache_checked_ = true;
    ArrCacheTxn* txn = dataflow_->options().arrcache.get();
    if (txn == nullptr) return;
    if (txn->importing()) {
      seeded_rows_ = txn->GetRows<typename Trace<K, Out>::Entry>(
          static_cast<int>(order()),
          static_cast<int>(dataflow_->worker_index()));
      if (seeded_rows_ != nullptr) {
        output_trace_.SeedShared(seeded_rows_);
        import_ = true;
      }
    } else if (txn->building()) {
      export_ = true;
    }
  }

  void RunAt(const Time& time) override {
    if (import_) {
      // Cached slots exist only for reduces whose every evaluation landed
      // at Time(0) during the build; op orders are deterministic per
      // (computation, workers), so this operator's input can only arrive
      // there too. The input deltas are already reflected in the seeded
      // output snapshot — discard them.
      GS_CHECK(time == Time(0))
          << "imported reduce received activity at " << time.ToString();
      port_.Take(time);
      return;
    }
    if (!(time == Time(0))) export_ = false;  // multi-time: not cacheable
    // Take returns the batch consolidated, i.e. sorted by (key, value), so
    // each key's new updates already form one contiguous range handed to
    // EvaluateKeyAt, which mirrors them into the key's iteration-major
    // history instead of re-walking the trace.
    Batch<std::pair<K, V>> batch = port_.Take(time);
#if GRAPHSURGE_PARANOID
    GS_CHECK(SortedByData(batch))
        << "reduce input batch not consolidated at " << time.ToString();
#endif
    if (input_ == &owned_input_) {
      for (const auto& u : batch) {
        owned_input_.Insert(u.data.first, u.data.second, time, u.diff);
      }
    }
    std::vector<K> keys;
    auto pending = pending_keys_.find(time);
    if (pending != pending_keys_.end()) {
      keys = std::move(pending->second);
      pending_keys_.erase(pending);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    if (keys.empty() && batch.empty()) return;

    Batch<std::pair<K, Out>> out;
    // Walk the sorted batch and the sorted pending-visit keys in tandem so
    // each key is evaluated once, with its batch range (possibly empty).
    size_t b = 0, p = 0;
    while (b < batch.size() || p < keys.size()) {
      const K* key;
      size_t b_end = b;
      if (b < batch.size() &&
          (p >= keys.size() || !(keys[p] < batch[b].data.first))) {
        key = &batch[b].data.first;
        while (b_end < batch.size() && batch[b_end].data.first == *key) {
          ++b_end;
        }
        if (p < keys.size() && *key == keys[p]) ++p;  // coalesce the visit
      } else {
        key = &keys[p++];
      }
      EvaluateKeyAt(*key, time, batch.data() + b, batch.data() + b_end, &out);
      b = b_end;
    }
    // All per-key deltas may cancel (e.g. a retraction and re-assertion of
    // the same minimum); publishing the empty batch would still bump stats
    // and wake subscribers for nothing.
    if (!out.empty()) output_.Publish(dataflow_, time, std::move(out));
  }

  // Registers a future re-evaluation of `key` at `u`. Duplicates are fine:
  // RunAt sorts and uniques the visit list, so the pending containers can
  // be plain append-only vectors (no per-visit node allocation).
  void ScheduleKeyVisit(const Time& u, const K& key) {
    pending_keys_[u].push_back(key);
    RequestRun(u);  // deduplicated by OperatorBase
  }

  // Schedules a visit of `key` at (time.version, iter) for every distinct
  // iteration in hist[pos, end) — the lubs of `time` with the entries still
  // ahead of the cursor. Called when the key's input changes (new batch
  // deltas or first build): the lub-closure at depth ≤ 1 is exactly "every
  // future iteration present in the history at the current version", and
  // within one version those lubs are the same at every later evaluation,
  // so pure scheduled visits never need to re-schedule.
  template <typename U>
  void ScheduleTailVisits(const Time& time,
                          const std::vector<IterEntry<U>>& hist, size_t pos,
                          const K& key) {
    if (pos >= hist.size()) return;
    // A depth-0 probe's lub with any entry collapses to the probe time
    // itself (no iteration coordinate to raise) — nothing to schedule.
    if (time.depth == 0) return;
    Time u = time;
    uint32_t last = 0;
    bool first = true;
    for (size_t i = pos; i < hist.size(); ++i) {
      if (first || hist[i].iter != last) {
        first = false;
        last = hist[i].iter;
        u.iters[time.depth - 1] = last;
        ScheduleKeyVisit(u, key);
      }
    }
  }

  // Adds `diff` to `value`'s count in the sorted accumulation, keeping it
  // sorted by value. Counts may reach zero; the zombie entry is left in
  // place (user functions tolerate zero counts mid-fixpoint) and purged
  // lazily once the accumulation grows past PurgeZeros' threshold — far
  // cheaper than re-consolidating the whole batch on every cursor move.
  template <typename U>
  static void AccAdd(Batch<U>* acc, const U& value, Diff diff) {
    auto it = std::lower_bound(
        acc->begin(), acc->end(), value,
        [](const Update<U>& u, const U& v) { return u.data < v; });
    if (it != acc->end() && it->data == value) {
      it->diff += diff;
      return;
    }
    acc->insert(it, Update<U>{value, diff});
  }

  template <typename U>
  static void PurgeZeros(Batch<U>* acc) {
    if (acc->size() < 64) return;
    acc->erase(std::remove_if(acc->begin(), acc->end(),
                              [](const Update<U>& u) { return u.diff == 0; }),
               acc->end());
  }

  // Moves the cursor of (hist, pos, acc) to iteration `iter`, folding
  // crossed entries into `acc` (negated when moving backward — a new
  // version can re-enter the loop at a lower iteration than the previous
  // version converged at).
  template <typename U>
  static void SeekCursor(std::vector<IterEntry<U>>* hist, size_t* pos,
                         uint32_t iter, Batch<U>* acc) {
    while (*pos < hist->size() && (*hist)[*pos].iter <= iter) {
      const IterEntry<U>& e = (*hist)[(*pos)++];
      AccAdd(acc, e.value, e.diff);
    }
    while (*pos > 0 && (*hist)[*pos - 1].iter > iter) {
      const IterEntry<U>& e = (*hist)[--(*pos)];
      AccAdd(acc, e.value, -e.diff);
    }
  }

  // Consolidates `hist` by (iteration, value) once it has grown 2× past
  // the last consolidated size: cross-epoch retract/insert pairs landing
  // at the same iteration cancel, keeping the evaluation index near the
  // converged-history size. Iterations are never merged with each other —
  // probes at intermediate iterations still tell them apart. The prefix
  // sums by iteration are preserved, so `acc` stays valid; only the cursor
  // index needs recomputing.
  /// Index of the first entry with iter > `iter` in a sorted history.
  template <typename U>
  static size_t PrefixEnd(const std::vector<IterEntry<U>>& hist,
                          uint32_t iter) {
    return static_cast<size_t>(
        std::partition_point(hist.begin(), hist.end(),
                             [iter](const IterEntry<U>& e) {
                               return e.iter <= iter;
                             }) -
        hist.begin());
  }

  template <typename U>
  static bool MaybeConsolidateHist(std::vector<IterEntry<U>>* hist,
                                   size_t* pos, size_t* lwm,
                                   uint32_t cur_iter) {
    if (hist->size() < 32 || hist->size() < 2 * *lwm) return false;
    std::sort(hist->begin(), hist->end(),
              [](const IterEntry<U>& a, const IterEntry<U>& b) {
                if (a.iter != b.iter) return a.iter < b.iter;
                return a.value < b.value;
              });
    size_t out = 0;
    for (size_t i = 0; i < hist->size();) {
      size_t j = i;
      Diff total = 0;
      while (j < hist->size() && (*hist)[j].iter == (*hist)[i].iter &&
             (*hist)[j].value == (*hist)[i].value) {
        total += (*hist)[j].diff;
        ++j;
      }
      if (total != 0) {
        (*hist)[out] = (*hist)[i];
        (*hist)[out].diff = total;
        ++out;
      }
      i = j;
    }
    hist->resize(out);
    *lwm = out;
    *pos = PrefixEnd(*hist, cur_iter);
    return true;
  }

  // First touch of a key: mirrors its trace history (input and output)
  // into iteration-major form and parks the cursor at `time`.
  void BuildKeyState(const K& key, const Time& time, KeyState* state) {
    const uint32_t iter0 = time.iters[0];
    state->hist.clear();
    state->out_hist.clear();
    state->acc.clear();
    state->out_acc.clear();
    input_->ForEach(key, [&](const V& value, const Time& t, Diff diff) {
      state->hist.push_back(IterEntry<V>{t.iters[0], value, diff});
    });
    output_trace_.ForEach(key, [&](const Out& value, const Time& t,
                                   Diff diff) {
      state->out_hist.push_back(IterEntry<Out>{t.iters[0], value, diff});
    });
    auto by_iter_v = [](const IterEntry<V>& a, const IterEntry<V>& b) {
      return a.iter < b.iter;
    };
    auto by_iter_o = [](const IterEntry<Out>& a, const IterEntry<Out>& b) {
      return a.iter < b.iter;
    };
    std::sort(state->hist.begin(), state->hist.end(), by_iter_v);
    std::sort(state->out_hist.begin(), state->out_hist.end(), by_iter_o);
    state->hist_lwm = state->hist.size();
    state->out_lwm = state->out_hist.size();
    state->pos = 0;
    state->out_pos = 0;
    SeekCursor(&state->hist, &state->pos, 0, &state->acc);
    SeekCursor(&state->out_hist, &state->out_pos, 0, &state->out_acc);
    state->base_acc = state->acc;
    state->base_out_acc = state->out_acc;
    state->base_pos = state->pos;
    state->base_out_pos = state->out_pos;
    SeekCursor(&state->hist, &state->pos, iter0, &state->acc);
    SeekCursor(&state->out_hist, &state->out_pos, iter0, &state->out_acc);
    state->cur_iter = iter0;
    state->built = true;
    states_bytes_ += state->hist.size() * sizeof(IterEntry<V>) +
                     state->out_hist.size() * sizeof(IterEntry<Out>);
    ScheduleTailVisits(time, state->hist, state->pos, key);
  }

  // Evaluates `key` at exactly `time`; [nb, ne) is the key's slice of the
  // batch that arrived there (already inserted into the trace; the mirror
  // folds it in here).
  void EvaluateKeyAt(const K& key, const Time& time,
                     const Update<std::pair<K, V>>* nb,
                     const Update<std::pair<K, V>>* ne,
                     Batch<std::pair<K, Out>>* out) {
    // No early-out on an empty input history: eager spine consolidation can
    // cancel a key's input to nothing while an output retraction is still
    // owed, so the (empty input → empty desired → negative delta) path must
    // always run.
    if (input_ != &owned_input_) dataflow_->stats().arrangement_probes += 1;
    dataflow_->stats().reduce_evaluations++;

    if (time.depth > 1) {
      EvaluateDeepKeyAt(key, time, out);
      return;
    }
    const uint32_t iter0 = time.iters[0];  // zero-padded → 0 at depth 0

    KeyState& state = states_[key];
    bool was_built = state.built;
    if (!state.built) {
      BuildKeyState(key, time, &state);
    } else {
      if (iter0 == 0 && state.cur_iter > 0) {
        state.acc = state.base_acc;
        state.out_acc = state.base_out_acc;
        state.pos = state.base_pos;
        state.out_pos = state.base_out_pos;
      } else {
        SeekCursor(&state.hist, &state.pos, iter0, &state.acc);
        SeekCursor(&state.out_hist, &state.out_pos, iter0, &state.out_acc);
        PurgeZeros(&state.acc);
        PurgeZeros(&state.out_acc);
      }
      state.cur_iter = iter0;
    }
    if (was_built && nb != ne) {
      // Input changed at `time`: schedule the lub-closure over the entries
      // ahead of the cursor, then mirror the new deltas into the prefix.
      ScheduleTailVisits(time, state.hist, state.pos, key);
      for (const auto* u = nb; u != ne; ++u) {
        state.hist.insert(
            state.hist.begin() + state.pos,
            IterEntry<V>{iter0, u->data.second, u->diff});
        ++state.pos;
        AccAdd(&state.acc, u->data.second, u->diff);
        if (iter0 == 0) {
          AccAdd(&state.base_acc, u->data.second, u->diff);
          ++state.base_pos;
        }
      }
      if (iter0 == 0) PurgeZeros(&state.base_acc);
      states_bytes_ +=
          static_cast<size_t>(ne - nb) * sizeof(IterEntry<V>);
      size_t before = state.hist.size();
      if (MaybeConsolidateHist(&state.hist, &state.pos, &state.hist_lwm,
                               state.cur_iter)) {
        state.base_pos = PrefixEnd(state.hist, 0u);
      }
      states_bytes_ -= (before - state.hist.size()) * sizeof(IterEntry<V>);
    }
#if GRAPHSURGE_PARANOID
    // Cross-check the mirror against a direct trace walk (skipped when the
    // fuzzer plants a lost-insert bug in the trace on purpose).
    if (fuzz::GlobalHooks().drop_insert_at == 0) {
      Batch<V> check;
      input_->Accumulate(key, time, &check);
      Batch<V> mirror = state.acc;
      Consolidate(&mirror);
      GS_CHECK(SameBatch(check, mirror))
          << "iteration-major input mirror diverged from trace at "
          << time.ToString();
      Batch<Out> out_check;
      output_trace_.Accumulate(key, time, &out_check);
      Batch<Out> out_mirror = state.out_acc;
      Consolidate(&out_mirror);
      GS_CHECK(SameBatch(out_check, out_mirror))
          << "iteration-major output mirror diverged from trace at "
          << time.ToString();
    }
#endif
    Batch<Out>& desired = scratch_desired_;
    desired.clear();
    // The user function must see a genuinely empty batch when every count
    // has cancelled — zombie zero-count entries would make sum-style
    // aggregates emit a spurious zero record — so drop them eagerly here
    // (PurgeZeros elsewhere is threshold-gated for cursor-move cost only).
    state.acc.erase(
        std::remove_if(state.acc.begin(), state.acc.end(),
                       [](const Update<V>& u) { return u.diff == 0; }),
        state.acc.end());
    if (!state.acc.empty()) {
      fn_(key, state.acc, &desired);
      Consolidate(&desired);
    }

    // delta = desired - current (both consolidated & sorted).
    const Batch<Out>& current = state.out_acc;
    Batch<Out>& delta = scratch_delta_;
    delta.clear();
    size_t i = 0, j = 0;
    while (i < desired.size() || j < current.size()) {
      if (j >= current.size() ||
          (i < desired.size() && desired[i].data < current[j].data)) {
        delta.push_back(desired[i++]);
      } else if (i >= desired.size() || current[j].data < desired[i].data) {
        if (current[j].diff != 0) {
          delta.push_back(Update<Out>{current[j].data, -current[j].diff});
        }
        ++j;
      } else {
        Diff d = desired[i].diff - current[j].diff;
        if (d != 0) delta.push_back(Update<Out>{desired[i].data, d});
        ++i;
        ++j;
      }
    }
    if (delta.empty()) return;
    dataflow_->stats().AddShardWork(HashValue(key),
                                    state.acc.size() + delta.size());
    for (const Update<Out>& d : delta) {
      output_trace_.Insert(key, d.data, time, d.diff);
      state.out_hist.insert(state.out_hist.begin() + state.out_pos,
                            IterEntry<Out>{iter0, d.data, d.diff});
      ++state.out_pos;
      out->push_back(Update<std::pair<K, Out>>{{key, d.data}, d.diff});
    }
    states_bytes_ += delta.size() * sizeof(IterEntry<Out>);
    // The output at `time` now equals `desired` by construction.
    state.out_acc = desired;
    if (iter0 == 0) {
      state.base_out_acc = desired;
      state.base_out_pos = state.out_pos;
    }
    size_t out_before = state.out_hist.size();
    if (MaybeConsolidateHist(&state.out_hist, &state.out_pos, &state.out_lwm,
                             state.cur_iter)) {
      state.base_out_pos = PrefixEnd(state.out_hist, 0u);
    }
    states_bytes_ -=
        (out_before - state.out_hist.size()) * sizeof(IterEntry<Out>);
  }

#if GRAPHSURGE_PARANOID
  template <typename U>
  static bool SameBatch(const Batch<U>& a, const Batch<U>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (!(a[i].data == b[i].data) || a[i].diff != b[i].diff) return false;
    }
    return true;
  }
#endif

  // Depth ≥ 2 evaluation (nested Iterate): outside the iteration-scalar
  // regime the mirror's membership rule breaks, so accumulate straight
  // from the traces and re-derive the interesting times every evaluation.
  void EvaluateDeepKeyAt(const K& key, const Time& time,
                         Batch<std::pair<K, Out>>* out) {
    Batch<V>& in_u = scratch_in_;
    in_u.clear();
    scratch_future_.clear();
    input_->AccumulateWithFutures(key, time, &in_u, &scratch_future_);
    if (!scratch_future_.empty()) {
      scratch_lubs_.clear();
      for (const auto& fe : scratch_future_) {
        scratch_lubs_.push_back(time.Lub(fe.first));
      }
      std::sort(scratch_lubs_.begin(), scratch_lubs_.end(), TimeLexLess{});
      scratch_lubs_.erase(
          std::unique(scratch_lubs_.begin(), scratch_lubs_.end()),
          scratch_lubs_.end());
      for (const Time& u : scratch_lubs_) ScheduleKeyVisit(u, key);
    }

    Batch<Out>& desired = scratch_desired_;
    desired.clear();
    if (!in_u.empty()) {
      fn_(key, in_u, &desired);
      Consolidate(&desired);
    }

    Batch<Out>& current = scratch_current_;
    current.clear();
    output_trace_.Accumulate(key, time, &current);

    Batch<Out>& delta = scratch_delta_;
    delta.clear();
    size_t i = 0, j = 0;
    while (i < desired.size() || j < current.size()) {
      if (j >= current.size() ||
          (i < desired.size() && desired[i].data < current[j].data)) {
        delta.push_back(desired[i++]);
      } else if (i >= desired.size() || current[j].data < desired[i].data) {
        delta.push_back(Update<Out>{current[j].data, -current[j].diff});
        ++j;
      } else {
        Diff d = desired[i].diff - current[j].diff;
        if (d != 0) delta.push_back(Update<Out>{desired[i].data, d});
        ++i;
        ++j;
      }
    }
    if (delta.empty()) return;
    dataflow_->stats().AddShardWork(HashValue(key),
                                    in_u.size() + delta.size());
    for (const Update<Out>& d : delta) {
      output_trace_.Insert(key, d.data, time, d.diff);
      out->push_back(Update<std::pair<K, Out>>{{key, d.data}, d.diff});
    }
  }

  Fn fn_;
  InputPort<std::pair<K, V>> port_;
  std::map<Time, std::vector<K>, TimeLexLess> pending_keys_;
  Trace<K, V> owned_input_;
  const Trace<K, V>* input_;  // &owned_input_ or a shared arrangement
  Trace<K, Out> output_trace_;
  Publisher<std::pair<K, Out>> output_;
  std::unordered_map<K, KeyState, KeyHash> states_;
  size_t states_bytes_ = 0;  // history bytes across states_, kept in sync
  Batch<V> scratch_in_;
  Batch<Out> scratch_desired_;
  Batch<Out> scratch_current_;
  Batch<Out> scratch_delta_;
  std::vector<Time> scratch_lubs_;
  std::vector<std::pair<Time, Update<V>>> scratch_future_;
  // Process-level arrangement cache participation (see ArmCache).
  bool cache_checked_ = false;
  bool import_ = false;  // output seeded from the cache; skip evaluation
  bool export_ = false;  // builder run; snapshot the output at version 0 seal
  std::shared_ptr<const std::vector<typename Trace<K, Out>::Entry>>
      seeded_rows_;
};

/// Groups a keyed stream and applies `fn` per key (see ReduceOp). Reduce is
/// a key-repartitioning boundary: in sharded execution the input is
/// exchanged by key hash first, so each shard evaluates only the keys it
/// owns.
template <typename Out, typename K, typename V, typename Fn>
Stream<std::pair<K, Out>> Reduce(Stream<std::pair<K, V>> in, Fn fn) {
  in = ExchangeByKey(in);
  auto* op = in.dataflow()->template AddOperator<ReduceOp<K, V, Out, Fn>>(
      in, std::move(fn));
  return op->stream();
}

/// Keeps, per key, the minimum value with multiplicity one (e.g. shortest
/// distance, smallest component label). Values with non-positive net counts
/// are ignored.
template <typename K, typename V>
Stream<std::pair<K, V>> ReduceMin(Stream<std::pair<K, V>> in) {
  return Reduce<V>(in, [](const K&, const Batch<V>& input, Batch<V>* output) {
    const V* best = nullptr;
    for (const Update<V>& u : input) {
      if (u.diff > 0 && (best == nullptr || u.data < *best)) best = &u.data;
    }
    if (best != nullptr) output->push_back(Update<V>{*best, 1});
  });
}

/// Keeps, per key, the maximum value with multiplicity one.
template <typename K, typename V>
Stream<std::pair<K, V>> ReduceMax(Stream<std::pair<K, V>> in) {
  return Reduce<V>(in, [](const K&, const Batch<V>& input, Batch<V>* output) {
    const V* best = nullptr;
    for (const Update<V>& u : input) {
      if (u.diff > 0 && (best == nullptr || *best < u.data)) best = &u.data;
    }
    if (best != nullptr) output->push_back(Update<V>{*best, 1});
  });
}

/// Per-key count of records (with multiplicity).
template <typename K, typename V>
Stream<std::pair<K, int64_t>> Count(Stream<std::pair<K, V>> in) {
  return Reduce<int64_t>(
      in, [](const K&, const Batch<V>& input, Batch<int64_t>* output) {
        Diff total = 0;
        for (const Update<V>& u : input) total += u.diff;
        if (total != 0) output->push_back(Update<int64_t>{total, 1});
      });
}

/// Set-semantics projection: every record present with positive count
/// appears exactly once.
template <typename D>
Stream<D> Distinct(Stream<D> in) {
  auto keyed = in.Map([](const D& d) { return std::make_pair(d, true); });
  auto reduced = Reduce<bool>(
      keyed, [](const D&, const Batch<bool>& input, Batch<bool>* output) {
        Diff total = 0;
        for (const Update<bool>& u : input) total += u.diff;
        if (total > 0) output->push_back(Update<bool>{true, 1});
      });
  return reduced.Map([](const std::pair<D, bool>& p) { return p.first; });
}

/// Groups a shared arrangement and applies `fn` per key. No input index is
/// built — the reduce reads the arrangement's trace directly.
template <typename Out, typename K, typename V, typename Fn>
Stream<std::pair<K, Out>> ReduceArranged(const Arranged<K, V>& in, Fn fn) {
  auto* op =
      in.dataflow()->template AddOperator<ReduceOp<K, V, Out, Fn>>(
          in, std::move(fn));
  return op->stream();
}

/// Per-key set-semantics projection producing a shared arrangement: each
/// (key, value) with positive net count appears exactly once, and the
/// deduplicated index is owned by the reduce's output trace — the canonical
/// way to build a deduplicated adjacency arrangement (key = src,
/// value = dst) that many joins then probe for free.
template <typename K, typename V>
Arranged<K, V> DistinctArranged(Stream<std::pair<K, V>> in) {
  in = ExchangeByKey(in);
  auto fn = [](const K&, const Batch<V>& input, Batch<V>* output) {
    // `input` is consolidated: one entry per distinct value with its net
    // count.
    for (const Update<V>& u : input) {
      if (u.diff > 0) output->push_back(Update<V>{u.data, 1});
    }
  };
  auto* op =
      in.dataflow()->template AddOperator<ReduceOp<K, V, V, decltype(fn)>>(
          in, std::move(fn));
  return op->arranged();
}

/// Per-key count over a shared arrangement, itself exposed as an
/// arrangement (e.g. out-degrees over an arranged edge set).
template <typename K, typename V>
Arranged<K, int64_t> CountArranged(const Arranged<K, V>& in) {
  auto fn = [](const K&, const Batch<V>& input, Batch<int64_t>* output) {
    Diff total = 0;
    for (const Update<V>& u : input) total += u.diff;
    if (total != 0) output->push_back(Update<int64_t>{total, 1});
  };
  auto* op =
      in.dataflow()
          ->template AddOperator<ReduceOp<K, V, int64_t, decltype(fn)>>(
              in, std::move(fn));
  return op->arranged();
}

}  // namespace gs::differential

#endif  // GRAPHSURGE_DIFFERENTIAL_REDUCE_H_
