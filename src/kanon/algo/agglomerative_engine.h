#ifndef KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
#define KANON_ALGO_AGGLOMERATIVE_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "kanon/algo/agglomerative.h"
#include "kanon/algo/core/closure_store.h"
#include "kanon/algo/core/cluster_set.h"
#include "kanon/algo/core/merge_heap.h"
#include "kanon/algo/policy.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/common/parallel.h"
#include "kanon/common/result.h"
#include "kanon/loss/kernels.h"
#include "kanon/telemetry/metrics.h"
#include "kanon/telemetry/tracer.h"

// The templated agglomerative engine (docs/policy_engine.md): Algorithm 1/2
// on the shared clustering core, with the cluster distance supplied by a
// ClusterPolicy as an inlinable hook instead of the runtime EvalDistance
// switch. The five built-in policies are explicitly instantiated in
// agglomerative.cc (and extern-declared below); a new distance instantiates
// the engine from its own translation unit without touching this header.

namespace kanon {

namespace internal {

// Sweeps whose per-item work is only O(r) (a handful of join-table lookups)
// run inline below this size; the heavy O(n·r)-per-item scans always fan
// out. Purely an overhead knob — results are identical either way.
inline constexpr size_t kAgglomerativeCheapSweepSerialBelow = 2048;

// Row blocks of the singleton init's triangle (fewer when n is smaller).
// Fixed, so the blocks are a pure function of n; eight keep the partials at
// about 4.8·n CandidatePairs (760 KB at n = 4000).
inline constexpr size_t kSingletonInitBlocks = 8;

// First rows of the init's row blocks: block b is [begin[b], begin[b + 1]),
// with begin[0] = 0 and begin[blocks] = n. Row i prices n - 1 - i pairs, so
// the rows are cut by equal work rather than equal count: the rows from
// begin[b] on price about (n - begin[b])²/2 pairs, which is set to
// (blocks - b)/blocks of the n²/2 total. Each block then prices about
// 1/blocks of the pairs once n reaches a few hundred; for small n a block
// may be empty.
inline std::vector<size_t> SingletonInitBlockBegins(size_t n) {
  const size_t blocks = std::min(n, kSingletonInitBlocks);
  std::vector<size_t> begin(blocks + 1, n);
  for (size_t b = 0; b < blocks; ++b) {
    const double share = static_cast<double>(blocks - b) /
                         static_cast<double>(blocks);
    begin[b] = n - static_cast<size_t>(
                       std::floor(static_cast<double>(n) * std::sqrt(share)));
  }
  return begin;
}

// The exact two-best of every singleton 0..n-1 of `slots` over all the
// others: (*out)[i] is what OfferToTwoBest picks when offered every y != i
// in ascending y. The distances are functions of the unordered pair, so each
// pair's union cost is priced once, from the anchor cost row of its smaller
// row, and offered in both directions (the policy is evaluated per
// direction: its arithmetic is not symmetric bit for bit).
//
// The rows are cut into blocks B_0 < B_1 < ... (SingletonInitBlockBegins);
// the task of block b prices every pair whose smaller row lies in B_b. Its
// rows' own accumulators in (*out) collect every partner from B_b on; each
// later row y gets one partial over the partners in B_b, written by that
// task alone. A row's partials and own accumulator cover ascending partner
// ranges, so merging them in block order is the serial ascending scan (the
// chunk-merge identity of ComputeTwoBest). Each anchor row checks the
// agglomerative.closure failpoint and polls `ctx` for a stop; a stop leaves
// (*out) unspecified and returns completed = false. It waits for the row
// each running task is pricing, at most n - 1 pairs.
template <typename Policy>
Result<SweepStatus> SingletonTwoBests(const LossKernels& kernels,
                                      const ClusterSlots& slots, size_t n,
                                      const Policy& policy, int num_threads,
                                      RunContext* ctx,
                                      std::vector<CandidatePair>* out) {
  const std::vector<size_t> block_begin = SingletonInitBlockBegins(n);
  const size_t blocks = block_begin.size() - 1;
  // Block b's partials of the rows after it start at later_base[b].
  std::vector<size_t> later_base(blocks + 1, 0);
  for (size_t b = 0; b < blocks; ++b) {
    later_base[b + 1] = later_base[b] + (n - block_begin[b + 1]);
  }
  std::vector<CandidatePair> later(later_base[blocks]);
  out->assign(n, CandidatePair());
  std::vector<Status> errors(blocks);
  std::atomic<int> stop{0};  // The first StopReason a row poll saw, or 0.
  const SweepStatus sweep = Sweep(
      blocks, num_threads, ctx, "agglomerative/init",
      [&](size_t /*chunk*/, size_t first_block, size_t end_block) {
        std::vector<double> row(kernels.cost_row_size());
        for (size_t b = first_block; b < end_block; ++b) {
          const size_t end = block_begin[b + 1];
          CandidatePair* const later_b = later.data() + later_base[b];
          for (size_t i = block_begin[b]; i < end; ++i) {
            if (ctx != nullptr) {
              const StopReason r = ctx->StopRequested();
              if (r != StopReason::kNone) {
                stop.store(static_cast<int>(r), std::memory_order_relaxed);
                return;
              }
            }
            if (failpoint::AnyArmed()) {
              Status s = failpoint::Check("agglomerative.closure");
              if (!s.ok()) {
                errors[b] = std::move(s);
                return;
              }
            }
            const uint32_t x = static_cast<uint32_t>(i);
            kernels.AnchorCostRow(slots.sets(x), row.data());
            const double cost_x = slots.cost(x);
            CandidatePair own = (*out)[i];
            const auto price = [&](size_t y, CandidatePair* partner) {
              const uint32_t y32 = static_cast<uint32_t>(y);
              const double cost_y = slots.cost(y32);
              const double p =
                  kernels.UnionCostFromRow(row.data(), slots.sets(y32));
              OfferToTwoBest(&own, y32,
                             policy.Distance(1, 1, 2, cost_x, cost_y, p));
              OfferToTwoBest(partner, x,
                             policy.Distance(1, 1, 2, cost_y, cost_x, p));
            };
            for (size_t y = i + 1; y < end; ++y) price(y, &(*out)[y]);
            for (size_t y = end; y < n; ++y) price(y, &later_b[y - end]);
            (*out)[i] = own;
          }
        }
      });
  for (Status& s : errors) {
    if (!s.ok()) return std::move(s);
  }
  if (const int r = stop.load(std::memory_order_relaxed); r != 0) {
    ctx->NoteStop(static_cast<StopReason>(r));
    return SweepStatus{false, sweep.slots};
  }
  if (!sweep.completed) return sweep;
  for (size_t row_block = 0; row_block < blocks; ++row_block) {
    for (size_t y = block_begin[row_block]; y < block_begin[row_block + 1];
         ++y) {
      CandidatePair c;
      const auto merge = [&c](const CandidatePair& part) {
        OfferToTwoBest(&c, part.c1, part.d1);
        OfferToTwoBest(&c, part.c2, part.d2);
      };
      for (size_t b = 0; b < row_block; ++b) {
        merge(later[later_base[b] + (y - block_begin[b + 1])]);
      }
      merge((*out)[y]);
      c.second_valid = true;
      (*out)[y] = c;
    }
  }
  return sweep;
}

// The basic and modified variants of Algorithm 1, rewritten on the shared
// clustering core: ClusterSet owns the alive/dead bookkeeping, ClosureStore
// hash-conses every cluster closure (and memoizes its cost), ClusterSlots
// mirrors each active cluster's closure, size and cost into one flat slot
// for the sweeps, and MergeHeap carries the two-best candidates with one
// heap entry per cluster. `Policy` supplies the distance and the
// (a)symmetry of the merge rule; both inline into the sweeps.
template <typename Policy>
class AgglomerativeEngine {
  KANON_ASSERT_CLUSTER_POLICY(Policy);

 public:
  AgglomerativeEngine(const Dataset& dataset, const PrecomputedLoss& loss,
                      size_t k, const AgglomerativeOptions& options,
                      const Policy& policy)
      : dataset_(dataset),
        loss_(loss),
        scheme_(loss.scheme()),
        k_(k),
        options_(options),
        policy_(policy),
        ctx_(options.run_context),
        tracer_(CurrentTracer()),
        merge_cost_(CurrentMetrics() == nullptr
                        ? nullptr
                        : CurrentMetrics()->GetHistogram(
                              "merge.cost", {0.05, 0.1, 0.2, 0.3, 0.4, 0.5,
                                             0.6, 0.7, 0.8, 0.9, 1.0})),
        kernels_(dataset, loss),
        store_(loss),
        slots_(dataset.num_attributes()),
        anchor_row_(kernels_.cost_row_size()) {}

  Result<Clustering> Run() {
    {
      PhaseSpan span(tracer_, "agglomerative/init");
      KANON_RETURN_NOT_OK(InitSingletons());
    }
    {
      PhaseSpan span(tracer_, "agglomerative/heap-drain");
      KANON_RETURN_NOT_OK(MainLoop());
    }
    PhaseSpan span(tracer_, "agglomerative/finalize");
    if (Stopped()) {
      FinalizeDegraded();
    } else {
      DistributeLeftover();
    }
    store_.ExportCounters(options_.counters);
    Clustering out;
    for (uint32_t id : final_) {
      out.clusters.push_back(std::move(clusters_.cluster(id).members));
    }
    return out;
  }

 private:
  // One cooperative checkpoint per engine iteration.
  bool CheckPoint(const char* stage) {
    return ctx_ != nullptr && ctx_->CheckPoint(stage);
  }

  bool Stopped() const { return ctx_ != nullptr && ctx_->stopped(); }

  void CountChunks(size_t n) {
    if (options_.counters != nullptr) {
      options_.counters->parallel_chunks += ParallelChunkCount(n);
    }
  }

  // d(A ∪ B) computed attribute-wise through the raw join tables and the
  // flat cost rows; O(r), same additions in the same order as the checked
  // accessor loop it replaced. The sweeps use AnchorUnionCost instead.
  double UnionCost(const ClusterData& a, const ClusterData& b) const {
    return kernels_.UnionCost(store_.record(a.closure),
                              store_.record(b.closure));
  }

  // dist(a, b) of two active clusters given d(a ∪ b), read from their
  // flat slots.
  double DistFromUnionCost(uint32_t a, uint32_t b, double d_union) const {
    const size_t size_a = slots_.size(a);
    const size_t size_b = slots_.size(b);
    return policy_.Distance(size_a, size_b, size_a + size_b, slots_.cost(a),
                            slots_.cost(b), d_union);
  }

  // d(anchor ∪ b) for the anchor whose cost row anchor_row_ holds.
  double AnchorUnionCost(uint32_t b) const {
    return kernels_.UnionCostFromRow(anchor_row_.data(), slots_.sets(b));
  }

  double Dist(uint32_t a, uint32_t b) const {
    return DistFromUnionCost(
        a, b, UnionCost(clusters_.cluster(a), clusters_.cluster(b)));
  }

  // Interns a closure and mirrors its memoized cost into the cluster.
  void SetClosure(ClusterData* c, const GeneralizedRecord& closure) {
    c->closure = store_.Intern(closure);
    c->cost = store_.cost(c->closure);
  }

  // Mirrors an active cluster into its flat slot.
  void WriteSlot(uint32_t id) {
    const ClusterData& c = clusters_.cluster(id);
    slots_.Write(id, store_.record(c.closure), c.members.size(), c.cost);
  }

  // Exact two-best of x over every active cluster, O(active · r):
  // chunk-local two-bests merged in chunk order reproduce the ascending
  // scan exactly. The active list holds x itself (so m >= 1) and no dead
  // clusters (RepairAndMaybeAdd compacts it first). The rescan and repair
  // sweeps are unpolled, so on one thread each is one call over [0, m).
  CandidatePair ComputeTwoBest(uint32_t x) {
    const std::vector<uint32_t>& active = clusters_.active();
    const size_t m = active.size();
    kernels_.AnchorCostRow(slots_.sets(x), anchor_row_.data());
    rescan_parts_.resize(ParallelChunkCount(m));
    const SweepStatus sweep = Sweep(
        m, options_.num_threads, nullptr, "agglomerative/rescan",
        [&](size_t chunk, size_t begin, size_t end) {
          CandidatePair local;
          for (size_t t = begin; t < end; ++t) {
            const uint32_t y = active[t];
            if (y == x) continue;
            OfferToTwoBest(&local, y,
                           DistFromUnionCost(x, y, AnchorUnionCost(y)));
          }
          rescan_parts_[chunk] = local;
        },
        kAgglomerativeCheapSweepSerialBelow);
    CandidatePair c;
    for (size_t chunk = 0; chunk < sweep.slots; ++chunk) {
      const CandidatePair& p = rescan_parts_[chunk];
      OfferToTwoBest(&c, p.c1, p.d1);
      OfferToTwoBest(&c, p.c2, p.d2);
    }
    c.second_valid = true;
    return c;
  }

  // Recomputes x's two-best over every active cluster.
  void FullRescan(uint32_t x) {
    PhaseSpan span(tracer_, "agglomerative/rescan");
    if (options_.counters != nullptr) ++options_.counters->rescans;
    CountChunks(clusters_.active().size());
    heap_.candidate(x) = ComputeTwoBest(x);
    heap_.PushCandidate(x);
  }

  // Exhaustively checks that `dist` is the minimum over all alive pairs.
  void VerifyGlobalMinimum(double dist) const {
    for (uint32_t a : clusters_.active()) {
      if (!clusters_.Alive(a)) continue;
      for (uint32_t b : clusters_.active()) {
        if (a == b || !clusters_.Alive(b)) continue;
        KANON_CHECK(Dist(a, b) >= dist - 1e-12,
                    "engine merged a non-minimal pair");
      }
    }
  }

  Status InitSingletons() {
    const size_t n = dataset_.num_rows();
    clusters_.Reserve(2 * n);
    for (uint32_t i = 0; i < n; ++i) {
      ClusterData single;
      single.members = {i};
      clusters_.Activate(clusters_.Add(std::move(single)));
    }
    // Singleton closures, O(n·r); items are disjoint slots. The raw
    // closures land in a scratch array and intern serially after the
    // barrier — ClosureStore is single-threaded by design, and the serial
    // pass prices each distinct closure exactly once.
    std::vector<GeneralizedRecord> raw(n);
    CountChunks(n);
    const SweepStatus closures = Sweep(
        n, options_.num_threads, ctx_, "agglomerative/init",
        [&](size_t /*chunk*/, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) {
            raw[i] = scheme_.Identity(dataset_.row_view(i));
          }
        },
        kAgglomerativeCheapSweepSerialBelow);
    // A stop here leaves the closures unset; the degraded wind-down pools
    // records by membership only, so that is safe.
    if (!closures.completed) return Status::OK();
    {
      PhaseSpan intern_span(tracer_, "agglomerative/closure-intern");
      intern_span.set_items(n);
      for (uint32_t i = 0; i < n; ++i) {
        SetClosure(&clusters_.cluster(i), raw[i]);
        WriteSlot(i);
      }
    }
    raw.clear();
    raw.shrink_to_fit();

    heap_.EnsureSize(n);
    // The all-pairs two-best scan is the O(n²·r) part of setup; it honors
    // the same controls as the merge loop so tight deadlines bail early.
    // Every cluster is still a singleton here, so each pair is priced once
    // (SingletonTwoBests). The counter still charges one n-item sweep.
    // Heap pushes happen after the sweep, on one thread, in index order.
    CountChunks(n);
    std::vector<CandidatePair> two_best;
    KANON_ASSIGN_OR_RETURN(
        const SweepStatus scan,
        SingletonTwoBests(kernels_, slots_, n, policy_, options_.num_threads,
                          ctx_, &two_best));
    if (!scan.completed) return Status::OK();
    for (uint32_t i = 0; i < n; ++i) {
      heap_.candidate(i) = two_best[i];
      heap_.PushCandidate(i);
    }
    return Status::OK();
  }

  void Deactivate(uint32_t c) {
    clusters_.Deactivate(c);
    heap_.NoteDeactivated(c);
  }

  uint32_t NewCluster(ClusterData data) {
    const uint32_t id = clusters_.Add(std::move(data));
    heap_.EnsureSize(id + 1);
    heap_.ResetCandidate(id);
    return id;
  }

  uint32_t Merge(uint32_t a, uint32_t b) {
    ClusterData merged;
    merged.members = clusters_.cluster(a).members;
    merged.members.insert(merged.members.end(),
                          clusters_.cluster(b).members.begin(),
                          clusters_.cluster(b).members.end());
    std::sort(merged.members.begin(), merged.members.end());
    merged.closure =
        store_.InternJoin(clusters_.cluster(a).closure,
                          clusters_.cluster(b).closure);
    merged.cost = store_.cost(merged.closure);
    Deactivate(a);
    Deactivate(b);
    if (options_.counters != nullptr) ++options_.counters->merges;
    return NewCluster(std::move(merged));
  }

  // One pass over the active set after a merge. When `added` is not
  // kNoCluster it is the freshly created cluster: its two-best is built, it
  // is offered to everyone, and it joins the active set. Clusters whose
  // candidates were wiped out are rescanned at the end (rare). The pure
  // O(active·r) distances are precomputed by one sweep (on the worker
  // threads when it fans out), then the order-sensitive Offer/Repair
  // bookkeeping replays them serially in active order, exactly as a serial
  // pass would. The pass first drops the merged pair from the active list,
  // so neither it nor the rescans visit a dead cluster.
  void RepairAndMaybeAdd(uint32_t added) {
    PhaseSpan span(tracer_, "agglomerative/repair");
    // The policy decides at compile time whether the merge rule is
    // direction-sensitive; symmetric policies never price the reverse pair.
    constexpr bool asymmetric = Policy::kAsymmetric;
    clusters_.CompactActive();
    const std::vector<uint32_t>& active = clusters_.active();
    const size_t m = active.size();
    needs_rescan_.clear();
    if (added == kNoCluster) {
      for (uint32_t x : active) {
        if (heap_.Repair(x, kNoCluster, kInfDist)) needs_rescan_.push_back(x);
      }
    } else {
      WriteSlot(added);
      kernels_.AnchorCostRow(slots_.sets(added), anchor_row_.data());
      CountChunks(m);
      d_added_x_.resize(m);
      d_x_added_.resize(m);
      Sweep(
          m, options_.num_threads, nullptr, "agglomerative/repair",
          [&](size_t /*chunk*/, size_t begin, size_t end) {
            for (size_t t = begin; t < end; ++t) {
              const uint32_t x = active[t];
              const double d_union = AnchorUnionCost(x);
              d_added_x_[t] = DistFromUnionCost(added, x, d_union);
              d_x_added_[t] = asymmetric ? DistFromUnionCost(x, added, d_union)
                                         : d_added_x_[t];
            }
          },
          kAgglomerativeCheapSweepSerialBelow);
      for (size_t t = 0; t < m; ++t) {
        const uint32_t x = active[t];
        heap_.Offer(added, x, d_added_x_[t]);
        if (heap_.Repair(x, added, d_x_added_[t])) {
          needs_rescan_.push_back(x);
        } else {
          heap_.Offer(x, added, d_x_added_[t]);
        }
      }
      clusters_.Activate(added);
    }
    for (uint32_t x : needs_rescan_) {
      FullRescan(x);
    }
  }

  // Algorithm 2: shrinks a ripe cluster to exactly k records; ejected
  // records are returned (they re-enter the pool as singletons). Each pass
  // gets every leave-one-out closure from one prefix/suffix join sweep —
  // O(len·r) per ejection instead of O(len²·r).
  std::vector<uint32_t> ShrinkToK(uint32_t id) {
    PhaseSpan span(tracer_, "agglomerative/shrink");
    std::vector<uint32_t> ejected;
    ClusterData& c = clusters_.cluster(id);
    while (c.members.size() > k_) {
      const size_t len = c.members.size();
      std::vector<GeneralizedRecord> loo =
          LeaveOneOutClosures(dataset_, scheme_, c.members);
      loss_.RecordCostMany(loo, &shrink_costs_);
      size_t eject_pos = 0;
      double best_di = -kInfDist;
      for (size_t pos = 0; pos < len; ++pos) {
        // d(Ŝ ∖ {R̂_pos}); dist(Ŝ, Ŝ ∖ {R̂_pos}) has union Ŝ itself.
        const double d_minus = shrink_costs_[pos];
        const double di =
            policy_.Distance(len, len - 1, len, c.cost, d_minus, c.cost);
        if (di > best_di) {
          best_di = di;
          eject_pos = pos;
        }
      }
      ejected.push_back(c.members[eject_pos]);
      c.members.erase(c.members.begin() +
                      static_cast<ptrdiff_t>(eject_pos));
      SetClosure(&c, loo[eject_pos]);
    }
    return ejected;
  }

  uint32_t NewSingleton(uint32_t row) {
    ClusterData single;
    single.members = {row};
    const uint32_t id = NewCluster(std::move(single));
    SetClosure(&clusters_.cluster(id),
               scheme_.Identity(dataset_.row_view(row)));
    return id;
  }

  Status MainLoop() {
    if (Stopped()) return Status::OK();  // Init was interrupted.
    while (clusters_.num_active() > 1) {
      if (CheckPoint("agglomerative/merge")) return Status::OK();
      KANON_FAILPOINT("agglomerative.closure");
      // Invariant A makes the popped pair a globally closest one.
      const MergeCandidate entry = heap_.PopTop();
      KANON_DCHECK(clusters_.Alive(entry.a) && clusters_.Alive(entry.b));
      if (options_.check_exact_merges) {
        VerifyGlobalMinimum(entry.dist);
      }
      if (merge_cost_ != nullptr) merge_cost_->Observe(entry.dist);
      const uint32_t merged = Merge(entry.a, entry.b);
      if (clusters_.cluster(merged).members.size() >= k_) {
        if (options_.modified &&
            clusters_.cluster(merged).members.size() > k_) {
          const std::vector<uint32_t> ejected = ShrinkToK(merged);
          final_.push_back(merged);
          RepairAndMaybeAdd(kNoCluster);
          for (uint32_t row : ejected) {
            RepairAndMaybeAdd(NewSingleton(row));
          }
        } else {
          final_.push_back(merged);
          RepairAndMaybeAdd(kNoCluster);
        }
      } else {
        RepairAndMaybeAdd(merged);
      }
    }
    return Status::OK();
  }

  // Every record of `leftover` joins the final cluster minimizing
  // dist({R}, S) — line 10 of Algorithm 1, shared with the degraded
  // wind-down's straggler path.
  void AttachToNearestFinal(const std::vector<uint32_t>& leftover) {
    for (uint32_t row : leftover) {
      ClusterData single;
      single.members = {row};
      SetClosure(&single, scheme_.Identity(dataset_.row_view(row)));
      size_t best_pos = 0;
      double best_dist = kInfDist;
      for (size_t pos = 0; pos < final_.size(); ++pos) {
        const ClusterData& target = clusters_.cluster(final_[pos]);
        const double d_union = UnionCost(single, target);
        const double d = policy_.Distance(
            1, target.members.size(), target.members.size() + 1, single.cost,
            target.cost, d_union);
        if (d < best_dist) {
          best_dist = d;
          best_pos = pos;
        }
      }
      ClusterData& target = clusters_.cluster(final_[best_pos]);
      target.members.push_back(row);
      std::sort(target.members.begin(), target.members.end());
      target.closure = store_.InternJoin(target.closure, single.closure);
      target.cost = store_.cost(target.closure);
    }
  }

  // Graceful wind-down after an interruption (deadline, cancel, budget):
  // records still in undersized clusters are pooled into one catch-all
  // cluster when they number at least k, and otherwise attached to their
  // nearest finished cluster — so the result is k-anonymous either way.
  void FinalizeDegraded() {
    std::vector<uint32_t> leftover = clusters_.DrainAliveMembers();
    if (leftover.empty()) return;  // Interrupted after the last ripening.
    if (ctx_ != nullptr) {
      ctx_->NoteDegraded("agglomerative/merge");
      ctx_->AddRecordsSuppressed(leftover.size());
    }
    if (final_.empty() || leftover.size() >= k_) {
      // One catch-all cluster. When no cluster ripened yet the pool is the
      // whole dataset, and k <= n makes it valid.
      ClusterData pool;
      pool.members = std::move(leftover);
      const uint32_t id = NewCluster(std::move(pool));
      ClusterData& c = clusters_.cluster(id);
      c.closure = store_.InternClosureOfRows(dataset_, c.members);
      c.cost = store_.cost(c.closure);
      final_.push_back(id);
      return;
    }
    // Fewer than k stragglers: nearest-final attachment, as in the normal
    // leftover pass (one cheap scan per record).
    AttachToNearestFinal(leftover);
  }

  void DistributeLeftover() {
    std::vector<uint32_t> leftover = clusters_.DrainAliveMembers();
    if (leftover.empty()) return;
    KANON_CHECK(!final_.empty(),
                "no ripe cluster to absorb leftover records (k > n?)");
    AttachToNearestFinal(leftover);
  }

  const Dataset& dataset_;
  const PrecomputedLoss& loss_;
  const GeneralizationScheme& scheme_;
  const size_t k_;
  const AgglomerativeOptions& options_;
  const Policy policy_;
  RunContext* const ctx_;
  // Telemetry sinks of the enclosing run (null when telemetry is off);
  // resolved once at construction, on the run's coordinating thread.
  Tracer* const tracer_;
  Histogram* const merge_cost_;

  // Raw columnar tables for the hot sweeps; constructing it primes the
  // dataset's attribute-major mirror on this (coordinating) thread.
  LossKernels kernels_;
  ClosureStore store_;
  ClusterSet clusters_;
  ClusterSlots slots_;
  // The cost row of the current sweep's anchor cluster; written on the
  // coordinating thread before each sweep, read by its workers.
  std::vector<double> anchor_row_;
  MergeHeap heap_;
  std::vector<uint32_t> final_;
  // Sweep scratch, reused: the rescan's chunk partials, the repair sweep's
  // two distance columns, and one repair pass's clusters to rescan.
  std::vector<CandidatePair> rescan_parts_;
  std::vector<double> d_added_x_;
  std::vector<double> d_x_added_;
  std::vector<uint32_t> needs_rescan_;
  std::vector<double> shrink_costs_;  // ShrinkToK scratch, reused per pass.
};

}  // namespace internal

template <typename Policy>
Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
    const AgglomerativeOptions& options, const Policy& policy) {
  KANON_ASSERT_CLUSTER_POLICY(Policy);
  const size_t n = dataset.num_rows();
  if (k < 1) {
    return Status::InvalidArgument("k must be at least 1");
  }
  if (k > n) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds the number of records " +
                                   std::to_string(n));
  }
  if (dataset.num_attributes() != loss.scheme().num_attributes()) {
    return Status::InvalidArgument("dataset/loss arity mismatch");
  }
  if (k == 1) {
    // Identity clustering: nothing to anonymize.
    Clustering out;
    out.clusters.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      out.clusters.push_back({i});
    }
    return out;
  }
  return internal::AgglomerativeEngine<Policy>(dataset, loss, k, options,
                                               policy)
      .Run();
}

// The five built-in policies are instantiated once, in agglomerative.cc;
// client code linking against the library never re-instantiates them.
extern template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const WeightedPolicy&);
extern template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const PlainPolicy&);
extern template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const LogWeightedPolicy&);
extern template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const RatioPolicy&);
extern template Result<Clustering> AgglomerativeClusterWithPolicy(
    const Dataset&, const PrecomputedLoss&, size_t,
    const AgglomerativeOptions&, const NergizCliftonPolicy&);

}  // namespace kanon

#endif  // KANON_ALGO_AGGLOMERATIVE_ENGINE_H_
