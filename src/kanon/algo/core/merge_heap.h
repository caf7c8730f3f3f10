#ifndef KANON_ALGO_CORE_MERGE_HEAP_H_
#define KANON_ALGO_CORE_MERGE_HEAP_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "kanon/algo/core/cluster_set.h"

namespace kanon {

inline constexpr double kInfDist = std::numeric_limits<double>::infinity();

/// Nearest-neighbor bookkeeping for one cluster x. Cluster contents are
/// immutable (merges create fresh clusters), so pair distances never change
/// and the engine can maintain, with O(1) repairs in the common case:
///
///   invariant A: c1 is alive and d1 = min over alive y≠x of dist(x, y)
///                (exact), whenever c1 != kNoCluster;
///   invariant B: when second_valid, every alive y ∉ {c1} has
///                dist(x, y) >= d2 (c2 itself may meanwhile be dead; d2
///                then still bounds everyone else).
///
/// A cluster that loses c1 promotes c2 when invariant B allows it, adopts
/// the freshly merged cluster when that is provably at least as close, and
/// only falls back to a full rescan otherwise. This keeps the engine exact
/// while avoiding the O(n³) blow-up of naive repair in the "one growing
/// cluster" regime that distance functions (10) and (11) induce.
struct CandidatePair {
  uint32_t c1 = kNoCluster;
  double d1 = kInfDist;
  uint32_t c2 = kNoCluster;
  double d2 = kInfDist;
  bool second_valid = true;
};

/// Offers candidate (y, d) to a two-best accumulator with the exact
/// comparisons of an ascending-id serial scan: strict improvement wins, ties
/// go to the smaller id. Used both inside chunk-local scans and to merge
/// chunk results in chunk order, so the combined two-best is byte-identical
/// to the serial scan at every thread count.
///
/// The unset slots are handled explicitly: an empty accumulator adopts any
/// candidate as its first-best, and a missing second-best adopts any
/// non-first candidate. (Historically those cases fell through the tie-break
/// comparisons only because kNoCluster compares greater than every real id
/// and the unset distances are +inf — correct by accident, and broken by any
/// future change to the sentinel. See the MergeHeap regression tests.)
inline void OfferToTwoBest(CandidatePair* c, uint32_t y, double d) {
  if (y == kNoCluster || y == c->c1 || y == c->c2) return;
  if (c->c1 == kNoCluster) {
    // Empty accumulator: y becomes the first-best outright (the second slot
    // stays unset — there is nothing to displace into it).
    c->c1 = y;
    c->d1 = d;
    return;
  }
  if (d < c->d1 || (d == c->d1 && y < c->c1)) {
    c->c2 = c->c1;
    c->d2 = c->d1;
    c->c1 = y;
    c->d1 = d;
  } else if (c->c2 == kNoCluster || d < c->d2 ||
             (d == c->d2 && y < c->c2)) {
    c->c2 = y;
    c->d2 = d;
  }
}

/// One scored merge candidate: dist(a, b) with the argument order the
/// asymmetric distances care about.
struct MergeCandidate {
  double dist;
  uint32_t a;
  uint32_t b;
};

/// The indexed merge heap of the agglomerative engine: per-cluster
/// two-best candidates (invariants A/B above) and at most one heap entry per
/// cluster, so the heap never holds more entries than there are clusters.
///
/// It reproduces, pop for pop, the lazy heap it replaced. That heap kept
/// every entry ever pushed and skipped, on pop, those naming a dead
/// cluster; its first valid pop is the least pushed entry whose endpoints
/// are both alive. Here cluster x's one entry is the least of x's own
/// pushed entries with an alive partner, kept in a short per-cluster list:
/// one copy per distinct entry (every pop kills both endpoints, so a second
/// copy would never be popped), and entries naming dead partners are
/// pruned whenever the list would grow. That entry is nearly always
/// (d1, x, c1). It differs only after Repair re-adopts a merged cluster at
/// exactly the old d1: an older entry of x at that distance may still name
/// an alive, smaller-id partner, and the lazy heap popped that one first.
///
/// Deaths reach the heap only through NoteDeactivated: a cluster counts as
/// alive from its creation until then.
class MergeHeap {
 public:
  MergeHeap() = default;

  MergeHeap(const MergeHeap&) = delete;
  MergeHeap& operator=(const MergeHeap&) = delete;

  /// Grows the per-cluster arrays to cover cluster ids < n.
  void EnsureSize(size_t n);

  /// Candidate slot of cluster x. Chunk workers of the all-pairs scan write
  /// disjoint slots directly; everything else goes through Offer/Repair.
  CandidatePair& candidate(uint32_t x) {
    KANON_DCHECK(x < cands_.size());
    return cands_[x];
  }
  const CandidatePair& candidate(uint32_t x) const {
    KANON_DCHECK(x < cands_.size());
    return cands_[x];
  }

  void ResetCandidate(uint32_t x) { cands_[x] = CandidatePair(); }

  /// Pushes x's current first-best as a heap entry (no-op when unset).
  /// The tail of a full rescan.
  void PushCandidate(uint32_t x) {
    if (cands_[x].c1 != kNoCluster) {
      PushEntry(cands_[x].d1, x, cands_[x].c1);
    }
  }

  /// Offers alive candidate (y, d) to x's two-best, pushing a heap entry on
  /// a first-best improvement.
  void Offer(uint32_t x, uint32_t y, double d);

  /// Fixes x after the deaths of the just-merged pair. `added` (kNoCluster
  /// for a ripe merge) is the freshly created cluster and `d_x_added` its
  /// distance from x. Returns true when x needs a full rescan.
  bool Repair(uint32_t x, uint32_t added, double d_x_added);

  /// Records the death of cluster c and drops its heap entry.
  void NoteDeactivated(uint32_t c);

  bool empty() const { return heap_.empty(); }

  /// Pops the least entry whose endpoints are both alive — by invariant A
  /// a globally closest pair — and drops the rest of its owner's entries:
  /// the caller merges the pair, deactivating both. Entries whose partner
  /// died since they were keyed are re-keyed on the way. Some entry must
  /// be valid.
  MergeCandidate PopTop();

 private:
  struct Pushed {
    double dist;
    uint32_t partner;
  };

  static constexpr uint32_t kNotInHeap = UINT32_MAX;
  static constexpr size_t kNone = SIZE_MAX;

  static bool Before(const MergeCandidate& x, const MergeCandidate& y) {
    if (x.dist != y.dist) return x.dist < y.dist;
    if (x.a != y.a) return x.a < y.a;
    return x.b < y.b;
  }

  bool Alive(uint32_t c) const { return c != kNoCluster && !dead_[c]; }

  // Appends (dist, x, y) to x's pushed list and lowers x's entry to it when
  // it sorts first.
  void PushEntry(double dist, uint32_t x, uint32_t y);
  // Drops x's pushed entries that name dead partners and returns the index
  // of the least one left (kNone when the list is empty).
  size_t PruneAndFindLeast(uint32_t x);
  // Re-keys x's entry to its least pushed entry with an alive partner, or
  // removes the entry when there is none.
  void Rekey(uint32_t x);

  // Binary-heap primitives over heap_, keeping pos_ in step.
  void Place(size_t i, const MergeCandidate& e);
  void SiftUp(size_t i);
  void SiftDown(size_t i);
  void Insert(const MergeCandidate& e);
  void RemoveAt(size_t i);

  std::vector<CandidatePair> cands_;
  std::vector<std::vector<Pushed>> pushed_;  // Per cluster, push order.
  std::vector<uint8_t> dead_;
  std::vector<MergeCandidate> heap_;  // Min-heap under Before, one per x.
  std::vector<uint32_t> pos_;         // Cluster id -> index in heap_.
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_MERGE_HEAP_H_
