// MergeHeap / OfferToTwoBest: the two-best accumulator semantics (including
// the regression for the historically-accidental unset-slot handling), the
// O(1) repair paths of invariants A/B, the one-entry-per-cluster heap, and
// a randomized check that it pops exactly what the lazy heap it replaced
// popped.
#include "kanon/algo/core/merge_heap.h"

#include <gtest/gtest.h>

#include <queue>
#include <vector>

#include "kanon/common/rng.h"

namespace kanon {
namespace {

// --- OfferToTwoBest -------------------------------------------------------

// Regression: an empty accumulator must adopt the first candidate outright.
// The old inline code only did so because kNoCluster compares greater than
// every real id and the unset distance is +inf — here the unset case is
// explicit and must hold even for candidates at +inf distance.
TEST(OfferToTwoBestTest, EmptyAccumulatorAdoptsFirstCandidate) {
  CandidatePair c;
  OfferToTwoBest(&c, 7, kInfDist);
  EXPECT_EQ(c.c1, 7u);
  EXPECT_EQ(c.d1, kInfDist);
  EXPECT_EQ(c.c2, kNoCluster);  // Nothing was displaced into the second slot.
  EXPECT_EQ(c.d2, kInfDist);
}

// Regression: a candidate with a large id must still fill an unset slot.
// Under the old sentinel comparison this worked only because real ids are
// < kNoCluster; it must not depend on that.
TEST(OfferToTwoBestTest, UnsetSecondSlotAdoptsAnyNonFirstCandidate) {
  CandidatePair c;
  OfferToTwoBest(&c, 3, 1.0);
  OfferToTwoBest(&c, 9, kInfDist);  // Worse than c1 but the slot is empty.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.d1, 1.0);
  EXPECT_EQ(c.c2, 9u);
  EXPECT_EQ(c.d2, kInfDist);
}

TEST(OfferToTwoBestTest, ImprovementDisplacesFirstIntoSecond) {
  CandidatePair c;
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 8, 1.0);
  EXPECT_EQ(c.c1, 8u);
  EXPECT_EQ(c.d1, 1.0);
  EXPECT_EQ(c.c2, 5u);
  EXPECT_EQ(c.d2, 2.0);
}

TEST(OfferToTwoBestTest, TiesGoToTheSmallerId) {
  CandidatePair c;
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 3, 2.0);  // Equal distance, smaller id: takes first.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 5u);
  OfferToTwoBest(&c, 9, 2.0);  // Equal distance, larger id: stays out.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 5u);
  OfferToTwoBest(&c, 4, 2.0);  // Beats c2's tie-break, not c1's.
  EXPECT_EQ(c.c1, 3u);
  EXPECT_EQ(c.c2, 4u);
}

TEST(OfferToTwoBestTest, IgnoresSentinelAndDuplicates) {
  CandidatePair c;
  OfferToTwoBest(&c, kNoCluster, 0.0);  // The sentinel is never a candidate.
  EXPECT_EQ(c.c1, kNoCluster);
  OfferToTwoBest(&c, 5, 2.0);
  OfferToTwoBest(&c, 5, 1.0);  // Already the first-best: no double-count.
  EXPECT_EQ(c.c1, 5u);
  EXPECT_EQ(c.d1, 2.0);
  EXPECT_EQ(c.c2, kNoCluster);
}

// Merging per-chunk accumulators in chunk order must reproduce the serial
// ascending scan — the determinism contract of the parallel sweeps.
TEST(OfferToTwoBestTest, ChunkMergeMatchesSerialScan) {
  const double dist[8] = {4.0, 2.0, 7.0, 2.0, 9.0, 1.0, 2.0, 5.0};

  CandidatePair serial;
  for (uint32_t y = 0; y < 8; ++y) OfferToTwoBest(&serial, y, dist[y]);

  CandidatePair lo, hi, merged;
  for (uint32_t y = 0; y < 4; ++y) OfferToTwoBest(&lo, y, dist[y]);
  for (uint32_t y = 4; y < 8; ++y) OfferToTwoBest(&hi, y, dist[y]);
  for (const CandidatePair* chunk : {&lo, &hi}) {
    if (chunk->c1 != kNoCluster) {
      OfferToTwoBest(&merged, chunk->c1, chunk->d1);
    }
    if (chunk->c2 != kNoCluster) {
      OfferToTwoBest(&merged, chunk->c2, chunk->d2);
    }
  }

  EXPECT_EQ(merged.c1, serial.c1);
  EXPECT_EQ(merged.d1, serial.d1);
  EXPECT_EQ(merged.c2, serial.c2);
  EXPECT_EQ(merged.d2, serial.d2);
  EXPECT_EQ(serial.c1, 5u);  // dist 1.0.
  EXPECT_EQ(serial.c2, 1u);  // dist 2.0, smallest tied id.
}

// --- MergeHeap ------------------------------------------------------------

// Clusters are plain ids here: the heap counts a cluster alive from its
// first EnsureSize until NoteDeactivated.
class MergeHeapTest : public ::testing::Test {
 protected:
  uint32_t NewCluster() {
    const uint32_t id = next_id_++;
    heap_.EnsureSize(next_id_);
    return id;
  }

  MergeHeap heap_;
  uint32_t next_id_ = 0;
};

TEST_F(MergeHeapTest, OfferMaintainsInvariantsAndPushesOnImprovement) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster();

  heap_.Offer(x, a, 3.0);  // First-best: pushed.
  heap_.Offer(x, b, 5.0);  // Second bound only: no push.
  EXPECT_EQ(heap_.candidate(x).c1, a);
  EXPECT_EQ(heap_.candidate(x).c2, b);
  EXPECT_TRUE(heap_.candidate(x).second_valid);

  const MergeCandidate top = heap_.PopTop();
  EXPECT_EQ(top.a, x);
  EXPECT_EQ(top.b, a);
  EXPECT_EQ(top.dist, 3.0);
  EXPECT_TRUE(heap_.empty());  // The second-bound offer pushed nothing.
}

TEST_F(MergeHeapTest, TiesBetweenClustersPopInDistThenIdOrder) {
  const uint32_t w = NewCluster(), x = NewCluster(), y = NewCluster(),
                 z = NewCluster();
  heap_.Offer(z, w, 2.0);
  heap_.Offer(y, x, 2.0);
  heap_.Offer(x, z, 2.0);
  heap_.Offer(w, y, 1.0);

  MergeCandidate e = heap_.PopTop();
  EXPECT_EQ(e.dist, 1.0);  // Distance first.
  EXPECT_EQ(e.a, w);
  e = heap_.PopTop();
  EXPECT_EQ(e.a, x);  // Then the owning cluster's id.
  EXPECT_EQ(e.b, z);
  e = heap_.PopTop();
  EXPECT_EQ(e.a, y);
  e = heap_.PopTop();
  EXPECT_EQ(e.a, z);
  EXPECT_TRUE(heap_.empty());
}

TEST_F(MergeHeapTest, ReofferingReplacesTheClustersOneEntry) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster(),
                 c = NewCluster();
  heap_.Offer(x, b, 4.0);
  heap_.Offer(x, a, 3.0);  // Strictly closer: x's entry now names a.
  heap_.Offer(c, b, 3.5);

  MergeCandidate e = heap_.PopTop();
  EXPECT_EQ(e.a, x);
  EXPECT_EQ(e.b, a);
  EXPECT_EQ(e.dist, 3.0);
  // The merge kills both endpoints; x's superseded (x, b) entry leaves with
  // it, so c's entry is next.
  heap_.NoteDeactivated(x);
  heap_.NoteDeactivated(a);
  e = heap_.PopTop();
  EXPECT_EQ(e.a, c);
  EXPECT_EQ(e.b, b);
  EXPECT_TRUE(heap_.empty());
}

TEST_F(MergeHeapTest, DeactivatingAClusterRemovesItsEntry) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster();
  heap_.Offer(x, a, 1.0);
  heap_.Offer(b, a, 2.0);
  heap_.NoteDeactivated(x);

  // x's entry is gone; b's entry pops next even though it is farther.
  const MergeCandidate top = heap_.PopTop();
  EXPECT_EQ(top.a, b);
  EXPECT_EQ(top.b, a);
  EXPECT_TRUE(heap_.empty());
}

TEST_F(MergeHeapTest, EntryNamingADeadPartnerIsSkipped) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster(),
                 c = NewCluster();
  heap_.Offer(x, a, 1.0);
  heap_.Offer(b, c, 2.0);
  heap_.NoteDeactivated(a);  // x is left with no live entry.

  const MergeCandidate top = heap_.PopTop();
  EXPECT_EQ(top.a, b);
  EXPECT_EQ(top.b, c);
  EXPECT_TRUE(heap_.empty());
}

TEST_F(MergeHeapTest, RepairKeepsIntactNearest) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster();
  heap_.Offer(x, a, 3.0);
  heap_.Offer(x, b, 5.0);
  // a is still alive: nothing to repair regardless of the new cluster.
  EXPECT_FALSE(heap_.Repair(x, kNoCluster, kInfDist));
  EXPECT_EQ(heap_.candidate(x).c1, a);
}

TEST_F(MergeHeapTest, RepairAdoptsProvablyCloserMergedCluster) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster();
  heap_.Offer(x, a, 3.0);
  heap_.Offer(x, b, 5.0);

  heap_.NoteDeactivated(a);
  const uint32_t merged = NewCluster();
  // dist(x, merged) <= old d1: exact new minimum, no rescan.
  EXPECT_FALSE(heap_.Repair(x, merged, 3.0));
  EXPECT_EQ(heap_.candidate(x).c1, merged);
  EXPECT_EQ(heap_.candidate(x).d1, 3.0);
  EXPECT_EQ(heap_.candidate(x).c2, b);  // Second bound still holds.
  const MergeCandidate top = heap_.PopTop();
  EXPECT_EQ(top.b, merged);
}

TEST_F(MergeHeapTest, RepairPromotesValidSecondAndInvalidatesIt) {
  const uint32_t x = NewCluster(), a = NewCluster(), b = NewCluster();
  heap_.Offer(x, a, 3.0);
  heap_.Offer(x, b, 5.0);

  heap_.NoteDeactivated(a);
  // The merged cluster is farther than d1, but invariant B makes b exact.
  EXPECT_FALSE(heap_.Repair(x, kNoCluster, kInfDist));
  EXPECT_EQ(heap_.candidate(x).c1, b);
  EXPECT_EQ(heap_.candidate(x).d1, 5.0);
  EXPECT_EQ(heap_.candidate(x).c2, kNoCluster);
  EXPECT_FALSE(heap_.candidate(x).second_valid);

  // Losing b too now forces the full rescan: no second bound remains.
  heap_.NoteDeactivated(b);
  EXPECT_TRUE(heap_.Repair(x, kNoCluster, kInfDist));
}

// The one case where a cluster's entry is not (d1, x, c1). After a rescan
// picks c over an older, larger-id entry at the same distance, re-adopting
// a merged cluster at exactly that distance leaves the older entry as x's
// least live one; the lazy heap popped it first, and so must this heap.
TEST_F(MergeHeapTest, TiedReadoptionPopsTheOlderLiveEntryFirst) {
  const uint32_t x = NewCluster(), p = NewCluster(), c = NewCluster();
  CandidatePair& cand = heap_.candidate(x);
  cand.c1 = p;
  cand.d1 = 2.0;
  cand.c2 = c;
  cand.d2 = 2.0;
  heap_.PushCandidate(x);  // (2, x, p)

  heap_.NoteDeactivated(p);
  const uint32_t a1 = NewCluster();
  ASSERT_FALSE(heap_.Repair(x, a1, 2.0));  // Adopts (2, x, a1).
  const uint32_t a = NewCluster();
  heap_.Offer(x, a, 1.0);
  const uint32_t b = NewCluster();
  heap_.Offer(x, b, 0.0);
  heap_.NoteDeactivated(a);
  heap_.NoteDeactivated(b);
  ASSERT_TRUE(heap_.Repair(x, kNoCluster, kInfDist));

  // The rescan's exact two-best: c and a1 tie at 2, c has the smaller id.
  heap_.candidate(x) = CandidatePair{c, 2.0, a1, 2.0, true};
  heap_.PushCandidate(x);  // (2, x, c)
  heap_.NoteDeactivated(c);
  const uint32_t a3 = NewCluster();
  ASSERT_FALSE(heap_.Repair(x, a3, 2.0));  // Adopts (2, x, a3).
  EXPECT_EQ(heap_.candidate(x).c1, a3);

  const MergeCandidate top = heap_.PopTop();
  EXPECT_EQ(top.a, x);
  EXPECT_EQ(top.b, a1);  // (2, x, a1) sorts before (2, x, a3).
  EXPECT_EQ(top.dist, 2.0);
}

// --- Randomized equivalence with the lazy heap -----------------------------

// The lazy heap MergeHeap replaced, kept as the reference: the same
// two-best Offer/Repair, but every first-best change pushes an entry into a
// std::priority_queue and pops skip entries naming a dead cluster.
class LazyHeapModel {
 public:
  void EnsureSize(size_t n) {
    if (cands_.size() < n) {
      cands_.resize(n);
      alive_.resize(n, 0);
    }
  }
  CandidatePair& candidate(uint32_t x) { return cands_[x]; }
  void SetAlive(uint32_t x, bool alive) { alive_[x] = alive ? 1 : 0; }
  bool Alive(uint32_t x) const { return x != kNoCluster && alive_[x]; }

  void PushCandidate(uint32_t x) {
    if (cands_[x].c1 != kNoCluster) {
      heap_.push(MergeCandidate{cands_[x].d1, x, cands_[x].c1});
    }
  }

  void Offer(uint32_t x, uint32_t y, double d) {
    CandidatePair& c = cands_[x];
    if (y == c.c1 || y == c.c2) return;
    if (d < c.d1 || (d == c.d1 && y < c.c1)) {
      c.c2 = c.c1;
      c.d2 = c.d1;
      c.second_valid = true;
      c.c1 = y;
      c.d1 = d;
      heap_.push(MergeCandidate{d, x, y});
    } else if (d < c.d2 || (d == c.d2 && y < c.c2)) {
      c.c2 = y;
      c.d2 = d;
    }
  }

  bool Repair(uint32_t x, uint32_t added, double d_x_added) {
    CandidatePair& c = cands_[x];
    if (c.c1 == kNoCluster || Alive(c.c1)) return false;
    if (added != kNoCluster && d_x_added <= c.d1) {
      c.c1 = added;
      c.d1 = d_x_added;
      heap_.push(MergeCandidate{d_x_added, x, added});
      return false;
    }
    if (Alive(c.c2) && c.second_valid) {
      c.c1 = c.c2;
      c.d1 = c.d2;
      c.c2 = kNoCluster;
      c.d2 = kInfDist;
      c.second_valid = false;
      heap_.push(MergeCandidate{c.d1, x, c.c1});
      return false;
    }
    return true;
  }

  MergeCandidate PopValid() {
    while (true) {
      KANON_CHECK(!heap_.empty(), "lazy model ran dry");
      const MergeCandidate e = heap_.top();
      heap_.pop();
      if (Alive(e.a) && Alive(e.b)) return e;
    }
  }

 private:
  struct EntryGreater {
    bool operator()(const MergeCandidate& x, const MergeCandidate& y) const {
      if (x.dist != y.dist) return x.dist > y.dist;
      if (x.a != y.a) return x.a > y.a;
      return x.b > y.b;
    }
  };

  std::vector<CandidatePair> cands_;
  std::vector<uint8_t> alive_;
  std::priority_queue<MergeCandidate, std::vector<MergeCandidate>,
                      EntryGreater>
      heap_;
};

// Drives MergeHeap and the lazy model through the engine's protocol —
// exact two-best init, pop the closest pair, kill it (sometimes a third
// cluster too), repair every survivor while offering the merged cluster,
// rescan whoever lost both candidates — over random small-integer
// distances, so ties are everywhere. Returns the number of pops.
size_t RunAgainstLazyModel(uint64_t seed) {
  Rng rng(seed);
  const uint32_t n = 4 + static_cast<uint32_t>(rng.NextBounded(36));
  const uint64_t levels = 2 + rng.NextBounded(6);
  const bool asymmetric = rng.NextBounded(2) == 1;

  std::vector<std::vector<double>> dist;  // dist[x][y], grown per cluster.
  std::vector<uint8_t> alive;
  auto add_cluster = [&] {
    const uint32_t id = static_cast<uint32_t>(dist.size());
    dist.emplace_back(id + 1, 0.0);
    for (uint32_t y = 0; y < id; ++y) {
      const double d = static_cast<double>(rng.NextBounded(levels));
      dist[id][y] = d;
      dist[y].push_back(asymmetric ? static_cast<double>(
                                         rng.NextBounded(levels))
                                   : d);
    }
    alive.push_back(0);
    return id;
  };

  MergeHeap heap;
  LazyHeapModel model;
  auto rescan = [&](uint32_t x) {
    CandidatePair c;
    for (uint32_t y = 0; y < alive.size(); ++y) {
      if (y != x && alive[y]) OfferToTwoBest(&c, y, dist[x][y]);
    }
    c.second_valid = true;
    heap.candidate(x) = c;
    model.candidate(x) = c;
    heap.PushCandidate(x);
    model.PushCandidate(x);
  };
  auto kill = [&](uint32_t x) {
    alive[x] = 0;
    model.SetAlive(x, false);
    heap.NoteDeactivated(x);
  };

  for (uint32_t i = 0; i < n; ++i) add_cluster();
  heap.EnsureSize(n);
  model.EnsureSize(n);
  for (uint32_t i = 0; i < n; ++i) {
    alive[i] = 1;
    model.SetAlive(i, true);
  }
  for (uint32_t i = 0; i < n; ++i) rescan(i);

  size_t pops = 0;
  size_t num_alive = n;
  while (num_alive > 1) {
    const MergeCandidate want = model.PopValid();
    const MergeCandidate got = heap.PopTop();
    EXPECT_EQ(got.dist, want.dist) << "seed " << seed << " pop " << pops;
    EXPECT_EQ(got.a, want.a) << "seed " << seed << " pop " << pops;
    EXPECT_EQ(got.b, want.b) << "seed " << seed << " pop " << pops;
    if (got.a != want.a || got.b != want.b) return pops;
    ++pops;
    kill(want.a);
    kill(want.b);
    num_alive -= 2;
    if (num_alive > 2 && rng.NextBounded(5) == 0) {
      uint32_t victim = static_cast<uint32_t>(rng.NextBounded(alive.size()));
      while (!alive[victim]) victim = (victim + 1) % alive.size();
      kill(victim);
      --num_alive;
    }
    const uint32_t added =
        rng.NextBounded(4) == 0 ? kNoCluster : add_cluster();
    if (added != kNoCluster) {
      heap.EnsureSize(added + 1);
      model.EnsureSize(added + 1);
    }
    std::vector<uint32_t> needs_rescan;
    for (uint32_t x = 0; x < alive.size(); ++x) {
      if (!alive[x]) continue;
      const double d_x_added = added != kNoCluster ? dist[x][added] : kInfDist;
      if (added != kNoCluster) {
        heap.Offer(added, x, dist[added][x]);
        model.Offer(added, x, dist[added][x]);
      }
      const bool rescan_heap = heap.Repair(x, added, d_x_added);
      const bool rescan_model = model.Repair(x, added, d_x_added);
      EXPECT_EQ(rescan_heap, rescan_model) << "seed " << seed;
      if (rescan_model) {
        needs_rescan.push_back(x);
      } else if (added != kNoCluster) {
        heap.Offer(x, added, d_x_added);
        model.Offer(x, added, d_x_added);
      }
    }
    if (added != kNoCluster) {
      alive[added] = 1;
      model.SetAlive(added, true);
      ++num_alive;
    }
    for (uint32_t x : needs_rescan) rescan(x);
  }
  return pops;
}

TEST(MergeHeapModelTest, PopsMatchTheLazyHeapOnRandomTiedSequences) {
  size_t pops = 0;
  for (uint64_t seed = 1; seed <= 1000; ++seed) {
    pops += RunAgainstLazyModel(seed);
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(pops, 10000u);
}

}  // namespace
}  // namespace kanon
