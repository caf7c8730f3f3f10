#include "kanon/algo/core/merge_heap.h"

#include <algorithm>

namespace kanon {

void MergeHeap::EnsureSize(size_t n) {
  if (cands_.size() >= n) return;
  const size_t size = std::max(n, cands_.size() * 2 + 1);
  cands_.resize(size);
  pushed_.resize(size);
  dead_.resize(size, 0);
  pos_.resize(size, kNotInHeap);
}

void MergeHeap::Offer(uint32_t x, uint32_t y, double d) {
  CandidatePair& c = cands_[x];
  if (y == c.c1 || y == c.c2) return;
  if (d < c.d1 || (d == c.d1 && y < c.c1)) {
    // The displaced c1 was the exact minimum over the other alive clusters,
    // so it is a correct second bound.
    c.c2 = c.c1;
    c.d2 = c.d1;
    c.second_valid = true;
    c.c1 = y;
    c.d1 = d;
    PushEntry(d, x, y);
  } else if (d < c.d2 || (d == c.d2 && y < c.c2)) {
    // Tightening the second bound keeps invariant B when it held (y is
    // accounted for explicitly, everyone else was >= old d2 > d).
    c.c2 = y;
    c.d2 = d;
  }
}

bool MergeHeap::Repair(uint32_t x, uint32_t added, double d_x_added) {
  CandidatePair& c = cands_[x];
  if (c.c1 == kNoCluster || Alive(c.c1)) {
    return false;  // Nearest intact (a dead c2 stays as a bound).
  }
  if (added != kNoCluster && d_x_added <= c.d1) {
    // Everyone alive was at distance >= d1 before the merge, so the new
    // cluster is an exact new minimum. The second bound keeps holding.
    c.c1 = added;
    c.d1 = d_x_added;
    PushEntry(d_x_added, x, added);
    return false;
  }
  if (Alive(c.c2) && c.second_valid) {
    // Invariant B: nothing alive beats d2, so c2 is the exact minimum.
    c.c1 = c.c2;
    c.d1 = c.d2;
    c.c2 = kNoCluster;
    c.d2 = kInfDist;
    c.second_valid = false;
    PushEntry(c.d1, x, c.c1);
    return false;
  }
  return true;
}

void MergeHeap::NoteDeactivated(uint32_t c) {
  dead_[c] = 1;
  if (pos_[c] != kNotInHeap) RemoveAt(pos_[c]);
  std::vector<Pushed>().swap(pushed_[c]);
}

MergeCandidate MergeHeap::PopTop() {
  while (!heap_.empty()) {
    const MergeCandidate top = heap_[0];
    if (Alive(top.b)) {
      // The caller merges the pair, so x's other entries die with it.
      RemoveAt(0);
      pushed_[top.a].clear();
      return top;
    }
    Rekey(top.a);
  }
  KANON_CHECK(false, "active clusters must have heap entries");
  return MergeCandidate{kInfDist, kNoCluster, kNoCluster};
}

void MergeHeap::PushEntry(double dist, uint32_t x, uint32_t y) {
  std::vector<Pushed>& list = pushed_[x];
  // A pop kills both endpoints, so a second copy of an entry would never
  // be popped: keep one. (Promotions re-push the same c2 over and over.)
  const bool present =
      std::any_of(list.begin(), list.end(), [&](const Pushed& p) {
        return p.partner == y && p.dist == dist;
      });
  if (!present) {
    // Pruning only when the list is about to reallocate keeps it within
    // twice its live entries at amortized O(1) per push.
    if (list.size() == list.capacity()) PruneAndFindLeast(x);
    list.push_back(Pushed{dist, y});
  }
  const MergeCandidate e{dist, x, y};
  const uint32_t i = pos_[x];
  if (i == kNotInHeap) {
    Insert(e);  // No live entry was left: e is the least.
  } else if (!Alive(heap_[i].b)) {
    Rekey(x);
  } else if (Before(e, heap_[i])) {
    Place(i, e);
    SiftUp(i);
  }
}

size_t MergeHeap::PruneAndFindLeast(uint32_t x) {
  std::vector<Pushed>& list = pushed_[x];
  std::erase_if(list, [&](const Pushed& p) { return !Alive(p.partner); });
  size_t least = kNone;
  for (size_t i = 0; i < list.size(); ++i) {
    if (least == kNone || list[i].dist < list[least].dist ||
        (list[i].dist == list[least].dist &&
         list[i].partner < list[least].partner)) {
      least = i;
    }
  }
  return least;
}

void MergeHeap::Rekey(uint32_t x) {
  const size_t least = PruneAndFindLeast(x);
  const uint32_t i = pos_[x];
  if (least == kNone) {
    if (i != kNotInHeap) RemoveAt(i);
    return;
  }
  const MergeCandidate e{pushed_[x][least].dist, x,
                         pushed_[x][least].partner};
  if (i == kNotInHeap) {
    Insert(e);
    return;
  }
  Place(i, e);
  SiftUp(i);
  SiftDown(pos_[x]);
}

void MergeHeap::Place(size_t i, const MergeCandidate& e) {
  heap_[i] = e;
  pos_[e.a] = static_cast<uint32_t>(i);
}

void MergeHeap::SiftUp(size_t i) {
  const MergeCandidate e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / 2;
    if (!Before(e, heap_[parent])) break;
    Place(i, heap_[parent]);
    i = parent;
  }
  Place(i, e);
}

void MergeHeap::SiftDown(size_t i) {
  const MergeCandidate e = heap_[i];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], e)) break;
    Place(i, heap_[child]);
    i = child;
  }
  Place(i, e);
}

void MergeHeap::Insert(const MergeCandidate& e) {
  heap_.push_back(e);
  pos_[e.a] = static_cast<uint32_t>(heap_.size() - 1);
  SiftUp(heap_.size() - 1);
}

void MergeHeap::RemoveAt(size_t i) {
  pos_[heap_[i].a] = kNotInHeap;
  const MergeCandidate last = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;
  Place(i, last);
  SiftUp(i);
  SiftDown(pos_[last.a]);
}

}  // namespace kanon
