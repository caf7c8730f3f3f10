#ifndef KANON_ALGO_CORE_CLUSTER_SET_H_
#define KANON_ALGO_CORE_CLUSTER_SET_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "kanon/algo/core/closure_store.h"

namespace kanon {

/// Sentinel cluster id shared by the core components ("no cluster here").
inline constexpr uint32_t kNoCluster = UINT32_MAX;

/// One cluster of an agglomerative engine. Contents are immutable between
/// merges (merges create fresh clusters), except for the wind-down passes
/// that shrink or absorb into a cluster in place.
struct ClusterData {
  std::vector<uint32_t> members;  // Dataset rows, ascending.
  ClosureStore::Id closure = ClosureStore::kInvalidId;
  double cost = 0.0;  // d(S) = c(closure of S), mirrored from the store.
  bool alive = false;
};

/// Alive/dead cluster bookkeeping shared by the clustering engines: the
/// cluster slab, the active-id list (ascending creation order, compacted on
/// request), and the drain step both graceful wind-downs build on. Closure
/// ids refer to an external ClosureStore; ClusterSet itself never touches
/// records, which keeps it usable before closures exist (degraded stops).
class ClusterSet {
 public:
  ClusterSet() = default;

  void Reserve(size_t n) { clusters_.reserve(n); }

  /// Adds a cluster, dead and outside the active list; Activate() arms it.
  /// Ids are dense and creation-ordered — the tie-breaking currency of the
  /// deterministic scans.
  uint32_t Add(ClusterData data) {
    clusters_.push_back(std::move(data));
    return static_cast<uint32_t>(clusters_.size() - 1);
  }

  ClusterData& cluster(uint32_t id) {
    KANON_DCHECK(id < clusters_.size());
    return clusters_[id];
  }
  const ClusterData& cluster(uint32_t id) const {
    KANON_DCHECK(id < clusters_.size());
    return clusters_[id];
  }

  /// Total clusters ever created (dead ones included).
  size_t size() const { return clusters_.size(); }

  bool Alive(uint32_t id) const {
    return id != kNoCluster && clusters_[id].alive;
  }

  void Activate(uint32_t id) {
    KANON_DCHECK(!clusters_[id].alive);
    clusters_[id].alive = true;
    ++num_active_;
    active_.push_back(id);
  }

  void Deactivate(uint32_t id) {
    KANON_DCHECK(clusters_[id].alive);
    clusters_[id].alive = false;
    --num_active_;
    ++num_dead_in_active_;
  }

  /// Active-id list, ascending; may contain dead entries until compaction.
  const std::vector<uint32_t>& active() const { return active_; }
  size_t num_active() const { return num_active_; }

  /// Drops every dead entry from the active list, keeping the order.
  void CompactActive();

  /// Wind-down drain: gathers the members of every still-alive cluster,
  /// deactivating each, and returns the rows sorted ascending. Both the
  /// degraded and the regular leftover passes start here.
  std::vector<uint32_t> DrainAliveMembers();

 private:
  std::vector<ClusterData> clusters_;
  std::vector<uint32_t> active_;
  size_t num_active_ = 0;
  size_t num_dead_in_active_ = 0;
};

/// One flat slot per cluster id — the closure's SetIds, then the member
/// count, then the cost — so a pair distance reads one contiguous slot
/// instead of chasing the closure store. The engine writes a slot when the
/// cluster becomes active; the hot sweeps read nothing else.
class ClusterSlots {
 public:
  explicit ClusterSlots(size_t num_attrs)
      : num_attrs_(num_attrs), stride_(num_attrs + kTail) {}

  void Write(uint32_t id, const GeneralizedRecord& closure, size_t size,
             double cost) {
    KANON_DCHECK(closure.size() == num_attrs_);
    if (slots_.size() < (static_cast<size_t>(id) + 1) * stride_) {
      slots_.resize(std::max<size_t>(id + 1, 2 * (slots_.size() / stride_)) *
                    stride_);
    }
    SetId* slot = slots_.data() + static_cast<size_t>(id) * stride_;
    std::copy(closure.begin(), closure.end(), slot);
    const uint32_t size32 = static_cast<uint32_t>(size);
    std::memcpy(slot + num_attrs_, &size32, sizeof(size32));
    std::memcpy(slot + num_attrs_ + kSizeWidth, &cost, sizeof(cost));
  }

  const SetId* sets(uint32_t id) const {
    KANON_DCHECK((static_cast<size_t>(id) + 1) * stride_ <= slots_.size());
    return slots_.data() + static_cast<size_t>(id) * stride_;
  }
  uint32_t size(uint32_t id) const {
    uint32_t size = 0;
    std::memcpy(&size, sets(id) + num_attrs_, sizeof(size));
    return size;
  }
  double cost(uint32_t id) const {
    double cost = 0.0;
    std::memcpy(&cost, sets(id) + num_attrs_ + kSizeWidth, sizeof(cost));
    return cost;
  }

 private:
  // The member count and the cost, in SetId units.
  static constexpr size_t kSizeWidth = sizeof(uint32_t) / sizeof(SetId);
  static constexpr size_t kTail = kSizeWidth + sizeof(double) / sizeof(SetId);
  static_assert(sizeof(uint32_t) % sizeof(SetId) == 0 &&
                sizeof(double) % sizeof(SetId) == 0);

  const size_t num_attrs_;
  const size_t stride_;
  std::vector<SetId> slots_;
};

}  // namespace kanon

#endif  // KANON_ALGO_CORE_CLUSTER_SET_H_
