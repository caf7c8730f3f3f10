#include "kanon/algo/core/cluster_set.h"

#include <algorithm>

namespace kanon {

void ClusterSet::CompactActive() {
  if (num_dead_in_active_ == 0) return;
  std::erase_if(active_, [&](uint32_t id) { return !clusters_[id].alive; });
  num_dead_in_active_ = 0;
}

std::vector<uint32_t> ClusterSet::DrainAliveMembers() {
  std::vector<uint32_t> rows;
  for (uint32_t id : active_) {
    if (!clusters_[id].alive) continue;
    rows.insert(rows.end(), clusters_[id].members.begin(),
                clusters_[id].members.end());
    Deactivate(id);
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace kanon
