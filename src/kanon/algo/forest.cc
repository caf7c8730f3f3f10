#include "kanon/algo/forest.h"

#include <algorithm>
#include <limits>

#include "kanon/algo/core/union_find.h"
#include "kanon/common/check.h"
#include "kanon/common/failpoint.h"
#include "kanon/loss/kernels.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

namespace {

constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

class ForestBuilder {
 public:
  ForestBuilder(const Dataset& dataset, const PrecomputedLoss& loss, size_t k,
                RunContext* ctx, EngineCounters* counters)
      : k_(k),
        n_(dataset.num_rows()),
        ctx_(ctx),
        counters_(counters),
        kernels_(dataset, loss),
        uf_(dataset.num_rows()) {}

  Result<Clustering> Run() {
    KANON_RETURN_NOT_OK(GrowForest());
    Clustering out;
    if (Stopped()) {
      FinalizeDegraded(&out);
      return out;
    }
    PhaseSpan split_span(CurrentTracer(), "forest/split");
    for (const std::vector<uint32_t>& tree : Trees()) {
      SplitTree(tree, &out);
    }
    return out;
  }

 private:
  bool CheckPoint(const char* stage) {
    return ctx_ != nullptr && ctx_->CheckPoint(stage);
  }

  bool Stopped() const { return ctx_ != nullptr && ctx_->stopped(); }

  // Refreshes record u's cached nearest out-of-component record. One
  // columnar sweep fills w(u, v) = d({R_u, R_v}) for every v, then a serial
  // ascending scan picks the minimum — same strict comparison and tie
  // order as the per-pair loop it replaced.
  void RecomputeBest(uint32_t u) {
    if (counters_ != nullptr) ++counters_->rescans;
    const uint32_t root = uf_.Find(u);
    best_v_[u] = kNone;
    best_w_[u] = std::numeric_limits<double>::infinity();
    pair_w_.resize(n_);
    kernels_.PairCostSweep(u, pair_w_.data());
    for (uint32_t v = 0; v < n_; ++v) {
      if (uf_.Find(v) == root) continue;
      if (pair_w_[v] < best_w_[u]) {
        best_w_[u] = pair_w_[v];
        best_v_[u] = v;
      }
    }
  }

  // Phase 1: every component reaches size >= k.
  Status GrowForest() {
    {
      PhaseSpan init_span(CurrentTracer(), "forest/init");
      init_span.set_items(n_);
      best_v_.assign(n_, kNone);
      best_w_.assign(n_, std::numeric_limits<double>::infinity());
      members_.assign(n_, {});
      adjacency_.assign(n_, {});
      for (uint32_t i = 0; i < n_; ++i) members_[i] = {i};
      for (uint32_t i = 0; i < n_; ++i) {
        // The all-pairs nearest-neighbor scan is the O(n²) part of setup; it
        // honors the same controls as the growth loop.
        if (CheckPoint("forest/init")) return Status::OK();
        KANON_FAILPOINT("forest.closure");
        RecomputeBest(i);
      }
    }

    PhaseSpan grow_span(CurrentTracer(), "forest/grow");
    std::vector<uint32_t> pending;  // Roots that may still be small.
    for (uint32_t i = 0; i < n_; ++i) pending.push_back(i);

    while (!pending.empty()) {
      if (CheckPoint("forest/grow")) return Status::OK();
      KANON_FAILPOINT("forest.closure");
      const uint32_t root = pending.back();
      pending.pop_back();
      if (uf_.Find(root) != root) continue;          // Stale: merged away.
      if (members_[root].size() >= k_) continue;     // Already big enough.

      // Cheapest outgoing edge of the component.
      uint32_t best_u = kNone;
      for (uint32_t u : members_[root]) {
        if (best_v_[u] != kNone && uf_.Find(best_v_[u]) == root) {
          RecomputeBest(u);
        }
        if (best_u == kNone || best_w_[u] < best_w_[best_u]) {
          best_u = u;
        }
      }
      KANON_CHECK(best_u != kNone && best_v_[best_u] != kNone,
                  "a small component must have an outgoing edge (k <= n)");

      const uint32_t u = best_u;
      const uint32_t v = best_v_[u];
      adjacency_[u].push_back(v);
      adjacency_[v].push_back(u);
      const uint32_t other_root = uf_.Find(v);
      const uint32_t merged_root = uf_.Union(root, other_root);
      if (counters_ != nullptr) ++counters_->merges;
      const uint32_t losing_root = merged_root == root ? other_root : root;
      members_[merged_root].insert(members_[merged_root].end(),
                                   members_[losing_root].begin(),
                                   members_[losing_root].end());
      members_[losing_root].clear();
      members_[losing_root].shrink_to_fit();
      if (members_[merged_root].size() < k_) {
        pending.push_back(merged_root);
      }
    }
    return Status::OK();
  }

  // Graceful wind-down after an interruption: components already of size
  // >= k become clusters as-is (the utility-only 3k−3 splitting of phase 2
  // is skipped), and records of still-small components are pooled — into
  // their own cluster when the pool reaches k, otherwise into a grown tree.
  void FinalizeDegraded(Clustering* out) {
    std::vector<uint32_t> pool;
    for (uint32_t i = 0; i < n_; ++i) {
      if (uf_.Find(i) != i || members_[i].empty()) continue;
      if (members_[i].size() >= k_) {
        std::vector<uint32_t> tree = members_[i];
        std::sort(tree.begin(), tree.end());
        out->clusters.push_back(std::move(tree));
      } else {
        pool.insert(pool.end(), members_[i].begin(), members_[i].end());
      }
    }
    if (ctx_ != nullptr) {
      ctx_->NoteDegraded("forest/grow");
      ctx_->AddRecordsSuppressed(pool.size());
    }
    if (pool.empty()) return;
    std::sort(pool.begin(), pool.end());
    if (pool.size() >= k_) {
      out->clusters.push_back(std::move(pool));
      return;
    }
    // A pool below k implies some component grew to k (k <= n); merge the
    // stragglers into the first such tree.
    KANON_CHECK(!out->clusters.empty(),
                "pool below k requires a grown tree (k <= n)");
    std::vector<uint32_t>& host = out->clusters.front();
    host.insert(host.end(), pool.begin(), pool.end());
    std::sort(host.begin(), host.end());
  }

  // Connected components of the grown forest, as sorted node lists.
  std::vector<std::vector<uint32_t>> Trees() {
    std::vector<std::vector<uint32_t>> trees;
    std::vector<bool> seen(n_, false);
    for (uint32_t start = 0; start < n_; ++start) {
      if (seen[start]) continue;
      std::vector<uint32_t> tree;
      std::vector<uint32_t> stack = {start};
      seen[start] = true;
      while (!stack.empty()) {
        const uint32_t u = stack.back();
        stack.pop_back();
        tree.push_back(u);
        for (uint32_t v : adjacency_[u]) {
          if (!seen[v]) {
            seen[v] = true;
            stack.push_back(v);
          }
        }
      }
      std::sort(tree.begin(), tree.end());
      trees.push_back(std::move(tree));
    }
    return trees;
  }

  // Phase 2: splits a tree into clusters of size in [k, 3k-3].
  void SplitTree(const std::vector<uint32_t>& nodes, Clustering* out) {
    const size_t limit = std::max(3 * k_ - 3, k_);  // 3k-3 (k>=2), k for k=1.
    if (nodes.size() <= limit) {
      out->clusters.push_back(nodes);
      return;
    }

    // Root the tree at its smallest node; compute a BFS order and parents,
    // restricted to `nodes`.
    std::vector<bool> in_tree(n_, false);
    for (uint32_t u : nodes) in_tree[u] = true;
    std::vector<uint32_t> parent(n_, kNone);
    std::vector<uint32_t> depth(n_, 0);
    std::vector<uint32_t> order;
    order.reserve(nodes.size());
    const uint32_t root = nodes[0];
    order.push_back(root);
    parent[root] = root;
    for (size_t head = 0; head < order.size(); ++head) {
      const uint32_t u = order[head];
      for (uint32_t v : adjacency_[u]) {
        if (in_tree[v] && parent[v] == kNone) {
          parent[v] = u;
          depth[v] = depth[u] + 1;
          order.push_back(v);
        }
      }
    }
    KANON_CHECK(order.size() == nodes.size(), "forest edges must form a tree");

    std::vector<uint32_t> subtree_size(n_, 0);
    for (size_t pos = order.size(); pos-- > 0;) {
      const uint32_t u = order[pos];
      subtree_size[u] += 1;
      if (u != root) subtree_size[parent[u]] += subtree_size[u];
    }

    // Deepest vertex whose subtree has at least k nodes (ties: smallest id).
    uint32_t v = root;
    for (uint32_t u : nodes) {
      if (subtree_size[u] < k_) continue;
      if (depth[u] > depth[v] || (depth[u] == depth[v] && u < v)) {
        v = u;
      }
    }

    std::vector<uint32_t> part_a;  // Will satisfy k <= |A| <= 2k-2 <= limit.
    if (v != root && nodes.size() - subtree_size[v] >= k_) {
      // Cut the edge above v: subtree(v) vs. the rest, both of size >= k.
      CollectSubtree(v, parent, in_tree, &part_a);
    } else {
      // The rest above v is smaller than k, so subtree(v) >= 2k-1 and every
      // child subtree of v is < k. Greedily group child subtrees until the
      // group reaches k; the group is a valid cluster and removing it
      // leaves a connected tree of size >= k.
      for (uint32_t c : adjacency_[v]) {
        if (!in_tree[c] || parent[c] != v) continue;
        std::vector<uint32_t> child_nodes;
        CollectSubtree(c, parent, in_tree, &child_nodes);
        part_a.insert(part_a.end(), child_nodes.begin(), child_nodes.end());
        if (part_a.size() >= k_) break;
      }
      KANON_CHECK(part_a.size() >= k_ && part_a.size() <= 2 * k_ - 2,
                  "child-subtree group size out of range");
    }

    std::sort(part_a.begin(), part_a.end());
    std::vector<uint32_t> part_b;
    part_b.reserve(nodes.size() - part_a.size());
    std::set_difference(nodes.begin(), nodes.end(), part_a.begin(),
                        part_a.end(), std::back_inserter(part_b));
    KANON_CHECK(part_b.size() >= k_, "remainder must keep at least k nodes");

    if (part_a.size() <= limit) {
      out->clusters.push_back(std::move(part_a));
    } else {
      SplitTree(part_a, out);
    }
    SplitTree(part_b, out);
  }

  void CollectSubtree(uint32_t start, const std::vector<uint32_t>& parent,
                      const std::vector<bool>& in_tree,
                      std::vector<uint32_t>* out_nodes) {
    std::vector<uint32_t> stack = {start};
    while (!stack.empty()) {
      const uint32_t u = stack.back();
      stack.pop_back();
      out_nodes->push_back(u);
      for (uint32_t w : adjacency_[u]) {
        if (in_tree[w] && parent[w] == u) {
          stack.push_back(w);
        }
      }
    }
  }

  const size_t k_;
  const size_t n_;
  RunContext* const ctx_;
  EngineCounters* const counters_;

  LossKernels kernels_;
  UnionFind uf_;
  std::vector<uint32_t> best_v_;
  std::vector<double> best_w_;
  std::vector<double> pair_w_;  // RecomputeBest scratch, reused per call.
  std::vector<std::vector<uint32_t>> members_;    // Indexed by root.
  std::vector<std::vector<uint32_t>> adjacency_;  // The grown forest.
};

}  // namespace

Result<Clustering> ForestCluster(const Dataset& dataset,
                                 const PrecomputedLoss& loss, size_t k,
                                 RunContext* ctx, EngineCounters* counters) {
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
  return ForestBuilder(dataset, loss, k, ctx, counters).Run();
}

Result<GeneralizedTable> ForestKAnonymize(const Dataset& dataset,
                                          const PrecomputedLoss& loss,
                                          size_t k, RunContext* ctx,
                                          EngineCounters* counters) {
  KANON_ASSIGN_OR_RETURN(Clustering clustering,
                         ForestCluster(dataset, loss, k, ctx, counters));
  return TableFromClustering(loss.scheme_ptr(), dataset, clustering);
}

}  // namespace kanon
