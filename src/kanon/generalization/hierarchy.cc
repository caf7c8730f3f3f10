#include "kanon/generalization/hierarchy.h"

#include <algorithm>
#include <limits>
#include <set>

#include "kanon/common/check.h"
#include "kanon/common/parallel.h"

namespace kanon {

Result<Hierarchy> Hierarchy::Build(size_t domain_size,
                                   std::vector<ValueSet> subsets,
                                   int num_threads) {
  if (domain_size == 0) {
    return Status::InvalidArgument("hierarchy domain must be non-empty");
  }
  for (const ValueSet& s : subsets) {
    if (s.universe_size() != domain_size) {
      return Status::InvalidArgument(
          "subset universe size does not match the domain");
    }
    if (s.Empty()) {
      return Status::InvalidArgument("empty subsets are not permissible");
    }
  }

  // Deduplicate and complete with singletons and the full set, keeping a
  // deterministic (size, values) order so that set ids are stable.
  std::set<ValueSet> unique(subsets.begin(), subsets.end());
  for (size_t v = 0; v < domain_size; ++v) {
    unique.insert(ValueSet::Singleton(domain_size, static_cast<ValueCode>(v)));
  }
  unique.insert(ValueSet::All(domain_size));

  if (unique.size() > std::numeric_limits<SetId>::max()) {
    return Status::InvalidArgument("too many permissible subsets");
  }

  Hierarchy h;
  h.domain_size_ = domain_size;
  h.sets_.assign(unique.begin(), unique.end());
  const size_t num = h.sets_.size();

  h.set_sizes_.resize(num);
  for (size_t i = 0; i < num; ++i) {
    h.set_sizes_[i] = static_cast<uint32_t>(h.sets_[i].Count());
  }

  h.leaf_of_value_.assign(domain_size, 0);
  for (size_t i = 0; i < num; ++i) {
    if (h.set_sizes_[i] == 1) {
      h.leaf_of_value_[h.sets_[i].Values()[0]] = static_cast<SetId>(i);
    }
    if (h.set_sizes_[i] == domain_size) {
      h.full_set_id_ = static_cast<SetId>(i);
    }
  }

  // Join table: for each pair, the unique minimal permissible superset of
  // the union. Sets are sorted by size, so the first superset found has
  // minimum cardinality; it is the join iff it is contained in every other
  // superset of the union. Precomputing all O(num²) pairs is the hierarchy
  // construction hot spot, so rows of the upper triangle fan out over the
  // worker threads (each row a writes only cells [a][b], b > a); the lower
  // triangle is mirrored serially afterwards. Ambiguity findings land in
  // per-row slots and the smallest offending row is reported, matching the
  // serial scan's first error.
  h.join_.assign(num * num, 0);
  std::vector<std::string> ambiguous(num);
  Sweep(
      num, num_threads, nullptr, "hierarchy/join-table",
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t a = begin; a < end; ++a) {
          h.join_[a * num + a] = static_cast<SetId>(a);
          for (size_t b = a + 1; b < num; ++b) {
            const ValueSet u = h.sets_[a].Union(h.sets_[b]);
            SetId join_id = h.full_set_id_;
            bool found = false;
            for (size_t c = 0; c < num && !found; ++c) {
              if (u.IsSubsetOf(h.sets_[c])) {
                join_id = static_cast<SetId>(c);
                found = true;
              }
            }
            KANON_CHECK(found, "full set must contain every union");
            // Verify uniqueness of the minimal superset (join-consistency).
            for (size_t c = join_id + 1; c < num; ++c) {
              if (u.IsSubsetOf(h.sets_[c]) &&
                  !h.sets_[join_id].IsSubsetOf(h.sets_[c])) {
                ambiguous[a] = "ambiguous closure: subsets " +
                               h.sets_[join_id].ToString() + " and " +
                               h.sets_[c].ToString() +
                               " are incomparable minimal supersets of " +
                               u.ToString();
                return;
              }
            }
            h.join_[a * num + b] = join_id;
          }
        }
      });
  for (const std::string& message : ambiguous) {
    if (!message.empty()) {
      return Status::InvalidArgument(message);
    }
  }
  for (size_t a = 0; a < num; ++a) {
    for (size_t b = a + 1; b < num; ++b) {
      h.join_[b * num + a] = h.join_[a * num + b];
    }
  }
  return h;
}

Result<Hierarchy> Hierarchy::FromGroups(
    size_t domain_size, const std::vector<std::vector<ValueCode>>& groups) {
  std::vector<ValueSet> subsets;
  subsets.reserve(groups.size());
  for (const auto& group : groups) {
    for (ValueCode v : group) {
      if (v >= domain_size) {
        return Status::OutOfRange("group value out of the domain");
      }
    }
    subsets.push_back(ValueSet::Of(domain_size, group));
  }
  return Build(domain_size, std::move(subsets));
}

Result<Hierarchy> Hierarchy::FromLabelGroups(
    const AttributeDomain& domain,
    const std::vector<std::vector<std::string>>& groups) {
  std::vector<std::vector<ValueCode>> code_groups;
  code_groups.reserve(groups.size());
  for (const auto& group : groups) {
    std::vector<ValueCode> codes;
    codes.reserve(group.size());
    for (const std::string& label : group) {
      KANON_ASSIGN_OR_RETURN(ValueCode code, domain.CodeOf(label));
      codes.push_back(code);
    }
    code_groups.push_back(std::move(codes));
  }
  return FromGroups(domain.size(), code_groups);
}

Result<Hierarchy> Hierarchy::SuppressionOnly(size_t domain_size) {
  return Build(domain_size, {});
}

Result<Hierarchy> Hierarchy::Intervals(size_t domain_size,
                                       const std::vector<int>& widths) {
  std::vector<int> sorted = widths;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] < 1) {
      return Status::InvalidArgument("interval widths must be >= 1");
    }
    if (i > 0 && sorted[i] % sorted[i - 1] != 0) {
      return Status::InvalidArgument(
          "each interval width must divide the next (got " +
          std::to_string(sorted[i - 1]) + " and " + std::to_string(sorted[i]) +
          "); unaligned bands would make closures ambiguous");
    }
  }
  std::vector<ValueSet> subsets;
  for (int w : sorted) {
    const size_t width = static_cast<size_t>(w);
    for (size_t start = 0; start < domain_size; start += width) {
      ValueSet band(domain_size);
      for (size_t v = start; v < std::min(start + width, domain_size); ++v) {
        band.Insert(static_cast<ValueCode>(v));
      }
      subsets.push_back(std::move(band));
    }
  }
  return Build(domain_size, std::move(subsets));
}

const ValueSet& Hierarchy::set(SetId id) const {
  KANON_CHECK(id < sets_.size(), "set id out of range");
  return sets_[id];
}

size_t Hierarchy::SizeOf(SetId id) const {
  KANON_CHECK(id < set_sizes_.size(), "set id out of range");
  return set_sizes_[id];
}

bool Hierarchy::Contains(SetId id, ValueCode value) const {
  KANON_DCHECK(id < sets_.size() && value < domain_size_);
  return sets_[id].Contains(value);
}

SetId Hierarchy::LeafOf(ValueCode value) const {
  KANON_CHECK(value < domain_size_, "value out of the domain");
  return leaf_of_value_[value];
}

Result<SetId> Hierarchy::IdOf(const ValueSet& set) const {
  if (set.universe_size() != domain_size_) {
    return Status::InvalidArgument("set universe size mismatch");
  }
  auto it = std::lower_bound(sets_.begin(), sets_.end(), set);
  if (it != sets_.end() && *it == set) {
    return static_cast<SetId>(it - sets_.begin());
  }
  return Status::NotFound("subset " + set.ToString() + " is not permissible");
}

bool Hierarchy::IsLaminar() const {
  for (size_t a = 0; a < sets_.size(); ++a) {
    for (size_t b = a + 1; b < sets_.size(); ++b) {
      if (!sets_[a].IsSubsetOf(sets_[b]) && !sets_[b].IsSubsetOf(sets_[a]) &&
          !sets_[a].DisjointFrom(sets_[b])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace kanon
