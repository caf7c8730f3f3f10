#ifndef KANON_LOSS_KERNELS_H_
#define KANON_LOSS_KERNELS_H_

#include <cstdint>
#include <vector>

#include "kanon/data/dataset.h"
#include "kanon/generalization/scheme.h"
#include "kanon/loss/precomputed_loss.h"

namespace kanon {

/// The columnar hot-path substrate: a (dataset, precomputed-loss) pair
/// re-bound as raw per-attribute tables — packed dataset columns, raw
/// leaf/join tables, flat cost rows — so the engines' O(n) inner sweeps are
/// linear scans over contiguous arrays instead of strided cell walks
/// through checked accessors.
///
/// Every sweep reproduces the arithmetic of the scalar loop it replaces
/// bit for bit: per output element the per-attribute terms are added in
/// ascending attribute order and divided (not multiplied by the inverse)
/// exactly like the row-major code did, so tables stay byte-identical.
///
/// Construction primes the dataset's attribute-major mirror, so build one
/// of these on the coordinating thread before fanning out workers.
class LossKernels {
 public:
  LossKernels(const Dataset& dataset, const PrecomputedLoss& loss);

  size_t num_rows() const { return n_; }
  size_t num_attributes() const { return attrs_.size(); }

  /// out[v] = d({R_u, R_v}) for every row v (out holds num_rows() doubles).
  /// out[u] is d({R_u}) — callers skip it at selection time. This is the
  /// forest nearest-neighbor scan and the agglomerative singleton distance
  /// phase (for singletons, d(A ∪ B) IS the pairwise closure cost).
  void PairCostSweep(uint32_t u, double* out) const;

  /// out[v] = c(closure + R_v) for every row v — the (k,1) sweeps' "cost of
  /// absorbing row v into this cluster closure" scan.
  void JoinedCostSweep(const GeneralizedRecord& closure, double* out) const;

  /// covered[v] = 1 iff `closure` is already consistent with R_v (the join
  /// with R_v changes nothing in any attribute), else 0.
  void CoverageSweep(const GeneralizedRecord& closure,
                     uint8_t* covered) const;

  /// Single-row joined cost c(closure + R_row) through the raw tables;
  /// identical arithmetic to the sweep.
  double JoinedCost(const GeneralizedRecord& closure, uint32_t row) const;

  /// d(A ∪ B) of two generalized records, attribute-wise through the raw
  /// join tables and the flat cost rows.
  double UnionCost(const GeneralizedRecord& a,
                   const GeneralizedRecord& b) const;

  /// Doubles in an anchor cost row: the set count summed over attributes.
  size_t cost_row_size() const { return row_size_; }

  /// row[off_j + s] = c_j(join(anchor[j], s)) for every attribute j and set
  /// s of it, where off_j is the set count of the attributes before j. A
  /// sweep that prices one anchor closure against many builds this once;
  /// each union cost is then r loads from the row.
  void AnchorCostRow(const SetId* anchor, double* row) const;

  /// d(anchor ∪ sets) read from the anchor's cost row. The same terms are
  /// added in the same order and divided by r last, exactly as
  /// UnionCost(anchor, sets), so the result is bit-identical.
  double UnionCostFromRow(const double* row, const SetId* sets) const {
    double total = 0.0;
    for (size_t j = 0; j < attrs_.size(); ++j) {
      total += row[attrs_[j].row_offset + sets[j]];
    }
    return total / r_as_double_;
  }

 private:
  struct AttrTables {
    const ValueCode* col;   // Packed dataset column, n entries.
    const SetId* leaf;      // value -> singleton id.
    const SetId* join;      // num_sets x num_sets, row-major.
    const double* costs;    // SetId -> per-entry cost.
    size_t num_sets;
    size_t row_offset;      // Start of this attribute in an anchor row.
  };

  std::vector<AttrTables> attrs_;
  size_t row_size_ = 0;
  size_t n_;
  double r_as_double_;  // Divisor; division order matches the scalar loops.
};

}  // namespace kanon

#endif  // KANON_LOSS_KERNELS_H_
