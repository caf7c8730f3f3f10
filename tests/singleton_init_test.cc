// Reference test of the agglomerative engine's singleton init. The engine
// prices each unordered singleton pair once, over a triangle of row blocks
// (internal::SingletonTwoBests); the oracle below is the per-row scan it
// replaced: one PairCostSweep per row over all n rows, offering every other
// row in ascending id. Every singleton's two-best must match the oracle's
// exactly, under all five distances, at 1 and 3 threads, on tables full of
// duplicate rows (so most distances tie) and on ART tables, for n below,
// at, and not divisible by the block count. The blocks themselves must
// split the pairs evenly, and a stop must wait for one row at most.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "kanon/algo/agglomerative_engine.h"
#include "kanon/algo/distance.h"
#include "kanon/common/failpoint.h"
#include "kanon/datasets/art.h"
#include "kanon/loss/entropy_measure.h"
#include "test_util.h"

namespace kanon {
namespace {

using internal::kSingletonInitBlocks;
using internal::SingletonInitBlockBegins;
using internal::SingletonTwoBests;
using testing::SmallRandomDataset;
using testing::SmallScheme;
using testing::Unwrap;

// Singleton slots 0..n-1, as the engine writes them before its init scan.
// A singleton's closure is its own row, which every measure here prices at
// 0, and then dist(i, y) and dist(y, i) agree under every policy. With
// `spread_costs` the slots carry costs from {0, 0.25, 0.5} instead, so the
// two directions differ (and still tie often).
ClusterSlots SingletonSlots(const Dataset& dataset,
                            const PrecomputedLoss& loss, bool spread_costs) {
  ClusterSlots slots(dataset.num_attributes());
  for (uint32_t i = 0; i < dataset.num_rows(); ++i) {
    const GeneralizedRecord closure =
        loss.scheme().Identity(dataset.row_view(i));
    const double cost =
        spread_costs ? 0.25 * ((i * 7) % 3) : loss.RecordCost(closure);
    slots.Write(i, closure, 1, cost);
  }
  return slots;
}

// The per-row scan: every ordered pair priced from its row's PairCostSweep.
template <typename Policy>
std::vector<CandidatePair> PerRowOracle(const LossKernels& kernels,
                                        const ClusterSlots& slots, size_t n,
                                        const Policy& policy) {
  std::vector<CandidatePair> out(n);
  std::vector<double> pair(n);
  for (uint32_t i = 0; i < n; ++i) {
    kernels.PairCostSweep(i, pair.data());
    CandidatePair c;
    for (uint32_t y = 0; y < n; ++y) {
      if (y == i) continue;
      OfferToTwoBest(&c, y,
                     policy.Distance(1, 1, 2, slots.cost(i), slots.cost(y),
                                     pair[y]));
    }
    c.second_valid = true;
    out[i] = c;
  }
  return out;
}

void ExpectMatchesOracle(const Dataset& dataset, const PrecomputedLoss& loss,
                         const char* tag) {
  const size_t n = dataset.num_rows();
  const LossKernels kernels(dataset, loss);
  for (bool spread_costs : {false, true}) {
    const ClusterSlots slots = SingletonSlots(dataset, loss, spread_costs);
    for (DistanceFunction f : kAllDistanceFunctions) {
      DispatchDistancePolicy(f, DistanceParams{}, [&](const auto& policy) {
        const std::vector<CandidatePair> oracle =
            PerRowOracle(kernels, slots, n, policy);
        for (int threads : {1, 3}) {
          std::vector<CandidatePair> got;
          const SweepStatus sweep = Unwrap(SingletonTwoBests(
              kernels, slots, n, policy, threads, nullptr, &got));
          ASSERT_TRUE(sweep.completed);
          ASSERT_EQ(got.size(), n);
          for (size_t i = 0; i < n; ++i) {
            const CandidatePair& a = got[i];
            const CandidatePair& b = oracle[i];
            EXPECT_TRUE(a.c1 == b.c1 && a.d1 == b.d1 && a.c2 == b.c2 &&
                        a.d2 == b.d2 && a.second_valid == b.second_valid)
                << tag << " n=" << n << " spread_costs=" << spread_costs
                << " " << DistanceFunctionName(f) << " threads=" << threads
                << " row " << i << ": got (" << a.c1 << ", " << a.d1 << "; "
                << a.c2 << ", " << a.d2 << ") want (" << b.c1 << ", " << b.d1
                << "; " << b.c2 << ", " << b.d2 << ")";
          }
        }
      });
    }
  }
}

TEST(SingletonInitTest, TriangleMatchesPerRowScanOnTiedRows) {
  // SmallScheme has 16 distinct rows, so these tables are mostly
  // duplicates and most pair distances tie. The sizes cover n = 2, n below
  // the block count, n a multiple of it, n not divisible by it, and n = 9,
  // whose third block is empty.
  static_assert(kSingletonInitBlocks == 8, "revisit the sizes below");
  const std::vector<size_t> nine = SingletonInitBlockBegins(9);
  ASSERT_EQ(nine[2], nine[3]);
  const auto scheme = SmallScheme();
  for (size_t n : {2u, 3u, 7u, 8u, 9u, 13u, 64u, 203u}) {
    const Dataset d = SmallRandomDataset(*scheme, n, 1000 + n);
    const PrecomputedLoss loss(scheme, d, EntropyMeasure());
    ExpectMatchesOracle(d, loss, "small");
  }
}

TEST(SingletonInitTest, BlocksSplitThePairsEvenly) {
  // A stop waits for a running block's task, so no block may hold much
  // more than 1/8 of the n(n-1)/2 pairs; the partials of the later rows
  // stay under 4.8·n.
  for (size_t n : {1u, 2u, 5u, 8u, 300u, 4000u, 20000u}) {
    const std::vector<size_t> begin = SingletonInitBlockBegins(n);
    const size_t blocks = begin.size() - 1;
    ASSERT_EQ(blocks, std::min(n, kSingletonInitBlocks));
    ASSERT_EQ(begin.front(), 0u);
    ASSERT_EQ(begin.back(), n);
    size_t max_pairs = 0;
    size_t partials = 0;
    for (size_t b = 0; b < blocks; ++b) {
      ASSERT_LE(begin[b], begin[b + 1]) << "n=" << n << " block " << b;
      size_t pairs = 0;
      for (size_t i = begin[b]; i < begin[b + 1]; ++i) pairs += n - 1 - i;
      max_pairs = std::max(max_pairs, pairs);
      partials += n - begin[b + 1];
    }
    if (n >= 300) {
      EXPECT_LE(static_cast<double>(max_pairs),
                0.135 * static_cast<double>(n * (n - 1) / 2))
          << "n=" << n;
      EXPECT_LE(static_cast<double>(partials), 4.8 * static_cast<double>(n))
          << "n=" << n;
    }
  }
}

TEST(SingletonInitTest, TriangleMatchesPerRowScanOnArtTables) {
  for (size_t n : {5u, 150u}) {
    const Workload w = Unwrap(MakeArtWorkload(n, /*seed=*/n));
    const PrecomputedLoss loss(w.scheme, w.dataset, EntropyMeasure());
    ExpectMatchesOracle(w.dataset, loss, "art");
  }
}

TEST(SingletonInitTest, StopsAndInjectedFailuresSurface) {
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, 40, 5);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const LossKernels kernels(d, loss);
  const ClusterSlots slots = SingletonSlots(d, loss, false);
  std::vector<CandidatePair> out;

  RunContext stopped;
  stopped.ArmDeadline(0.0);
  const SweepStatus sweep = Unwrap(SingletonTwoBests(
      kernels, slots, d.num_rows(), PlainPolicy{}, 3, &stopped, &out));
  EXPECT_FALSE(sweep.completed);

  failpoint::Arm("agglomerative.closure", /*after=*/17);
  const Result<SweepStatus> failed = SingletonTwoBests(
      kernels, slots, d.num_rows(), PlainPolicy{}, 1, nullptr, &out);
  failpoint::DisarmAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_NE(failed.status().message().find("agglomerative.closure"),
            std::string::npos);
}

// PlainPolicy that counts its Distance calls and cancels `token` on the
// `cancel_at`-th one.
struct CancellingPolicy {
  double Distance(size_t size_a, size_t size_b, size_t size_union, double d_a,
                  double d_b, double d_union) const {
    if (++*calls == cancel_at) token->Cancel();
    return PlainPolicy{}.Distance(size_a, size_b, size_union, d_a, d_b,
                                  d_union);
  }
  size_t* calls;
  size_t cancel_at;
  CancellationToken* token;
};

TEST(SingletonInitTest, StopWaitsForOneRowAtMost) {
  // Each anchor row polls the context, so after a cancellation the init
  // finishes at most the row it is pricing: n - 1 pairs, two Distance
  // calls each. The first block alone holds about n²/16 pairs.
  const size_t n = 400;
  const auto scheme = SmallScheme();
  const Dataset d = SmallRandomDataset(*scheme, n, 11);
  const PrecomputedLoss loss(scheme, d, EntropyMeasure());
  const LossKernels kernels(d, loss);
  const ClusterSlots slots = SingletonSlots(d, loss, false);
  for (size_t cancel_at : {1u, 1000u, 5000u, 40000u}) {
    auto token = std::make_shared<CancellationToken>();
    RunContext ctx;
    ctx.set_cancel_token(token);
    size_t calls = 0;
    const CancellingPolicy policy{&calls, cancel_at, token.get()};
    std::vector<CandidatePair> out;
    const SweepStatus sweep = Unwrap(
        SingletonTwoBests(kernels, slots, n, policy, 1, &ctx, &out));
    EXPECT_FALSE(sweep.completed) << "cancel_at=" << cancel_at;
    EXPECT_EQ(ctx.stats().stop_reason, StopReason::kCancelled);
    ASSERT_GE(calls, cancel_at);
    EXPECT_LE(calls - cancel_at, 2 * (n - 1)) << "cancel_at=" << cancel_at;
  }
}

}  // namespace
}  // namespace kanon
