#include "kanon/common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "kanon/common/run_context.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {
namespace {

TEST(ParallelGeometryTest, ChunksPartitionTheRange) {
  for (size_t n : {0u, 1u, 2u, 7u, 255u, 256u, 257u, 1000u, 100000u}) {
    const size_t chunks = ParallelChunkCount(n);
    size_t expected_begin = 0;
    size_t total = 0;
    for (size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = ParallelChunkRange(n, c);
      EXPECT_EQ(begin, expected_begin) << "n=" << n << " chunk=" << c;
      EXPECT_LE(begin, end);
      total += end - begin;
      expected_begin = end;
    }
    EXPECT_EQ(expected_begin, n) << "n=" << n;
    EXPECT_EQ(total, n);
  }
}

TEST(ParallelGeometryTest, ChunkSizesAreBalanced) {
  // No chunk may exceed another by more than one item.
  for (size_t n : {3u, 100u, 257u, 1000u}) {
    const size_t chunks = ParallelChunkCount(n);
    size_t smallest = n;
    size_t largest = 0;
    for (size_t c = 0; c < chunks; ++c) {
      const auto [begin, end] = ParallelChunkRange(n, c);
      smallest = std::min(smallest, end - begin);
      largest = std::max(largest, end - begin);
    }
    EXPECT_LE(largest - smallest, 1u) << "n=" << n;
  }
}

TEST(ParallelGeometryTest, GeometryIgnoresThreadCount) {
  // The contract hinges on chunking being a pure function of n; this test
  // pins it (a thread-count-dependent geometry would break determinism).
  const size_t chunks = ParallelChunkCount(1000);
  for (int threads : {1, 2, 4, 8}) {
    (void)threads;  // There is deliberately no API taking a thread count.
    EXPECT_EQ(ParallelChunkCount(1000), chunks);
  }
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(n, threads, nullptr, "test", [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(ParallelForTest, DoneMaskCoversCompletedSweep) {
  std::vector<uint8_t> done;
  const SweepStatus s =
      ParallelFor(500, 4, nullptr, "test", [](size_t) {}, &done);
  EXPECT_TRUE(s.completed);
  ASSERT_EQ(done.size(), 500u);
  for (uint8_t d : done) EXPECT_EQ(d, 1);
}

TEST(ParallelForTest, PreExpiredDeadlineRunsNothing) {
  RunContext ctx;
  ctx.ArmDeadline(0.0);
  std::atomic<int> ran{0};
  std::vector<uint8_t> done;
  const SweepStatus s = ParallelFor(
      100, 4, &ctx, "test", [&](size_t) { ran.fetch_add(1); }, &done);
  EXPECT_FALSE(s.completed);
  EXPECT_EQ(ran.load(), 0);
  for (uint8_t d : done) EXPECT_EQ(d, 0);
  // The stop is registered sticky on the context.
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kDeadline);
}

TEST(ParallelForTest, CancellationMidSweepIsObserved) {
  // Cancel from inside the sweep: workers must notice between chunks and
  // skip the remainder; the done mask shows a genuine partial sweep.
  auto token = std::make_shared<CancellationToken>();
  RunContext ctx;
  ctx.set_cancel_token(token);
  std::atomic<int> ran{0};
  std::vector<uint8_t> done;
  const size_t n = 100000;
  const SweepStatus s = ParallelFor(
      n, 4, &ctx, "test",
      [&](size_t) {
        if (ran.fetch_add(1) == 50) token->Cancel();
      },
      &done);
  EXPECT_FALSE(s.completed);
  EXPECT_LT(static_cast<size_t>(ran.load()), n);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kCancelled);
  size_t done_count = 0;
  for (uint8_t d : done) done_count += d;
  EXPECT_EQ(done_count, static_cast<size_t>(ran.load()));
}

TEST(ParallelForTest, CompletedSweepChargesExactlyOneStep) {
  RunContext ctx;
  for (int threads : {1, 4}) {
    const size_t before = ctx.stats().iterations_completed;
    ParallelFor(1000, threads, &ctx, "test", [](size_t) {});
    EXPECT_EQ(ctx.stats().iterations_completed, before + 1)
        << "threads=" << threads;
  }
}

TEST(ParallelForTest, StepBudgetAppliesFromTheNextSweep) {
  // Budget 1: sweep 1 completes (step 1 stays within budget), sweep 2
  // completes but its closing checkpoint trips the budget (step 2 > 1), so
  // sweep 3 runs nothing. A budget never cuts a sweep that already ran.
  RunContext ctx;
  ctx.set_step_budget(1);
  std::atomic<int> ran{0};
  EXPECT_TRUE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                ran.fetch_add(1);
              }).completed);
  EXPECT_TRUE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                ran.fetch_add(1);
              }).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(ParallelFor(10, 4, &ctx, "test", [&](size_t) {
                 ran.fetch_add(1);
               }).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kStepBudget);
}

TEST(ParallelForTest, SerialBelowRunsInline) {
  // Small sweeps take the inline path; results must be identical anyway.
  std::vector<int> values(100, 0);
  ParallelFor(
      100, 4, nullptr, "test", [&](size_t i) { values[i] = static_cast<int>(i); },
      nullptr, /*serial_below=*/1000);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(values[i], i);
}

TEST(ParallelForTest, NestedSweepsRunInlineWithoutDeadlock) {
  // Two nested sweeps back to back: the first must not clear the in-sweep
  // flag on exit, or the second would re-enter the pool from inside the
  // outer sweep and self-deadlock (regression: DrainChunks used to reset
  // the flag instead of restoring it).
  std::atomic<int> inner_total{0};
  ParallelFor(8, 4, nullptr, "outer", [&](size_t) {
    ParallelFor(8, 4, nullptr, "inner1",
                [&](size_t) { inner_total.fetch_add(1); });
    ParallelFor(8, 4, nullptr, "inner2",
                [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 128);
}

// Everything lane 0 records except wall clock, plus the final step clock.
std::string LaneZeroFingerprint(const Tracer& tracer) {
  std::ostringstream out;
  for (const SpanEvent& event : tracer.lane_events(0)) {
    out << event.name << '|' << event.category << '|' << event.depth << '|'
        << event.steps_begin << '|' << event.steps_end << '|' << event.items
        << '\n';
  }
  out << "steps " << tracer.steps();
  return out.str();
}

// The lane-0 trace of one sweep over n items, run either through
// ParallelChunks or, where SweepRunsInline holds, as one direct loop under
// a SweepSpan (the agglomerative engine's rescan and repair sweeps).
std::string SweepTrace(size_t n, int threads, size_t serial_below,
                       bool direct) {
  Tracer tracer;
  std::vector<int> hits(n, 0);
  {
    ScopedTelemetry telemetry(&tracer, nullptr);
    PhaseSpan outer(&tracer, "outer");
    if (direct && SweepRunsInline(n, threads, serial_below)) {
      const SweepSpan sweep(n, "test/sweep");
      for (size_t i = 0; i < n; ++i) ++hits[i];
    } else {
      ParallelChunks(
          n, threads, nullptr, "test/sweep",
          [&](size_t /*chunk*/, size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i) ++hits[i];
          },
          serial_below);
    }
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "item " << i;
  return LaneZeroFingerprint(tracer);
}

// The distinct threads that ran chunks of a ParallelChunks sweep. When
// `await_second` is set, each chunk waits (up to a generous timeout) until
// a second thread has entered one: a pooled sweep always gets there, since
// its workers claim the chunks the blocked caller cannot, and an inline
// one never does.
size_t ChunkThreads(size_t n, int threads, size_t serial_below,
                    bool await_second) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  ParallelChunks(
      n, threads, nullptr, "test/path",
      [&](size_t, size_t, size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
        cv.notify_all();
        if (await_second) {
          cv.wait_for(lock, std::chrono::seconds(30),
                      [&] { return ids.size() >= 2; });
        }
      },
      serial_below);
  return ids.size();
}

TEST(SweepRunsInlineTest, DirectPassTracesLikeParallelChunks) {
  constexpr size_t kSerialBelow = 2048;  // The agglomerative sweeps' bound.
  for (size_t n : {1u, 255u, 256u, 2047u, 2048u, 5000u}) {
    std::string baseline;
    for (int threads : {1, 4}) {
      const bool inline_path = SweepRunsInline(n, threads, kSerialBelow);
      EXPECT_EQ(inline_path, threads == 1 || n == 1 || n < kSerialBelow)
          << "n=" << n << " threads=" << threads;
      // The predicate names the path ParallelChunks takes.
      const size_t ran_on =
          ChunkThreads(n, threads, kSerialBelow, !inline_path);
      EXPECT_TRUE(inline_path ? ran_on == 1 : ran_on >= 2)
          << "n=" << n << " threads=" << threads << " ran on " << ran_on;
      const std::string chunks = SweepTrace(n, threads, kSerialBelow, false);
      const std::string direct = SweepTrace(n, threads, kSerialBelow, true);
      EXPECT_EQ(direct, chunks) << "n=" << n << " threads=" << threads;
      if (threads == 1) {
        baseline = chunks;
      } else {
        EXPECT_EQ(chunks, baseline) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

TEST(SweepRunsInlineTest, NestedSweepsRunInline) {
  ParallelFor(8, 4, nullptr, "outer", [](size_t) {
    EXPECT_TRUE(SweepRunsInline(100000, 4));
  });
  EXPECT_FALSE(SweepRunsInline(100000, 4));
  EXPECT_TRUE(SweepRunsInline(100000, 4, /*serial_below=*/200000));
  EXPECT_TRUE(SweepRunsInline(0, 4));
}

double ArgminProbe(size_t i) {
  // Minimum 0.25 attained at i = 30, 60, 90, ... — plenty of ties.
  return i % 30 == 0 && i > 0 ? 0.25 : 1.0 + static_cast<double>(i % 7);
}

TEST(ParallelArgminTest, SmallestIndexWinsTiesAtEveryThreadCount) {
  for (int threads : {1, 2, 4, 8}) {
    const ArgminResult r =
        ParallelArgmin(100000, threads, nullptr, "test", ArgminProbe);
    EXPECT_TRUE(r.valid);
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(r.index, 30u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.value, 0.25);
  }
}

TEST(ParallelArgminTest, AllInfiniteSweepIsValidWithInfiniteValue) {
  const ArgminResult r =
      ParallelArgmin(100, 4, nullptr, "test", [](size_t) {
        return std::numeric_limits<double>::infinity();
      });
  EXPECT_TRUE(r.valid);
  EXPECT_EQ(r.value, std::numeric_limits<double>::infinity());
}

TEST(ParallelArgminTest, EmptySweepIsInvalid) {
  const ArgminResult r =
      ParallelArgmin(0, 4, nullptr, "test", [](size_t) { return 0.0; });
  EXPECT_FALSE(r.valid);
}

TEST(ResolveNumThreadsTest, NonPositiveMeansHardware) {
  EXPECT_EQ(ResolveNumThreads(0), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(-3), DefaultNumThreads());
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(7), 7);
  EXPECT_GE(DefaultNumThreads(), 1);
}

}  // namespace
}  // namespace kanon
