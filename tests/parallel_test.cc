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

// Item-wise sweep: body(i) for every i in [0, n).
template <typename Body>
SweepStatus ForEach(size_t n, int threads, RunContext* ctx, const Body& body,
                    size_t serial_below = 0) {
  return Sweep(
      n, threads, ctx, "test",
      [&](size_t /*chunk*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) body(i);
      },
      serial_below);
}

TEST(SweepTest, EveryIndexRunsExactlyOnce) {
  for (int threads : {1, 2, 4}) {
    const size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    ForEach(n, threads, nullptr, [&](size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "i=" << i << " threads=" << threads;
    }
  }
}

TEST(SweepTest, EmptySweepRunsNothingAndWritesNoSlot) {
  const SweepStatus s = Sweep(0, 4, nullptr, "test",
                              [](size_t, size_t, size_t) { FAIL(); });
  EXPECT_TRUE(s.completed);
  EXPECT_EQ(s.slots, 0u);
}

TEST(SweepTest, PreExpiredDeadlineRunsNothing) {
  RunContext ctx;
  ctx.ArmDeadline(0.0);
  std::atomic<int> ran{0};
  const SweepStatus s =
      ForEach(100, 4, &ctx, [&](size_t) { ran.fetch_add(1); });
  EXPECT_FALSE(s.completed);
  EXPECT_EQ(ran.load(), 0);
  // The stop is registered sticky on the context.
  EXPECT_TRUE(ctx.stopped());
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kDeadline);
}

TEST(SweepTest, CancellationMidSweepIsObserved) {
  // Cancel from inside the sweep: a context is polled between chunks even
  // on one thread, so the remainder is skipped at every thread count.
  for (int threads : {1, 4}) {
    auto token = std::make_shared<CancellationToken>();
    RunContext ctx;
    ctx.set_cancel_token(token);
    std::atomic<int> ran{0};
    const size_t n = 100000;
    const SweepStatus s = ForEach(n, threads, &ctx, [&](size_t) {
      if (ran.fetch_add(1) == 50) token->Cancel();
    });
    EXPECT_FALSE(s.completed) << "threads=" << threads;
    EXPECT_EQ(s.slots, ParallelChunkCount(n));
    EXPECT_LT(static_cast<size_t>(ran.load()), n);
    EXPECT_EQ(ctx.stats().stop_reason, StopReason::kCancelled);
  }
}

TEST(SweepTest, CompletedSweepChargesExactlyOneStep) {
  RunContext ctx;
  for (int threads : {1, 4}) {
    const size_t before = ctx.stats().iterations_completed;
    ForEach(1000, threads, &ctx, [](size_t) {});
    EXPECT_EQ(ctx.stats().iterations_completed, before + 1)
        << "threads=" << threads;
  }
}

TEST(SweepTest, StepBudgetAppliesFromTheNextSweep) {
  // Budget 1: sweep 1 completes (step 1 stays within budget), sweep 2
  // completes but its closing checkpoint trips the budget (step 2 > 1), so
  // sweep 3 runs nothing. A budget never cuts a sweep that already ran.
  RunContext ctx;
  ctx.set_step_budget(1);
  std::atomic<int> ran{0};
  const auto count = [&](size_t) { ran.fetch_add(1); };
  EXPECT_TRUE(ForEach(10, 4, &ctx, count).completed);
  EXPECT_TRUE(ForEach(10, 4, &ctx, count).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_FALSE(ForEach(10, 4, &ctx, count).completed);
  EXPECT_EQ(ran.load(), 20);
  EXPECT_EQ(ctx.stats().stop_reason, StopReason::kStepBudget);
}

TEST(SweepTest, NestedSweepsRunInlineWithoutDeadlock) {
  // Two nested sweeps back to back: the first must not clear the in-sweep
  // flag on exit, or the second would re-enter the pool from inside the
  // outer sweep and self-deadlock (regression: DrainChunks used to reset
  // the flag instead of restoring it).
  std::atomic<int> inner_total{0};
  ForEach(8, 4, nullptr, [&](size_t) {
    ForEach(8, 4, nullptr, [&](size_t) { inner_total.fetch_add(1); });
    ForEach(8, 4, nullptr, [&](size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 128);
}

TEST(SweepTest, NestedSweepRunsAsOneInlineCall) {
  // Inside a pooled sweep's chunk, a sweep over 100000 items at 4 threads
  // stays on the worker's thread as one call.
  std::atomic<int> wrong{0};
  ForEach(8, 4, nullptr, [&](size_t) {
    const std::thread::id outer = std::this_thread::get_id();
    size_t calls = 0;
    const SweepStatus s = Sweep(100000, 4, nullptr, "inner",
                                [&](size_t chunk, size_t begin, size_t end) {
                                  ++calls;
                                  if (std::this_thread::get_id() != outer ||
                                      chunk != 0 || begin != 0 ||
                                      end != 100000) {
                                    wrong.fetch_add(1);
                                  }
                                });
    if (s.slots != 1 || calls != 1) wrong.fetch_add(1);
  });
  EXPECT_EQ(wrong.load(), 0);
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

// The lane-0 trace of one sweep over n items. With `ctx` set the sweep is
// polled, so on one thread it runs chunk by chunk instead of as one call.
std::string SweepTrace(size_t n, int threads, size_t serial_below,
                       RunContext* ctx) {
  Tracer tracer;
  std::vector<int> hits(n, 0);
  {
    ScopedTelemetry telemetry(&tracer, nullptr);
    PhaseSpan outer(&tracer, "outer");
    Sweep(
        n, threads, ctx, "test/sweep",
        [&](size_t /*chunk*/, size_t begin, size_t end) {
          for (size_t i = begin; i < end; ++i) ++hits[i];
        },
        serial_below);
  }
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i], 1) << "item " << i;
  return LaneZeroFingerprint(tracer);
}

// The distinct threads that ran a sweep's body, and the slots it reported.
// When `await_second` is set, each call waits (up to a generous timeout)
// until a second thread has entered one: a pooled sweep always gets there,
// since its workers claim the chunks the blocked caller cannot, and an
// inline one never does.
std::pair<size_t, size_t> ChunkThreads(size_t n, int threads,
                                       size_t serial_below,
                                       bool await_second) {
  std::mutex mu;
  std::condition_variable cv;
  std::set<std::thread::id> ids;
  const SweepStatus s = Sweep(
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
  return {ids.size(), s.slots};
}

TEST(SweepTest, InlineAndPooledPathsTraceAlike) {
  constexpr size_t kSerialBelow = 2048;  // The agglomerative sweeps' bound.
  for (size_t n : {1u, 255u, 256u, 2047u, 2048u, 5000u}) {
    std::string baseline;
    for (int threads : {1, 4}) {
      const bool inline_path = threads == 1 || n == 1 || n < kSerialBelow;
      const auto [ran_on, slots] =
          ChunkThreads(n, threads, kSerialBelow, !inline_path);
      // One call on the calling thread, or every chunk slot across the pool.
      EXPECT_EQ(slots, inline_path ? 1u : ParallelChunkCount(n))
          << "n=" << n << " threads=" << threads;
      EXPECT_TRUE(inline_path ? ran_on == 1 : ran_on >= 2)
          << "n=" << n << " threads=" << threads << " ran on " << ran_on;
      const std::string trace = SweepTrace(n, threads, kSerialBelow, nullptr);
      RunContext ctx;
      EXPECT_EQ(SweepTrace(n, threads, kSerialBelow, &ctx), trace)
          << "n=" << n << " threads=" << threads;
      if (threads == 1) {
        baseline = trace;
      } else {
        EXPECT_EQ(trace, baseline) << "n=" << n << " threads=" << threads;
      }
    }
  }
}

double ArgminProbe(size_t i) {
  // Minimum 0.25 attained at i = 30, 60, 90, ... — plenty of ties.
  return i % 30 == 0 && i > 0 ? 0.25 : 1.0 + static_cast<double>(i % 7);
}

struct Argmin {
  size_t index = 0;
  double value = 0.0;
  bool valid = false;  // At least one item was evaluated.
};

// Argmin of eval(i) over [0, n) as the full-domain ascent folds it:
// chunk-local minima with strict < in ascending index order, folded over
// the reported slots in chunk order with strict <.
template <typename Eval>
Argmin SweepArgmin(size_t n, int threads, const Eval& eval) {
  std::vector<Argmin> parts(ParallelChunkCount(n));
  const SweepStatus s = Sweep(
      n, threads, nullptr, "test",
      [&](size_t chunk, size_t begin, size_t end) {
        Argmin local;
        for (size_t i = begin; i < end; ++i) {
          const double v = eval(i);
          if (!local.valid || v < local.value) local = {i, v, true};
        }
        parts[chunk] = local;
      });
  Argmin out;
  for (size_t chunk = 0; chunk < s.slots; ++chunk) {
    const Argmin& p = parts[chunk];
    if (p.valid && (!out.valid || p.value < out.value)) out = p;
  }
  return out;
}

TEST(SweepArgminTest, SmallestIndexWinsTiesAtEveryThreadCount) {
  for (int threads : {1, 2, 4, 8}) {
    const Argmin r = SweepArgmin(100000, threads, ArgminProbe);
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.index, 30u) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.value, 0.25);
  }
}

TEST(SweepArgminTest, AllInfiniteSweepIsValidWithInfiniteValue) {
  for (int threads : {1, 4}) {
    const Argmin r = SweepArgmin(100, threads, [](size_t) {
      return std::numeric_limits<double>::infinity();
    });
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.value, std::numeric_limits<double>::infinity());
  }
}

TEST(SweepArgminTest, EmptySweepIsInvalid) {
  const Argmin r = SweepArgmin(0, 4, [](size_t) { return 0.0; });
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
