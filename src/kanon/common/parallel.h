#ifndef KANON_COMMON_PARALLEL_H_
#define KANON_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "kanon/common/run_context.h"
#include "kanon/telemetry/tracer.h"

namespace kanon {

/// Thread count used when a caller passes num_threads <= 0: the hardware
/// concurrency (at least 1).
int DefaultNumThreads();

/// Resolves a requested thread count: values <= 0 mean DefaultNumThreads().
int ResolveNumThreads(int requested);

/// Chunk geometry of a sweep over n items. A pure function of n — never of
/// the thread count or of the machine — so per-chunk partial results merged
/// in chunk-index order are byte-identical for every --threads value (the
/// determinism contract; see docs/parallelism.md).
size_t ParallelChunkCount(size_t n);

/// Half-open item range [begin, end) of chunk `chunk` (< ParallelChunkCount).
/// Chunk ranges partition [0, n) in order: chunk c ends where c+1 begins.
std::pair<size_t, size_t> ParallelChunkRange(size_t n, size_t chunk);

/// True when ParallelChunks(n, num_threads, ..., serial_below) runs every
/// chunk on the calling thread: it resolves to at most one thread (or n has
/// at most one chunk), it is nested inside another sweep's chunk, or
/// n < serial_below. ParallelChunks decides its path by this predicate; a
/// caller that sees it hold may instead run the sweep's work as one direct
/// loop under a SweepSpan, with the same result and the same lane-0 trace.
bool SweepRunsInline(size_t n, int num_threads, size_t serial_below = 0);

/// The lane-0 trace record of one sweep over n items: a "sweep" span named
/// `stage` carrying ParallelChunkCount(n) items, and a step-clock advance by
/// that count — both pure in n, never in the thread count. ParallelChunks
/// holds one per sweep; a direct loop run under SweepRunsInline() holds one
/// for the loop's duration. Nested and empty sweeps record nothing.
class SweepSpan {
 public:
  SweepSpan(size_t n, const char* stage);

  SweepSpan(const SweepSpan&) = delete;
  SweepSpan& operator=(const SweepSpan&) = delete;

  /// The tracer recording this sweep; null when it records nothing.
  Tracer* tracer() const { return tracer_; }

 private:
  Tracer* const tracer_;
  PhaseSpan span_;
};

/// Outcome of one parallel sweep.
struct SweepStatus {
  /// True when every chunk ran. False when `ctx` stopped the sweep early
  /// (deadline or cancellation observed inside a worker): the remaining
  /// chunks were skipped, the stop is already registered sticky on the
  /// context, and the caller must finalize its degraded path. Chunks that
  /// did run are never rolled back.
  bool completed = true;
};

/// Runs body(chunk, begin, end) once per chunk of [0, n), spread over up to
/// `num_threads` threads (<= 0 resolves to DefaultNumThreads()). Bodies must
/// write only disjoint state: their own items, or their own chunk slot of a
/// caller-provided partials array.
///
/// RunContext interaction (ctx may be null):
///   - A sweep on an already-stopped context runs nothing (completed=false).
///   - Workers poll RunContext::StopRequested() — deadline + cancellation,
///     both thread-safe — between chunks; a stop skips the remaining chunks.
///   - A completed sweep charges exactly ONE CheckPoint(stage) from the
///     calling thread, so the step budget advances deterministically (one
///     step per sweep, independent of thread count). The charge may trip the
///     budget; that stop applies from the *next* sweep/checkpoint on, never
///     retroactively to the finished one.
///
/// `serial_below`: run inline on the calling thread when n is smaller
/// (identical results either way; purely an overhead knob for sweeps whose
/// per-item work is tiny). Nested sweeps always run inline.
SweepStatus ParallelChunks(
    size_t n, int num_threads, RunContext* ctx, const char* stage,
    const std::function<void(size_t, size_t, size_t)>& body,
    size_t serial_below = 0);

/// Item-wise wrapper: body(i) for every i in [0, n). When `done` is
/// non-null it is assigned n zeroes up front and done[i] = 1 after body(i)
/// ran — the caller's map of which items survived an interrupted sweep.
SweepStatus ParallelFor(size_t n, int num_threads, RunContext* ctx,
                        const char* stage,
                        const std::function<void(size_t)>& body,
                        std::vector<uint8_t>* done = nullptr,
                        size_t serial_below = 0);

/// Result of a deterministic parallel argmin.
struct ArgminResult {
  size_t index = 0;   // Smallest index attaining the minimum value.
  double value = 0.0;
  bool valid = false;  // At least one item was evaluated.
  /// False when the sweep was stopped early; the result then covers only
  /// the chunks that ran and the caller must treat it as a checkpoint stop.
  bool completed = true;
};

/// Deterministic parallel argmin of eval(i) over [0, n): chunk-local minima
/// are merged in chunk-index order with strict `<`, so the smallest index
/// attaining the global minimum wins at every thread count — the same
/// winner a serial ascending scan with strict `<` picks. Items may opt out
/// by returning +infinity (an all-infinite sweep still reports valid with
/// value +infinity; check the value).
ArgminResult ParallelArgmin(size_t n, int num_threads, RunContext* ctx,
                            const char* stage,
                            const std::function<double(size_t)>& eval,
                            size_t serial_below = 0);

}  // namespace kanon

#endif  // KANON_COMMON_PARALLEL_H_
