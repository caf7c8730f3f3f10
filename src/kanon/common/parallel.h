#ifndef KANON_COMMON_PARALLEL_H_
#define KANON_COMMON_PARALLEL_H_

#include <cstddef>
#include <utility>

#include "kanon/common/run_context.h"

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

/// Outcome of one sweep.
struct SweepStatus {
  /// True when every item ran. False when `ctx` stopped the sweep early
  /// (deadline or cancellation observed between chunks): the remaining
  /// chunks were skipped, the stop is already registered sticky on the
  /// context, and the caller must finalize its degraded path. Chunks that
  /// did run are never rolled back.
  bool completed = true;
  /// Chunk slots 0..slots-1 the sweep may have written: 1 when it ran as one
  /// call over [0, n), ParallelChunkCount(n) when it ran chunk by chunk, 0
  /// when it ran nothing. A fold of per-chunk partials reads only these, in
  /// order; on a stopped sweep some of them may be unwritten.
  size_t slots = 0;
};

namespace internal {

// The pool reaches a Sweep's body through this pointer, with the body's
// address as its first argument, so the body is never copied or boxed.
using SweepBody = void (*)(const void* body, size_t chunk, size_t begin,
                           size_t end);

SweepStatus RunSweep(size_t n, int num_threads, RunContext* ctx,
                     const char* stage, size_t serial_below, SweepBody call,
                     const void* body);

}  // namespace internal

/// Runs body(chunk, begin, end) over [0, n), spread over up to `num_threads`
/// threads (<= 0 resolves to DefaultNumThreads()). Each call covers one
/// range [begin, end) and writes chunk slot `chunk`; a body must loop over
/// its range and never assume one item per call. Bodies must write only
/// disjoint state: their own items, or their own slot of a caller-provided
/// partials array sized ParallelChunkCount(n).
///
/// Paths:
///   - Inline, one call. The sweep stays on the calling thread — it
///     resolves to one thread, n < serial_below, n fits one chunk, or it is
///     nested inside another sweep's body — and `ctx` is null, so there is
///     no stop to poll: body(0, 0, n) runs once. slots = 1.
///   - Chunked. Otherwise body runs once per chunk of ParallelChunkRange,
///     on the calling thread alone when the sweep stays there, else on the
///     calling thread plus pool workers claiming chunks. Partials merged in
///     chunk order are identical to the one-call result. slots =
///     ParallelChunkCount(n).
/// Both paths leave the same lane-0 trace: one "sweep" span named `stage`
/// carrying ParallelChunkCount(n) items and a step-clock advance by that
/// count (nested and empty sweeps record nothing).
///
/// RunContext interaction (ctx may be null):
///   - A sweep on an already-stopped context runs nothing (completed=false).
///   - RunContext::StopRequested() — deadline + cancellation, both
///     thread-safe — is polled before every chunk; a stop skips the
///     remaining chunks.
///   - A completed sweep charges exactly ONE CheckPoint(stage) from the
///     calling thread, so the step budget advances deterministically (one
///     step per sweep, independent of thread count). The charge may trip the
///     budget; that stop applies from the *next* sweep/checkpoint on, never
///     retroactively to the finished one.
///
/// `serial_below` is purely an overhead knob for sweeps whose per-item work
/// is tiny: results are identical on every path.
template <typename Body>
SweepStatus Sweep(size_t n, int num_threads, RunContext* ctx,
                  const char* stage, const Body& body,
                  size_t serial_below = 0) {
  return internal::RunSweep(
      n, num_threads, ctx, stage, serial_below,
      [](const void* b, size_t chunk, size_t begin, size_t end) {
        (*static_cast<const Body*>(b))(chunk, begin, end);
      },
      &body);
}

}  // namespace kanon

#endif  // KANON_COMMON_PARALLEL_H_
