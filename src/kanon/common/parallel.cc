#include "kanon/common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "kanon/telemetry/tracer.h"

namespace kanon {

int DefaultNumThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveNumThreads(int requested) {
  return requested > 0 ? requested : DefaultNumThreads();
}

namespace {

// Upper bound on chunks per sweep. Enough granularity for work stealing to
// balance uneven chunks, few enough that the per-chunk claim (one atomic
// fetch_add, one stop poll) is noise.
constexpr size_t kMaxChunks = 256;

// True while the current thread executes sweep chunks (worker or caller).
// Nested sweeps run inline so a chunk body can reuse parallel helpers
// without deadlocking the pool.
thread_local bool t_in_sweep = false;

// One sweep's shared state. Held by shared_ptr so a worker that wakes late
// can never touch freed memory, and stack lifetime never escapes: the
// caller waits until every participant left before returning.
struct Job {
  internal::SweepBody call = nullptr;
  const void* body = nullptr;
  size_t n = 0;
  size_t num_chunks = 0;
  RunContext* ctx = nullptr;
  Tracer* tracer = nullptr;              // Sweep's tracer; workers record
  const char* stage = "";                // their participation against it.
  std::atomic<size_t> next{0};           // Next chunk to claim.
  std::atomic<int> stop{0};              // First StopReason observed, or 0.
  std::atomic<int> seats{0};             // Extra workers still allowed in.
};

// Claims and runs chunks until the sweep is exhausted or stopped; returns
// the number of chunks this thread ran. Shared by pool workers and the
// calling thread.
size_t DrainChunks(Job& job) {
  // Save/restore rather than set/clear: a nested (inline) sweep must not
  // clear the flag while the enclosing sweep is still running, or the next
  // nested call would take the pool path and self-deadlock on region_mu_.
  const bool was_in_sweep = t_in_sweep;
  t_in_sweep = true;
  size_t ran = 0;
  for (;;) {
    if (job.stop.load(std::memory_order_relaxed) != 0) break;
    if (job.ctx != nullptr) {
      const StopReason r = job.ctx->StopRequested();
      if (r != StopReason::kNone) {
        int expected = 0;
        job.stop.compare_exchange_strong(expected, static_cast<int>(r),
                                         std::memory_order_relaxed);
        break;
      }
    }
    const size_t chunk = job.next.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) break;
    const auto [begin, end] = ParallelChunkRange(job.n, chunk);
    job.call(job.body, chunk, begin, end);
    ++ran;
  }
  t_in_sweep = was_in_sweep;
  return ran;
}

// A lazily started pool of DrainChunks workers. One sweep runs at a time
// (concurrent top-level sweeps serialize on region_mu_); the pool grows to
// the largest extra-worker count ever requested and is joined at exit.
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool pool;
    return pool;
  }

  // Runs `job` on the caller plus up to `extra_workers` pool threads;
  // returns only when every participant has left the job.
  void Run(const std::shared_ptr<Job>& job, size_t extra_workers) {
    std::lock_guard<std::mutex> region(region_mu_);
    {
      std::lock_guard<std::mutex> lock(mu_);
      while (workers_.size() < extra_workers) {
        workers_.emplace_back([this] { WorkerLoop(); });
      }
      job->seats.store(static_cast<int>(extra_workers),
                       std::memory_order_relaxed);
      current_ = job;
      ++generation_;
      active_workers_ = 0;
    }
    cv_.notify_all();
    DrainChunks(*job);
    {
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return active_workers_ == 0; });
      current_.reset();
    }
  }

 private:
  ThreadPool() = default;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void WorkerLoop() {
    uint64_t seen_generation = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] {
          return shutdown_ ||
                 (current_ != nullptr && generation_ != seen_generation);
        });
        if (shutdown_) return;
        seen_generation = generation_;
        // Seats bound participation to the sweep's thread budget; workers
        // beyond it (from an earlier, wider sweep) sit this one out.
        if (current_->seats.fetch_sub(1, std::memory_order_relaxed) <= 0) {
          continue;
        }
        job = current_;
        ++active_workers_;
      }
      {
        // Worker-lane span: when the sweep is traced, each participating
        // pool worker records one "worker" span covering its DrainChunks
        // stint. Which worker claims which chunks is scheduling-dependent,
        // so these lanes are outside the determinism contract (lane 0's
        // "sweep" span is the deterministic record); a stint that claimed
        // zero chunks is suppressed entirely.
        PhaseSpan span(job->tracer, job->stage, "worker");
        const size_t ran = DrainChunks(*job);
        span.set_items(ran);
        if (ran == 0) span.Cancel();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--active_workers_ == 0) done_cv_.notify_all();
      }
    }
  }

  std::mutex region_mu_;  // Serializes top-level sweeps.
  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> current_;
  uint64_t generation_ = 0;
  size_t active_workers_ = 0;
  bool shutdown_ = false;
};

}  // namespace

size_t ParallelChunkCount(size_t n) {
  return n < kMaxChunks ? n : kMaxChunks;
}

std::pair<size_t, size_t> ParallelChunkRange(size_t n, size_t chunk) {
  const size_t chunks = ParallelChunkCount(n);
  const size_t base = n / chunks;
  const size_t extra = n % chunks;  // The first `extra` chunks get +1 item.
  const size_t begin = chunk * base + std::min(chunk, extra);
  return {begin, begin + base + (chunk < extra ? 1 : 0)};
}

namespace internal {

SweepStatus RunSweep(size_t n, int num_threads, RunContext* ctx,
                     const char* stage, size_t serial_below, SweepBody call,
                     const void* body) {
  if (ctx != nullptr && ctx->stopped()) return {false, 0};
  if (n == 0) return {true, 0};
  const size_t num_chunks = ParallelChunkCount(n);
  const bool runs_inline = ResolveNumThreads(num_threads) <= 1 ||
                           num_chunks <= 1 || t_in_sweep || n < serial_below;
  // The lane-0 record: only top-level sweeps are traced (nested sweeps run
  // inline inside an already-traced chunk), with items and step-clock
  // advance pure in n.
  Tracer* const tracer = t_in_sweep ? nullptr : CurrentTracer();
  PhaseSpan span(tracer, stage, "sweep");
  if (tracer != nullptr) {
    span.set_items(num_chunks);
    tracer->AdvanceSteps(num_chunks);
  }
  if (runs_inline && ctx == nullptr) {
    // Nothing to poll: one call over the whole range. Save/restore the flag
    // so sweeps nested in the body run inline too.
    const bool was_in_sweep = t_in_sweep;
    t_in_sweep = true;
    call(body, 0, 0, n);
    t_in_sweep = was_in_sweep;
    return {true, 1};
  }
  auto job = std::make_shared<Job>();
  job->call = call;
  job->body = body;
  job->n = n;
  job->num_chunks = num_chunks;
  job->ctx = ctx;
  job->tracer = tracer;
  job->stage = stage;
  if (runs_inline) {
    DrainChunks(*job);
  } else {
    const size_t threads = std::min<size_t>(
        static_cast<size_t>(ResolveNumThreads(num_threads)), num_chunks);
    ThreadPool::Instance().Run(job, threads - 1);
  }
  const int stop = job->stop.load(std::memory_order_relaxed);
  if (stop != 0) {
    if (ctx != nullptr) ctx->NoteStop(static_cast<StopReason>(stop));
    return {false, num_chunks};
  }
  // Step accounting: one deterministic step per completed sweep. A budget
  // tripped here stops the run from the next checkpoint on.
  if (ctx != nullptr) ctx->CheckPoint(stage);
  return {true, num_chunks};
}

}  // namespace internal
}  // namespace kanon
