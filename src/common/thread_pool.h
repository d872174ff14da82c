// Fixed-size, nestable thread pool with deterministic, index-slotted loops.
//
// Parallelism in this tree must never change results (DESIGN.md §9): the
// same seed has to produce bit-identical epochs at threads=1 and threads=N.
// The pool's only primitive is therefore ParallelFor(count, fn): task i is
// fn(i), every index is claimed exactly once, and each task writes only its
// own caller-owned result slot. Merging happens on the calling thread, in
// index order, after the loop — so the output never depends on which worker
// ran which index or in what order tasks finished.
//
// Stochastic tasks take their randomness from a keyed sub-stream,
// base.Fork(i) (common/rng.h): the parent cursor is never advanced, so
// replay hashes are unchanged and no Rng is ever shared across threads.
//
// The pool owns num_threads-1 workers; the calling thread participates in
// every loop, so ThreadPool(1) spawns nothing and runs inline — the serial
// path and the parallel path are the same code. Tasks must not throw
// (failures in this codebase abort via GOLDILOCKS_CHECK).
//
// Loops nest: a task may call ParallelFor on the pool that runs it (fork-
// join recursion, a chunked kernel inside a parallel split). Every call
// posts its own batch; idle workers claim from the newest batch with
// unclaimed work, and a caller waiting for its batch runs that batch's
// unclaimed tasks — or those of batches nested inside it — instead of
// sleeping. Helping only inside its own batch keeps a waiting caller from
// picking up unrelated work that would delay its return, and bounds the
// stack by the nesting depth.
//
// This file is the sanctioned home for raw std::thread (gl_analyze GL006,
// blessed in the baseline): everything else fans out through a ThreadPool.
//
// The pool also keeps per-worker utilization telemetry (busy / queue-wait /
// batch wall), aggregated under the pool mutex and exposed via Stats().
// All of it is wall-clock derived and therefore informational only
// (DESIGN.md §10): callers may publish it on the kInformational side of the
// metrics registry, but it must never be hashed or steer a decision.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/rng.h"
#include "common/thread_annotations.h"

namespace gl {

// Cumulative utilization snapshot over every ParallelFor a pool has run.
// Slot 0 of per_thread_busy_us is the calling thread (it participates in
// every loop); slots 1..workers-1 are the pool's own worker threads. Busy
// time counts a thread only while it runs a task at its outermost nesting
// level, and batch wall counts only outermost batches, so nested loops are
// never counted twice and the efficiency stays within (0, 1].
struct ThreadPoolStats {
  int workers = 1;
  std::uint64_t batches = 0;  // ParallelFor invocations (incl. inline runs)
  std::uint64_t tasks = 0;    // fn(i) calls
  double busy_us = 0.0;       // time inside outermost tasks, all threads
  double queue_wait_us = 0.0; // posted-to-claimed latency, summed over tasks
  double batch_wall_us = 0.0; // per outermost batch: post to last completion
  std::vector<double> per_thread_busy_us;

  // busy / (workers × wall): 1.0 = every thread busy for every batch's
  // whole duration. The serial fast path is 1.0 by construction.
  [[nodiscard]] double ParallelEfficiency() const {
    const double denom = static_cast<double>(workers) * batch_wall_us;
    return denom > 0.0 ? busy_us / denom : 1.0;
  }
  // Thread-time inside batches not spent running tasks.
  [[nodiscard]] double IdleUs() const {
    const double idle =
        static_cast<double>(workers) * batch_wall_us - busy_us;
    return idle > 0.0 ? idle : 0.0;
  }
};

class ThreadPool {
 public:
  // Clamped to >= 1. The pool spawns num_threads-1 workers; a pool of one
  // is a plain loop with no threads, locks or queues touched.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int num_threads() const { return num_threads_; }

  // Runs fn(0) .. fn(count-1), each index exactly once, and returns when
  // all calls have finished. The calling thread executes tasks too. fn must
  // be safe to invoke concurrently from multiple threads for distinct
  // indices; writes should go to per-index slots owned by the caller.
  void ParallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn)
      GL_EXCLUDES(mu_);

  // ParallelFor that hands task i the replay-stable sub-stream base.Fork(i).
  // `base` is read-only: forking is keyed and does not advance the parent.
  void ParallelForWithRng(std::size_t count, const Rng& base,
                          const std::function<void(std::size_t, Rng&)>& fn)
      GL_EXCLUDES(mu_);

  // Chunked variant for fine-grained loops: the index space [0, total) is
  // cut into fixed runs of `grain` indices (the last run may be short) and
  // each task is one run, so per-index loops stop paying a claim/retire
  // round-trip per element. Chunk boundaries depend only on `total` and
  // `grain` — never on the worker count — so per-chunk partial results keyed
  // by chunk index fold deterministically at every width (DESIGN.md §9).
  // fn receives the running thread's slot (0 = the external caller,
  // 1..num_threads-1 = workers) alongside the chunk's [begin, end). No two
  // threads run under one slot at the same time, but the slot→chunk mapping
  // is scheduling-dependent, so slot-keyed scratch is safe only for state
  // the body fully re-initializes per chunk. A task waiting on a nested loop
  // runs that loop's tasks under its own slot, so a loop and the loops
  // nested in its tasks must not share slot-keyed scratch.
  void ParallelForChunked(
      std::size_t total, std::size_t grain,
      const std::function<void(int slot, std::size_t begin, std::size_t end)>&
          fn) GL_EXCLUDES(mu_);

  // Utilization accumulated over every loop this pool has run so far.
  // Informational only — never hashed, never a decision input.
  [[nodiscard]] ThreadPoolStats Stats() const GL_EXCLUDES(mu_);

 private:
  // One posted loop; lives on the posting thread's stack until its last
  // task finishes. Defined in thread_pool.cc.
  struct Batch;
  // Per-thread record of the task a thread is running (thread_pool.cc).
  struct Frame;
  using Task = std::function<void(int slot, std::size_t i)>;

  // The one post/help/wait body behind both loop entry points.
  void Run(std::size_t count, const Task& task) GL_EXCLUDES(mu_);
  // `slot` is the thread's index into per_thread_busy_us (0 = caller).
  void WorkerLoop(int slot) GL_EXCLUDES(mu_);
  // Newest open batch that is `within` or nested inside it (any open batch
  // when `within` is null); null when there is none.
  Batch* NewestOpen(const Batch* within) const GL_REQUIRES(mu_);
  // Claims and runs the next task of `batch`, dropping the lock around the
  // call. `outermost` says whether the thread was idle (not inside another
  // task of this pool), which decides whether the task counts as busy time.
  void RunOne(Batch& batch, int slot, bool outermost) GL_REQUIRES(mu_);

  const int num_threads_;

  mutable Mutex mu_;
  CondVar work_cv_;  // idle workers: a batch was posted, or shutdown

  // Batches with unclaimed tasks, oldest first; a batch leaves the list
  // when its last task is claimed.
  std::vector<Batch*> open_ GL_GUARDED_BY(mu_);
  bool shutdown_ GL_GUARDED_BY(mu_) = false;

  // Telemetry (informational). Accumulated under mu_ at points that already
  // hold it, so the task fast path pays one clock read per claim/retire.
  std::uint64_t batches_ GL_GUARDED_BY(mu_) = 0;
  std::uint64_t tasks_ GL_GUARDED_BY(mu_) = 0;
  double busy_us_ GL_GUARDED_BY(mu_) = 0.0;
  double queue_wait_us_ GL_GUARDED_BY(mu_) = 0.0;
  double batch_wall_us_ GL_GUARDED_BY(mu_) = 0.0;
  std::vector<double> per_thread_busy_us_ GL_GUARDED_BY(mu_);

  // Only touched by the owning thread (constructor / destructor).
  std::vector<std::thread> workers_;
};

}  // namespace gl
