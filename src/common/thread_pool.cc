#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"
#include "obs/clock.h"

namespace gl {

struct ThreadPool::Batch {
  const Task* task = nullptr;
  std::size_t count = 0;
  // The batch whose task posted this one (null for an outermost batch).
  // Every ancestor outlives its descendants: a task cannot finish before
  // the loops it posted have.
  Batch* parent = nullptr;
  // Guarded by the pool's mu_ (the analysis cannot name an enclosing
  // object's member from a nested type).
  std::size_t next = 0;       // first unclaimed index
  std::size_t in_flight = 0;  // claimed, not yet done
  std::int64_t post_us = 0;
  // The poster waits here: signalled when the batch finishes or a batch
  // nested inside it is posted (work the poster may help with).
  CondVar wake{};
};

// The innermost task each thread is running, linked outward through every
// pool the thread is nested in. Workers keep a base frame (batch = null)
// so their slot is known even between tasks.
struct ThreadPool::Frame {
  const ThreadPool* pool;
  int slot;
  Batch* batch;
  Frame* up;

  static Frame*& Top() {
    thread_local Frame* top = nullptr;
    return top;
  }
  Frame(const ThreadPool* p, int s, Batch* b)
      : pool(p), slot(s), batch(b), up(Top()) {
    Top() = this;
  }
  ~Frame() { Top() = up; }
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;
};

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  {
    MutexLock lock(mu_);
    per_thread_busy_us_.assign(static_cast<std::size_t>(num_threads_), 0.0);
  }
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this, slot = i + 1] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    // No ParallelFor / ParallelForChunked may be in flight.
    GOLDILOCKS_CHECK(open_.empty());
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::ParallelFor(std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
  Run(count, [&fn](int, std::size_t i) { fn(i); });
}

void ThreadPool::ParallelForChunked(
    std::size_t total, std::size_t grain,
    const std::function<void(int, std::size_t, std::size_t)>& fn) {
  GOLDILOCKS_CHECK(grain > 0);
  Run((total + grain - 1) / grain,
      [&fn, total, grain](int slot, std::size_t c) {
        fn(slot, c * grain, std::min(total, (c + 1) * grain));
      });
}

void ThreadPool::ParallelForWithRng(
    std::size_t count, const Rng& base,
    const std::function<void(std::size_t, Rng&)>& fn) {
  ParallelFor(count, [&base, &fn](std::size_t i) {
    Rng rng = base.Fork(static_cast<std::uint64_t>(i));
    fn(i, rng);
  });
}

void ThreadPool::Run(std::size_t count, const Task& task) {
  if (count == 0) return;
  // Nested call: the poster keeps its slot and its batch becomes the
  // parent. Otherwise this is an outermost loop driven from slot 0.
  const Frame* enclosing = Frame::Top();
  while (enclosing != nullptr && enclosing->pool != this) {
    enclosing = enclosing->up;
  }
  const int slot = enclosing != nullptr ? enclosing->slot : 0;
  Batch batch{&task, count, enclosing != nullptr ? enclosing->batch : nullptr};
  const bool outermost = batch.parent == nullptr;

  if (num_threads_ == 1 || count == 1) {
    // Inline fast path: no locks or queues around the tasks themselves;
    // one timing bracket for the whole run (busy == wall, efficiency 1).
    const std::int64_t t0 = obs::MonotonicMicros();
    {
      const Frame frame(this, slot, &batch);
      for (std::size_t i = 0; i < count; ++i) task(slot, i);
    }
    const auto elapsed = static_cast<double>(obs::MonotonicMicros() - t0);
    MutexLock lock(mu_);
    ++batches_;
    tasks_ += count;
    if (outermost) {
      busy_us_ += elapsed;
      batch_wall_us_ += elapsed;
      per_thread_busy_us_[static_cast<std::size_t>(slot)] += elapsed;
    }
    return;
  }

  mu_.Lock();
  batch.post_us = obs::MonotonicMicros();
  open_.push_back(&batch);
  // Waiting ancestors may help with the new batch, and so may idle workers;
  // the poster takes one task itself.
  for (Batch* a = batch.parent; a != nullptr; a = a->parent) {
    a->wake.NotifyOne();
  }
  for (std::size_t w = 1; w < std::min<std::size_t>(count, num_threads_);
       ++w) {
    work_cv_.NotifyOne();
  }
  while (true) {
    if (Batch* work = NewestOpen(&batch)) {
      RunOne(*work, slot, outermost);
    } else if (batch.in_flight == 0 && batch.next == count) {
      break;
    } else {
      batch.wake.Wait(mu_);
    }
  }
  ++batches_;
  if (outermost) {
    batch_wall_us_ +=
        static_cast<double>(obs::MonotonicMicros() - batch.post_us);
  }
  mu_.Unlock();
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.workers = num_threads_;
  MutexLock lock(mu_);
  stats.batches = batches_;
  stats.tasks = tasks_;
  stats.busy_us = busy_us_;
  stats.queue_wait_us = queue_wait_us_;
  stats.batch_wall_us = batch_wall_us_;
  stats.per_thread_busy_us = per_thread_busy_us_;
  return stats;
}

void ThreadPool::WorkerLoop(int slot) {
  const Frame base(this, slot, nullptr);
  mu_.Lock();
  while (!shutdown_) {
    if (Batch* work = NewestOpen(nullptr)) {
      RunOne(*work, slot, /*outermost=*/true);
    } else {
      work_cv_.Wait(mu_);
    }
  }
  mu_.Unlock();
}

ThreadPool::Batch* ThreadPool::NewestOpen(const Batch* within) const {
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    for (const Batch* b = *it; b != nullptr; b = b->parent) {
      if (within == nullptr || b == within) return *it;
    }
  }
  return nullptr;
}

void ThreadPool::RunOne(Batch& batch, int slot, bool outermost) {
  const std::size_t i = batch.next++;
  if (batch.next == batch.count) {
    open_.erase(std::find(open_.begin(), open_.end(), &batch));
  }
  ++batch.in_flight;
  // queue wait = posted-to-claimed: how long the task index sat in the
  // batch before a thread picked it up.
  const std::int64_t claim_us = obs::MonotonicMicros();
  queue_wait_us_ += static_cast<double>(claim_us - batch.post_us);
  ++tasks_;
  mu_.Unlock();
  {
    const Frame frame(this, slot, &batch);
    (*batch.task)(slot, i);
  }
  mu_.Lock();
  if (outermost) {
    const auto elapsed =
        static_cast<double>(obs::MonotonicMicros() - claim_us);
    busy_us_ += elapsed;
    per_thread_busy_us_[static_cast<std::size_t>(slot)] += elapsed;
  }
  if (--batch.in_flight == 0 && batch.next == batch.count) {
    batch.wake.NotifyOne();
  }
}

}  // namespace gl
