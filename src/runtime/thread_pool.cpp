#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>

#include "support/timer.hpp"

namespace parulel {

/// A fork-join batch: either a vector of jobs or a chunked index range,
/// plus a next-job cursor. Lives on the submitting thread's stack;
/// submit() does not return (and so does not destroy it) until every
/// worker that entered it has left. A range batch computes each chunk's
/// bounds from its index, so parallel_for allocates nothing.
struct ThreadPool::Batch {
  std::size_t count = 0;  ///< jobs, or chunks of the range
  const std::vector<std::function<void(unsigned)>>* jobs = nullptr;
  const std::function<void(std::size_t, unsigned)>* range_fn = nullptr;
  std::size_t begin = 0, end = 0, chunk_size = 0;
  ThreadPool::WorkerStat* worker_stats = nullptr;
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  void run_job(std::size_t i, unsigned worker_id) const {
    if (jobs) {
      (*jobs)[i](worker_id);
      return;
    }
    const std::size_t lo = begin + i * chunk_size;
    const std::size_t hi = std::min(end, lo + chunk_size);
    for (std::size_t k = lo; k < hi; ++k) (*range_fn)(k, worker_id);
  }

  // Claims and runs jobs until none are left unclaimed.
  void run_some(unsigned worker_id) {
    WorkerStat& stat = worker_stats[worker_id];
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      const Timer job_timer;
      try {
        run_job(i, worker_id);
      } catch (...) {
        std::scoped_lock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      stat.jobs.fetch_add(1, std::memory_order_relaxed);
      stat.busy_ns.fetch_add(job_timer.elapsed_ns(),
                             std::memory_order_relaxed);
    }
  }

  // Publish the batch to the workers, run it with the caller as worker
  // 0, and return once every worker has left it.
  void submit(ThreadPool& pool) {
    worker_stats = pool.worker_stats_.get();
    {
      std::scoped_lock lock(pool.mutex_);
      assert(pool.current_ == nullptr && "nested batches are not supported");
      pool.current_ = this;
      ++pool.generation_;
    }
    pool.work_ready_.notify_all();

    run_some(0);  // The caller is worker 0.
    // Every job is claimed once run_some returns; a claimed job finishes
    // before its worker leaves the batch. So once no worker can enter
    // any more and none is inside, every job is done and the batch may
    // die.
    {
      std::unique_lock lock(pool.mutex_);
      pool.current_ = nullptr;
      pool.batch_left_.wait(lock, [&pool] { return pool.inside_ == 0; });
    }

    if (first_error) std::rethrow_exception(first_error);
  }
};

ThreadPool::ThreadPool(unsigned threads)
    : threads_(std::max(1u, threads)),
      worker_stats_(std::make_unique<WorkerStat[]>(threads_)) {
  // Worker 0 is the calling thread; only threads_-1 extra workers run.
  workers_.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    shutting_down_ = true;
  }
  work_ready_.notify_all();
  // jthread joins in its destructor.
}

PoolStatsSnapshot ThreadPool::stats() const {
  PoolStatsSnapshot snap;
  snap.batches = batches_.load(std::memory_order_relaxed);
  snap.per_worker_jobs.resize(threads_);
  snap.per_worker_busy_ns.resize(threads_);
  for (unsigned w = 0; w < threads_; ++w) {
    const std::uint64_t jobs =
        worker_stats_[w].jobs.load(std::memory_order_relaxed);
    const std::uint64_t busy =
        worker_stats_[w].busy_ns.load(std::memory_order_relaxed);
    snap.per_worker_jobs[w] = jobs;
    snap.per_worker_busy_ns[w] = busy;
    snap.jobs += jobs;
    snap.busy_ns += busy;
  }
  return snap;
}

unsigned ThreadPool::default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw == 0 ? 4u : hw, 1u, 64u);
}

void ThreadPool::worker_loop(unsigned worker_id) {
  std::uint64_t seen = 0;  // generation of the last batch entered
  for (;;) {
    Batch* batch = nullptr;
    {
      // Keyed on the generation, not the batch address: a new batch
      // built at a finished one's stack address is still a new batch.
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this, seen] {
        return shutting_down_ || (current_ != nullptr && generation_ != seen);
      });
      if (shutting_down_) return;
      batch = current_;
      seen = generation_;
      ++inside_;
    }
    batch->run_some(worker_id);
    {
      std::scoped_lock lock(mutex_);
      if (--inside_ == 0) batch_left_.notify_all();
    }
  }
}

void ThreadPool::run_batch(
    const std::vector<std::function<void(unsigned)>>& jobs) {
  if (jobs.empty()) return;
  batches_.fetch_add(1, std::memory_order_relaxed);
  if (threads_ == 1 || jobs.size() == 1) {
    WorkerStat& stat = worker_stats_[0];
    for (const auto& job : jobs) {
      const Timer job_timer;
      job(0);
      stat.jobs.fetch_add(1, std::memory_order_relaxed);
      stat.busy_ns.fetch_add(job_timer.elapsed_ns(),
                             std::memory_order_relaxed);
    }
    return;
  }

  Batch batch;
  batch.count = jobs.size();
  batch.jobs = &jobs;
  batch.submit(*this);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, unsigned)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (threads_ == 1 || n == 1) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    WorkerStat& stat = worker_stats_[0];
    const Timer job_timer;
    for (std::size_t i = begin; i < end; ++i) fn(i, 0);
    stat.jobs.fetch_add(1, std::memory_order_relaxed);
    stat.busy_ns.fetch_add(job_timer.elapsed_ns(),
                           std::memory_order_relaxed);
    return;
  }
  // Chunk into ~4 chunks per worker for load balance without per-index
  // dispatch overhead.
  const std::size_t chunks = std::min<std::size_t>(n, threads_ * 4ull);
  const std::size_t chunk_size = (n + chunks - 1) / chunks;
  batches_.fetch_add(1, std::memory_order_relaxed);
  Batch batch;
  batch.count = (n + chunk_size - 1) / chunk_size;
  batch.range_fn = &fn;
  batch.begin = begin;
  batch.end = end;
  batch.chunk_size = chunk_size;
  batch.submit(*this);
}

}  // namespace parulel
