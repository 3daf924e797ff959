#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <map>
#include <memory>

#include "util/env.h"

namespace tb {

namespace {
thread_local bool t_in_worker = false;

// One parallel_for call. Helpers claim chunk numbers from `cursor` until it
// passes `chunks`; the caller sleeps on `done_cv` until every chunk has run.
// Held by shared_ptr: a helper dequeued after the call returned still finds
// the job alive, claims nothing, and never dereferences `body`.
struct ForJob {
  const std::function<void(std::size_t)>* body = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::atomic<std::size_t> cursor{0};
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t done = 0;  // chunks run to their end or to a throw
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;  // from the lowest throwing index so far
};

void claim_chunks(ForJob& job) {
  std::size_t ran = 0;
  for (;; ++ran) {
    const std::size_t c = job.cursor.fetch_add(1);
    if (c >= job.chunks) break;
    const std::size_t lo = job.begin + c * job.grain;
    const std::size_t hi = std::min(job.end, lo + job.grain);
    std::size_t i = lo;
    try {
      for (; i < hi; ++i) (*job.body)(i);
    } catch (...) {
      // A throw ends its own chunk only; the other chunks still run.
      const std::lock_guard<std::mutex> lock(job.mu);
      if (i < job.error_index) {
        job.error_index = i;
        job.error = std::current_exception();
      }
    }
  }
  if (ran == 0) return;
  const std::lock_guard<std::mutex> lock(job.mu);
  job.done += ran;
  if (job.done == job.chunks) job.done_cv.notify_one();
}
}  // namespace

bool ThreadPool::in_worker() noexcept { return t_in_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> fut = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(packaged));
  }
  cv_.notify_one();
  return fut;
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body,
                              std::size_t grain) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t workers = size();
  if (workers <= 1 || n <= grain || in_worker()) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }
  auto job = std::make_shared<ForJob>();
  job->body = &body;
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->chunks = (n + grain - 1) / grain;
  const std::size_t helpers = std::min(workers, job->chunks);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t h = 0; h < helpers; ++h) {
      tasks_.emplace([job] { claim_chunks(*job); });
    }
  }
  for (std::size_t h = 0; h < helpers; ++h) cv_.notify_one();
  // Wait for every chunk, not just the first failure: rethrowing while
  // chunks still run would unwind the caller's frame (and `body`'s
  // captures) under live workers.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(job->mu);
    job->done_cv.wait(lock, [&job] { return job->done == job->chunks; });
    // Take the exception out of the job under its lock: a helper may still
    // hold the job and drop the last reference to it after we return, and
    // that must not free the exception the caller is reading.
    error = std::move(job->error);
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& ThreadPool::shared() {
  // Strict single-point knob loading (util/env.h): TOPOBENCH_THREADS must
  // be an integer in [0, 512] (0 = hardware concurrency) or pool creation
  // throws — a fleet must fail loudly, not silently fall back to a default
  // worker count.
  static ThreadPool pool(static_cast<std::size_t>(
      env::int_knob("TOPOBENCH_THREADS", 0, 0, 512)));
  return pool;
}

ThreadPool& ThreadPool::dedicated(std::size_t threads) {
  static std::mutex mu;
  static std::map<std::size_t, std::unique_ptr<ThreadPool>> pools;
  const std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<ThreadPool>& slot = pools[threads];
  if (!slot) slot = std::make_unique<ThreadPool>(threads);
  return *slot;
}

ThreadPool* ThreadPool::resolve(int threads) {
  if (threads == 1) return nullptr;
  if (threads <= 0 || in_worker()) return &shared();
  return &dedicated(static_cast<std::size_t>(threads));
}

void ThreadPool::worker_loop() {
  t_in_worker = true;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace tb
