// A small fixed-size thread pool with a blocking parallel_for.
//
// The solvers parallelize per-source shortest-path batches and the experiment
// runner parallelizes independent trials. We deliberately keep the model
// simple: submit closures, or run an index-range parallel_for that blocks
// until every index is processed. parallel_for schedules dynamically:
// workers claim `grain`-sized chunks from one shared cursor until none
// remain, so which thread runs which index varies from run to run. Bodies
// never touch overlapping state and reductions are performed by the caller
// after the barrier, so results never depend on that assignment.
//
// Nested-submit safety: parallel_for called from a pool worker (e.g. the
// GK solver invoked from an experiment-runner cell) runs its whole range
// inline instead of enqueuing helpers, so a worker never blocks on chunks
// that only another worker could run — the classic self-deadlock of
// fixed-size pools. The outer level already saturates the pool, so the
// inner level losing parallelism costs nothing. The guard is
// pool-AGNOSTIC (in_worker() is a process-wide thread_local): a worker of
// pool A re-entering parallel_for on a different pool B also inlines,
// which is what lets ScenarioFleet cells on the shared pool drive engines
// that own dedicated solver pools without cross-pool deadlock or
// reordering (pinned by the ThreadPool.NestedParallelForAcrossDistinctPools
// regression test).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace tb {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue an arbitrary task; the returned future reports completion and
  /// propagates exceptions.
  std::future<void> submit(std::function<void()> task);

  /// Run body(i) for every i in [begin, end) and block until all complete.
  /// The range is cut into `grain`-sized chunks, the claim unit: up to
  /// size() helper tasks claim chunks one at a time from a shared cursor
  /// until none remain, so a slow index never strands the ones after it.
  /// The calling thread only waits. Runs inline when the range fits in one
  /// chunk, the pool has a single worker, or the caller is a pool worker.
  /// If indices throw, every claimed chunk still drains (a throw ends only
  /// its own chunk) and the exception of the lowest throwing index is
  /// rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t grain = 1);

  /// Process-wide shared pool (size from TOPOBENCH_THREADS env or hardware).
  static ThreadPool& shared();

  /// True when the calling thread is a worker of *any* ThreadPool. Used to
  /// keep nested parallel_for calls inline (see header comment).
  static bool in_worker() noexcept;

  /// Process-shared dedicated pool of exactly `threads` workers, created on
  /// first request and alive for the process (like shared()). Callers that
  /// honor a `*_threads = N` knob (the MCF engines, the flow cut battery)
  /// resolve N > 1 here so repeated solves reuse one pool instead of
  /// spawning and joining N threads per solve. Distinct subsystems sharing
  /// a pool is safe — parallel_for only queues work — and cannot change
  /// results, by the determinism contracts.
  static ThreadPool& dedicated(std::size_t threads);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace tb
