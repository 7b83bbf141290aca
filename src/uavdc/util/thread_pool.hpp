#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "uavdc/util/check.hpp"

namespace uavdc::util {

/// Fixed-size worker pool. Parallelism is across whole plans: the plan
/// service runs its workers on one, and compare, conformance, Monte Carlo
/// and the bench harness's replicates spread plans over one. A greedy plan
/// never fans out onto it (DESIGN.md, concurrency model).
///
/// Tasks are arbitrary callables; `submit` returns a std::future. The pool
/// joins all workers on destruction after draining the queue.
class ThreadPool {
  public:
    /// Spawn `threads` workers (defaults to hardware concurrency, min 1).
    explicit ThreadPool(std::size_t threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    [[nodiscard]] std::size_t num_threads() const { return workers_.size(); }

    /// Enqueue a task; the future resolves with its result (or exception).
    template <typename F>
    auto submit(F&& f) -> std::future<std::invoke_result_t<F>> {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
        std::future<R> fut = task->get_future();
        {
            std::lock_guard lock(mu_);
            UAVDC_REQUIRE(!stopping_) << "ThreadPool: submit after shutdown";
            queue_.emplace_back([task]() { (*task)(); });
        }
        cv_.notify_one();
        return fut;
    }

    /// Deterministic shutdown: drain the queue, then join every worker.
    /// Idempotent (the destructor calls it); `submit` after shutdown raises
    /// a ContractViolation. Lets owners (the plan service, tests) sequence
    /// "no worker is running" against their own teardown instead of relying
    /// on destructor ordering.
    void shutdown();

    /// True when called from one of this pool's worker threads. Nested
    /// parallel constructs use this to fall back to inline execution
    /// instead of deadlocking on their own queue.
    [[nodiscard]] bool on_worker_thread() const;

  private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_{false};
};

/// Process-wide shared pool (lazily constructed).
ThreadPool& global_pool();

}  // namespace uavdc::util
