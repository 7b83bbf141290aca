#include "uavdc/util/thread_pool.hpp"

#include <algorithm>

namespace uavdc::util {

ThreadPool::ThreadPool(std::size_t threads) {
    if (threads == 0) {
        threads = std::max(1u, std::thread::hardware_concurrency());
    }
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
        workers_.emplace_back([this] { worker_loop(); });
    }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) {
        if (w.joinable()) w.join();
    }
}

void ThreadPool::worker_loop() {
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock lock(mu_);
            cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty()) {
                if (stopping_) return;
                continue;
            }
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

bool ThreadPool::on_worker_thread() const {
    const auto me = std::this_thread::get_id();
    for (const auto& w : workers_) {
        if (w.get_id() == me) return true;
    }
    return false;
}

ThreadPool& global_pool() {
    static ThreadPool pool;
    return pool;
}

}  // namespace uavdc::util
