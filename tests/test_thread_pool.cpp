#include "uavdc/util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "uavdc/util/parallel_for.hpp"

namespace uavdc::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
    ThreadPool pool(4);
    EXPECT_EQ(pool.num_threads(), 4u);
    auto f = pool.submit([] { return 21 * 2; });
    EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ManyTasksAllComplete) {
    ThreadPool pool(4);
    std::atomic<int> counter{0};
    std::vector<std::future<void>> futs;
    for (int i = 0; i < 500; ++i) {
        futs.push_back(pool.submit([&counter] { ++counter; }));
    }
    for (auto& f : futs) f.get();
    EXPECT_EQ(counter.load(), 500);
}

TEST(ThreadPool, PropagatesExceptions) {
    ThreadPool pool(2);
    auto f = pool.submit([]() -> int {
        throw std::runtime_error("boom");
    });
    EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
    ThreadPool pool;
    EXPECT_GE(pool.num_threads(), 1u);
}

TEST(ParallelFor, CoversExactRange) {
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(pool, 0, hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeNoop) {
    ThreadPool pool(2);
    int calls = 0;
    parallel_for(pool, 5, 5, [&](std::size_t) { ++calls; });
    parallel_for(pool, 7, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallRangeRunsInline) {
    ThreadPool pool(4);
    std::vector<int> out(3, 0);
    parallel_for(pool, 0, 3, [&](std::size_t i) { out[i] = 1; }, 100);
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 3);
}

TEST(ParallelFor, RethrowsWorkerException) {
    ThreadPool pool(4);
    EXPECT_THROW(
        parallel_for(pool, 0, 100,
                     [](std::size_t i) {
                         if (i == 57) throw std::logic_error("bad index");
                     }),
        std::logic_error);
}

TEST(ParallelFor, SumMatchesSerial) {
    ThreadPool pool(8);
    const std::size_t n = 10000;
    std::vector<double> vals(n);
    parallel_for(pool, 0, n, [&](std::size_t i) {
        vals[i] = static_cast<double>(i) * 0.5;
    });
    double s = 0.0;
    for (double v : vals) s += v;
    EXPECT_DOUBLE_EQ(s, 0.5 * static_cast<double>(n) *
                            static_cast<double>(n - 1) / 2.0);
}

TEST(GlobalPool, IsUsable) {
    auto f = global_pool().submit([] { return 1; });
    EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, ShutdownDrainsThenJoins) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 128; ++i) {
        (void)pool.submit([&done] { ++done; });
    }
    pool.shutdown();
    // Every queued task ran before the workers were joined.
    EXPECT_EQ(done.load(), 128);
}

TEST(ThreadPool, ShutdownIsIdempotentAndRejectsNewWork) {
    ThreadPool pool(2);
    pool.shutdown();
    pool.shutdown();  // second call is a no-op, not a crash
    EXPECT_THROW((void)pool.submit([] { return 0; }),
                 uavdc::util::ContractViolation);
}

}  // namespace
}  // namespace uavdc::util
