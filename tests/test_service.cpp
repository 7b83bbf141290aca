#include "uavdc/service/plan_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/service/jsonl.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/service/workload_gen.hpp"
#include "uavdc/util/thread_pool.hpp"

#include "test_util.hpp"

namespace uavdc::service {
namespace {

PlanRequest make_request(std::string id, std::string planner,
                         const model::Instance& inst) {
    PlanRequest req;
    req.id = std::move(id);
    req.planner = std::move(planner);
    req.instance = inst;
    return req;
}

/// Deterministic identity of a result payload: the serialized plan plus
/// every stats field except wall-clock runtime. Two runs of the same
/// (instance, planner, options) must agree on this key bit for bit.
std::string result_key(const io::Json& result) {
    io::Json key;
    key["plan"] = result.at("plan");
    key["planner"] = result.at("planner");
    key["instance_fingerprint"] = result.at("instance_fingerprint");
    const io::Json& stats = result.at("stats");
    key["planned_mb"] = stats.at("planned_mb");
    key["planned_energy_j"] = stats.at("planned_energy_j");
    key["iterations"] = stats.at("iterations");
    key["candidates"] = stats.at("candidates");
    return key.dump();
}

/// The same plan computed straight through the registry — the reference the
/// service must match byte for byte.
std::string direct_key(const model::Instance& inst,
                       const std::string& planner,
                       const core::PlannerOptions& opts) {
    const auto ctx = core::PlanningContext::obtain(inst, opts.hover_config());
    const auto impl = core::make_planner(planner, opts);
    const auto res = impl->plan(*ctx);
    io::Json key;
    key["plan"] = io::to_json(res.plan);
    key["planner"] = impl->name();  // display name, e.g. "alg2-greedy"
    key["instance_fingerprint"] = fingerprint_to_hex(
        core::PlanningContext::instance_fingerprint(inst));
    key["planned_mb"] = res.stats.planned_mb;
    key["planned_energy_j"] = res.stats.planned_energy_j;
    key["iterations"] = res.stats.iterations;
    key["candidates"] = res.stats.candidates;
    return key.dump();
}

core::PlannerOptions fast_options() {
    core::PlannerOptions opts;
    opts.delta_m = 25.0;
    opts.grasp_iterations = 3;
    return opts;
}

/// Planner options outside their valid range, each a bad request.
const std::vector<std::pair<std::string, double>> kOutOfRangeOptions{
    {"delta_m", 0.0},        {"delta_m", -5.0}, {"k", 0.0}, {"k", -2.0},
    {"reduce_coarsen", 0.0}, {"reduce_consolidate", -4.0}};

TEST(ServiceRequest, JsonRoundTrip) {
    const auto inst = uavdc::testing::small_instance(12, 200.0, 31);
    PlanRequest req = make_request("req-7", "alg3", inst);
    req.overrides.delta_m = 17.5;
    req.overrides.k = 3;
    req.overrides.scoring = core::ScoringEngine::kReference;
    req.overrides.solver = orienteering::SolverKind::kGrasp;
    req.priority = 4;
    req.deadline_ms = 250.0;

    const PlanRequest back = request_from_json(to_json(req));
    EXPECT_EQ(back.id, "req-7");
    EXPECT_EQ(back.planner, "alg3");
    ASSERT_TRUE(back.instance.has_value());
    EXPECT_EQ(core::PlanningContext::instance_fingerprint(*back.instance),
              core::PlanningContext::instance_fingerprint(inst));
    EXPECT_EQ(back.overrides.delta_m, 17.5);
    EXPECT_EQ(back.overrides.k, 3);
    EXPECT_EQ(back.overrides.scoring, core::ScoringEngine::kReference);
    EXPECT_EQ(back.overrides.solver, orienteering::SolverKind::kGrasp);
    EXPECT_FALSE(back.overrides.max_candidates.has_value());
    EXPECT_EQ(back.priority, 4);
    EXPECT_EQ(back.deadline_ms, 250.0);

    // Reference form survives too.
    PlanRequest ref;
    ref.id = "by-ref";
    ref.planner = "alg2";
    ref.instance_ref = 0xdeadbeefcafef00dULL;
    const PlanRequest ref_back = request_from_json(to_json(ref));
    ASSERT_TRUE(ref_back.instance_ref.has_value());
    EXPECT_EQ(*ref_back.instance_ref, 0xdeadbeefcafef00dULL);
}

TEST(ServiceRequest, FingerprintHexCodec) {
    for (const std::uint64_t fp :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0xabcdef0123456789},
          ~std::uint64_t{0}}) {
        const std::string hex = fingerprint_to_hex(fp);
        EXPECT_EQ(hex.size(), 16u);
        EXPECT_EQ(fingerprint_from_hex(hex), fp);
    }
    EXPECT_THROW((void)fingerprint_from_hex("xyz"), std::runtime_error);
    EXPECT_THROW((void)fingerprint_from_hex(""), std::runtime_error);
}

TEST(ServiceRequest, MalformedRequestsThrow) {
    const auto inst = uavdc::testing::small_instance(8, 150.0, 32);
    io::Json ok = to_json(make_request("a", "alg2", inst));

    io::Json no_id = ok;
    no_id.as_object().erase("id");
    EXPECT_THROW((void)request_from_json(no_id), std::runtime_error);

    io::Json no_planner = ok;
    no_planner.as_object().erase("planner");
    EXPECT_THROW((void)request_from_json(no_planner), std::runtime_error);

    io::Json both = ok;
    both["instance_ref"] = fingerprint_to_hex(1);
    EXPECT_THROW((void)request_from_json(both), std::runtime_error);

    io::Json neither = ok;
    neither.as_object().erase("instance");
    EXPECT_THROW((void)request_from_json(neither), std::runtime_error);

    EXPECT_THROW((void)request_from_json(io::Json("not an object")),
                 std::runtime_error);

    // Out-of-range planner options are bad requests naming the field.
    for (const auto& [field, value] : kOutOfRangeOptions) {
        io::Json req = ok;
        req["options"][field] = value;
        try {
            (void)request_from_json(req);
            ADD_FAILURE() << field << " = " << value << " was accepted";
        } catch (const std::runtime_error& ex) {
            EXPECT_NE(std::string(ex.what()).find("'" + field + "'"),
                      std::string::npos)
                << ex.what();
        }
    }

    // A retired scoring engine name is a structured bad request naming the
    // engines that exist.
    io::Json retired = ok;
    io::Json retired_opts;
    retired_opts["scoring"] = "incremental-fast";
    retired["options"] = retired_opts;
    try {
        (void)request_from_json(retired);
        ADD_FAILURE() << "a retired scoring engine was accepted";
    } catch (const std::runtime_error& ex) {
        EXPECT_NE(std::string(ex.what()).find("incremental|reference"),
                  std::string::npos)
            << ex.what();
    }
}

TEST(ServiceRequest, ResponseRoundTrip) {
    PlanResponse resp;
    resp.id = "r1";
    resp.status = ResponseStatus::kDeadlineExceeded;
    resp.error = "deadline expired";
    resp.partial = true;
    resp.queue_ms = 1.5;
    resp.exec_ms = 2.5;
    const PlanResponse back = response_from_json(to_json(resp));
    EXPECT_EQ(back.id, "r1");
    EXPECT_EQ(back.status, ResponseStatus::kDeadlineExceeded);
    EXPECT_EQ(back.error, "deadline expired");
    EXPECT_TRUE(back.partial);
    EXPECT_FALSE(back.cache_hit);
    EXPECT_EQ(back.queue_ms, 1.5);
    EXPECT_EQ(back.exec_ms, 2.5);
}

TEST(Service, ExecuteMatchesDirectRegistryCall) {
    const auto inst = uavdc::testing::small_instance(20, 260.0, 41);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    for (const std::string planner : {"alg2", "benchmark", "kmeans"}) {
        const PlanResponse resp =
            svc.execute(make_request("x-" + planner, planner, inst));
        ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
        EXPECT_EQ(result_key(resp.result),
                  direct_key(inst, planner, cfg.defaults));
    }
}

TEST(Service, PerRequestOverridesChangeTheResolvedOptions) {
    const auto inst = uavdc::testing::small_instance(20, 260.0, 42);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    PlanRequest req = make_request("coarse", "alg2", inst);
    req.overrides.delta_m = 60.0;
    const PlanResponse resp = svc.execute(req);
    ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;

    core::PlannerOptions coarse = cfg.defaults;
    coarse.delta_m = 60.0;
    EXPECT_EQ(result_key(resp.result), direct_key(inst, "alg2", coarse));
    // And it is genuinely different from the default-options plan.
    EXPECT_NE(result_key(resp.result),
              direct_key(inst, "alg2", cfg.defaults));
}

TEST(Service, ExactlyOneResponsePerRequestUnderConcurrentProducers) {
    const auto inst_a = uavdc::testing::small_instance(16, 220.0, 51);
    const auto inst_b = uavdc::testing::small_instance(22, 300.0, 52);
    PlanService::Config cfg;
    cfg.workers = 4;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    constexpr int kProducers = 4;
    constexpr int kPerProducer = 16;
    std::mutex mu;
    std::map<std::string, int> seen;        // id -> response count
    std::map<std::string, int> statuses;    // status string -> count

    util::ThreadPool producers(kProducers);
    std::vector<std::future<void>> futs;
    for (int p = 0; p < kProducers; ++p) {
        futs.push_back(producers.submit([&, p] {
            const std::vector<std::string> planners = {"alg2", "benchmark",
                                                       "kmeans", "sweep"};
            for (int i = 0; i < kPerProducer; ++i) {
                PlanRequest req = make_request(
                    "p" + std::to_string(p) + "-" + std::to_string(i),
                    planners[static_cast<std::size_t>(i) % planners.size()],
                    (i % 2 == 0) ? inst_a : inst_b);
                req.priority = i % 3;
                svc.submit(std::move(req), [&](PlanResponse resp) {
                    std::lock_guard lock(mu);
                    ++seen[resp.id];
                    ++statuses[to_string(resp.status)];
                });
            }
        }));
    }
    for (auto& f : futs) f.get();
    svc.drain();

    ASSERT_EQ(seen.size(),
              static_cast<std::size_t>(kProducers * kPerProducer));
    for (const auto& [id, count] : seen) {
        EXPECT_EQ(count, 1) << "id " << id << " answered " << count
                            << " times";
    }
    EXPECT_EQ(statuses["ok"], kProducers * kPerProducer);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kProducers * kPerProducer));
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_GT(stats.cache_hits + stats.cache_misses, 0u);
}

TEST(Service, ConcurrentResponsesBitIdenticalToSerialExecution) {
    const auto inst = uavdc::testing::small_instance(18, 240.0, 61);
    PlanService::Config cfg;
    cfg.workers = 4;
    cfg.defaults = fast_options();

    const std::vector<std::string> planners = {"alg2", "alg3", "benchmark",
                                               "kmeans", "sweep"};
    std::mutex mu;
    std::map<std::string, std::string> keys;  // id -> result identity
    {
        PlanService svc(cfg);
        for (int round = 0; round < 3; ++round) {
            for (const auto& planner : planners) {
                svc.submit(
                    make_request(planner + "#" + std::to_string(round),
                                 planner, inst),
                    [&](PlanResponse resp) {
                        ASSERT_EQ(resp.status, ResponseStatus::kOk)
                            << resp.error;
                        std::lock_guard lock(mu);
                        keys[resp.id] = result_key(resp.result);
                    });
            }
        }
        svc.drain();
    }

    for (const auto& planner : planners) {
        const std::string expected = direct_key(inst, planner, cfg.defaults);
        for (int round = 0; round < 3; ++round) {
            EXPECT_EQ(keys.at(planner + "#" + std::to_string(round)),
                      expected)
                << planner << " diverged from the serial registry run";
        }
    }
}

// Workers that miss the same key at once plan it once: the first miss leads,
// the rest park on its flight or hit its stored result. N byte-identical
// wires, one plan, one cache entry and one record for the repository in
// every round, and at least one request actually parked over all rounds.
TEST(Service, ConcurrentDuplicateMissesReplyWithFirstStoredResult) {
    const auto inst = uavdc::testing::small_instance(60, 400.0, 83);
    constexpr std::size_t kRequests = 8;
    std::uint64_t coalesced = 0;
    for (int round = 0; round < 20; ++round) {
        PlanService::Config cfg;
        cfg.workers = 4;
        cfg.defaults = fast_options();
        std::atomic<int> stored{0};
        cfg.store.on_response = [&](std::uint64_t, std::uint64_t,
                                    const std::string&, std::uint64_t,
                                    const io::Json&) { ++stored; };
        std::mutex mu;
        std::vector<std::string> wires;
        PlanService svc(cfg);
        for (std::size_t i = 0; i < kRequests; ++i) {
            svc.submit(make_request("dup#" + std::to_string(i), "alg3", inst),
                       [&](PlanResponse resp) {
                           ASSERT_EQ(resp.status, ResponseStatus::kOk)
                               << resp.error;
                           ASSERT_NE(resp.result_wire, nullptr);
                           EXPECT_EQ(resp.result.dump(), *resp.result_wire);
                           std::lock_guard lock(mu);
                           wires.push_back(*resp.result_wire);
                       });
        }
        svc.drain();
        const ServiceStats stats = svc.stats();
        ASSERT_EQ(wires.size(), kRequests);
        for (const auto& w : wires) EXPECT_EQ(w, wires.front());
        EXPECT_EQ(stats.cache_entries, 1u);
        EXPECT_EQ(stored.load(), 1);
        EXPECT_EQ(stats.cache_misses, 1u) << "round " << round;
        EXPECT_EQ(stats.cache_hits + stats.cache_misses +
                      stats.cache_coalesced,
                  kRequests);
        if (::testing::Test::HasFailure()) return;
        coalesced += stats.cache_coalesced;
    }
    EXPECT_GE(coalesced, 1u)
        << "no request parked on an in-flight plan in 20 rounds";
}

// A planner that fails after admission answers every request parked on its
// flight with the leader's internal_error and leaves nothing behind: the next
// request on the key plans (and fails) afresh. alg1's exact solver refuses
// more than 22 nodes only after the candidate set is built, which leaves the
// duplicates time to park; each round uses a fresh instance so that build is
// never served from the context cache.
TEST(Service, PlannerFailureWakesParkedWaitersWithLeaderError) {
    constexpr std::size_t kRequests = 8;
    std::uint64_t coalesced = 0;
    for (int round = 0; round < 20 && coalesced == 0; ++round) {
        const auto inst = uavdc::testing::small_instance(
            150, 700.0, 500 + static_cast<std::uint64_t>(round));
        PlanService::Config cfg;
        cfg.workers = 4;
        cfg.defaults = fast_options();
        cfg.defaults.delta_m = 5.0;
        cfg.defaults.solver = orienteering::SolverKind::kExact;
        PlanService svc(cfg);
        std::mutex mu;
        std::vector<PlanResponse> responses;
        const auto collect = [&](PlanResponse resp) {
            std::lock_guard lock(mu);
            responses.push_back(std::move(resp));
        };
        for (std::size_t i = 0; i < kRequests; ++i) {
            svc.submit(make_request("f#" + std::to_string(i), "alg1", inst),
                       collect);
        }
        svc.drain();
        const ServiceStats stats = svc.stats();
        ASSERT_EQ(responses.size(), kRequests);
        for (const auto& r : responses) {
            EXPECT_EQ(r.status, ResponseStatus::kInternalError) << r.id;
            EXPECT_NE(r.error.find("planner 'alg1' failed"),
                      std::string::npos)
                << r.error;
            EXPECT_TRUE(r.result.is_null());
            EXPECT_EQ(r.result_wire, nullptr);
        }
        EXPECT_EQ(stats.cache_entries, 0u);
        EXPECT_EQ(stats.cache_hits, 0u);
        EXPECT_EQ(stats.cache_misses + stats.cache_coalesced, kRequests);
        EXPECT_EQ(stats.internal_errors, kRequests);
        EXPECT_EQ(stats.completed, stats.submitted);
        if (::testing::Test::HasFailure()) return;
        coalesced = stats.cache_coalesced;
        if (coalesced == 0) continue;
        // Waiters carry the leader's error verbatim.
        for (const auto& r : responses) {
            EXPECT_EQ(r.error, responses.front().error);
        }
        const PlanResponse again =
            svc.execute(make_request("again", "alg1", inst));
        EXPECT_EQ(again.status, ResponseStatus::kInternalError);
        EXPECT_EQ(svc.stats().cache_misses, stats.cache_misses + 1)
            << "the failed key must plan again, not park on a stale flight";
        EXPECT_EQ(svc.stats().cache_coalesced, coalesced);
    }
    EXPECT_GE(coalesced, 1u)
        << "no request parked on a failing plan in 20 rounds";
}

/// A plan long enough (tens of ms) that duplicates submitted right after it
/// park on its flight before it stores its result.
model::Instance slow_instance() {
    return uavdc::testing::small_instance(400, 1000.0, 91, 1.0e6);
}

core::PlannerOptions slow_options() {
    core::PlannerOptions opts = fast_options();
    opts.delta_m = 10.0;
    return opts;
}

/// Holds a leader inside its flight once it has planned: `on_response`
/// runs after the result is stored and before the parked requests are
/// answered, so blocking it keeps them parked until `open()`. The wait is
/// bounded so a failed expectation cannot hang the test.
struct FlightGate {
    std::promise<void> entered;
    std::promise<void> release;
    std::shared_future<void> released{release.get_future().share()};
    std::atomic<bool> first{true};

    void hold(PlanService::Config& cfg) {
        cfg.store.on_response = [this](std::uint64_t, std::uint64_t,
                                       const std::string&, std::uint64_t,
                                       const io::Json&) {
            if (first.exchange(false)) entered.set_value();
            released.wait_for(std::chrono::seconds(30));
        };
    }
    void open() { release.set_value(); }
};

bool wait_for_coalesced(const PlanService& svc, std::uint64_t n) {
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.stats().cache_coalesced < n) {
        if (std::chrono::steady_clock::now() > until) return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

// Whichever of the two requests leads, the one with the deadline is still
// waiting (parked, or held in the leader's store tap) when its deadline
// passes: it gets the shared plan flagged partial and is counted once.
TEST(Service, WaiterPastItsDeadlineGetsTheLeadersPlanAsPartial) {
    const auto inst = slow_instance();
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = slow_options();
    FlightGate gate;
    gate.hold(cfg);
    PlanService svc(cfg);

    std::mutex mu;
    std::map<std::string, std::vector<PlanResponse>> answers;
    const auto collect = [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        answers[resp.id].push_back(std::move(resp));
    };
    svc.submit(make_request("on-time", "alg2", inst), collect);
    PlanRequest late = make_request("late", "alg2", inst);
    late.deadline_ms = 200.0;
    svc.submit(std::move(late), collect);
    const bool parked = wait_for_coalesced(svc, 1);
    gate.entered.get_future().wait();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    gate.open();
    svc.drain();
    ASSERT_TRUE(parked);

    std::lock_guard lock(mu);
    ASSERT_EQ(answers["on-time"].size(), 1u);
    ASSERT_EQ(answers["late"].size(), 1u);
    const PlanResponse& on_time = answers["on-time"].front();
    const PlanResponse& late_resp = answers["late"].front();
    ASSERT_EQ(on_time.status, ResponseStatus::kOk) << on_time.error;
    EXPECT_EQ(late_resp.status, ResponseStatus::kDeadlineExceeded);
    EXPECT_TRUE(late_resp.partial);
    EXPECT_FALSE(late_resp.cache_hit);
    EXPECT_NE(late_resp.error.find("deadline"), std::string::npos);
    ASSERT_NE(late_resp.result_wire, nullptr);
    EXPECT_EQ(*late_resp.result_wire, *on_time.result_wire);
    EXPECT_EQ(late_resp.result.dump(), on_time.result.dump());
    EXPECT_GE(late_resp.exec_ms, 200.0);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.ok, 1u);
    EXPECT_EQ(stats.deadline_exceeded, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_coalesced, 1u);
    // Only the leader planned, so only it records planner latency.
    ASSERT_TRUE(stats.latency.count("alg2"));
    EXPECT_EQ(stats.latency.at("alg2").count, 1u);
}

// Parked requests hold their in-flight slot until the leader answers them.
// With the leader on an execute() call, they are the only admitted work the
// service knows of, so drain() and shutdown() must wait for them.
TEST(Service, DrainAndShutdownWaitForParkedWaiters) {
    for (const bool stop : {false, true}) {
        const auto inst = slow_instance();
        PlanService::Config cfg;
        cfg.workers = 4;
        cfg.defaults = slow_options();
        FlightGate gate;
        gate.hold(cfg);
        PlanService svc(cfg);

        auto leader = std::async(std::launch::async, [&] {
            return svc.execute(make_request("leader", "alg2", inst));
        });
        // Let the execute() call register its flight first.
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        constexpr std::uint64_t kWaiters = 6;
        std::atomic<std::uint64_t> answered{0};
        for (std::uint64_t i = 0; i < kWaiters; ++i) {
            svc.submit(make_request("w" + std::to_string(i), "alg2", inst),
                       [&](PlanResponse resp) {
                           EXPECT_EQ(resp.status, ResponseStatus::kOk)
                               << resp.error;
                           ++answered;
                       });
        }
        const bool parked = wait_for_coalesced(svc, kWaiters);
        gate.entered.get_future().wait();
        auto barrier = std::async(std::launch::async, [&] {
            if (stop) {
                svc.shutdown();
            } else {
                svc.drain();
            }
            return answered.load();
        });
        EXPECT_EQ(barrier.wait_for(std::chrono::milliseconds(50)),
                  std::future_status::timeout)
            << (stop ? "shutdown" : "drain")
            << " returned with requests still parked";
        gate.open();
        EXPECT_EQ(barrier.get(), kWaiters);
        EXPECT_EQ(leader.get().status, ResponseStatus::kOk);
        ASSERT_TRUE(parked);
        const ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.submitted, kWaiters);
        EXPECT_EQ(stats.completed, stats.submitted);
        EXPECT_EQ(stats.in_flight, 0u);
        EXPECT_EQ(stats.cache_misses, 1u);
        EXPECT_EQ(stats.cache_coalesced, kWaiters);
    }
}

// A parked request has left the queue but still counts against admission:
// while a leader holds its flight, at most `queue_capacity` duplicates are
// taken in, and the rest are answered `overloaded` on the caller's thread.
TEST(Service, ParkedRequestsCountAgainstTheAdmissionBound) {
    const auto inst = slow_instance();
    constexpr std::size_t kCapacity = 3;
    constexpr std::size_t kExcess = 5;
    PlanService::Config cfg;
    cfg.workers = 4;
    cfg.queue_capacity = kCapacity;
    cfg.defaults = slow_options();
    FlightGate gate;
    gate.hold(cfg);
    PlanService svc(cfg);

    auto leader = std::async(std::launch::async, [&] {
        return svc.execute(make_request("leader", "alg2", inst));
    });
    // The execute() call leads once it has started the plan.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (svc.stats().cache_misses < 1 &&
           std::chrono::steady_clock::now() < until) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    std::mutex mu;
    std::vector<PlanResponse> responses;
    const auto collect = [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        responses.push_back(std::move(resp));
    };
    for (std::size_t i = 0; i < kCapacity; ++i) {
        EXPECT_TRUE(svc.submit(
            make_request("p" + std::to_string(i), "alg2", inst), collect));
    }
    const bool parked = wait_for_coalesced(svc, kCapacity);
    for (std::size_t i = 0; i < kExcess; ++i) {
        EXPECT_FALSE(svc.submit(
            make_request("x" + std::to_string(i), "alg2", inst), collect));
    }
    gate.open();
    EXPECT_EQ(leader.get().status, ResponseStatus::kOk);
    svc.drain();
    ASSERT_TRUE(parked);

    std::size_t ok = 0;
    std::size_t overloaded = 0;
    for (const auto& r : responses) {
        if (r.status == ResponseStatus::kOk) {
            EXPECT_EQ(r.id.front(), 'p') << r.id;
            ++ok;
        } else {
            EXPECT_EQ(r.status, ResponseStatus::kOverloaded) << r.id;
            EXPECT_EQ(r.id.front(), 'x') << r.id;
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, kCapacity);
    EXPECT_EQ(overloaded, kExcess);
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_overload, kExcess);
    EXPECT_EQ(stats.completed, stats.submitted);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_coalesced, kCapacity);

    // Answered waiters give their share back: the key is now a hit.
    std::promise<PlanResponse> after;
    EXPECT_TRUE(svc.submit(make_request("after", "alg2", inst),
                           [&](PlanResponse resp) {
                               after.set_value(std::move(resp));
                           }));
    EXPECT_EQ(after.get_future().get().status, ResponseStatus::kOk);
}

// execute() takes the workers' miss path: a synchronous call on a key a
// queued request is planning parks on that plan instead of planning again.
TEST(Service, ExecuteJoinsTheInFlightPlanOfAQueuedRequest) {
    const auto inst = slow_instance();
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = slow_options();
    PlanService svc(cfg);

    std::promise<PlanResponse> queued;
    svc.submit(make_request("queued", "alg2", inst), [&](PlanResponse resp) {
        queued.set_value(std::move(resp));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    const PlanResponse direct =
        svc.execute(make_request("direct", "alg2", inst));
    const PlanResponse first = queued.get_future().get();
    svc.drain();

    ASSERT_EQ(direct.status, ResponseStatus::kOk) << direct.error;
    ASSERT_EQ(first.status, ResponseStatus::kOk) << first.error;
    EXPECT_EQ(direct.id, "direct");
    EXPECT_FALSE(direct.cache_hit);
    EXPECT_EQ(*direct.result_wire, *first.result_wire);
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_EQ(stats.cache_coalesced, 1u);
    EXPECT_EQ(stats.cache_entries, 1u);
}

// Both registration paths hash the instance once, the same way: a request
// by reference to a preloaded instance and the same instance sent inline
// share one cache entry.
TEST(Service, PreloadedAndInlineInstanceShareCacheEntry) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 93);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);
    svc.preload_instance(inst);

    PlanRequest by_ref;
    by_ref.id = "ref";
    by_ref.planner = "alg2";
    by_ref.instance_ref = core::PlanningContext::instance_fingerprint(inst);
    const PlanResponse planned = svc.execute(by_ref);
    ASSERT_EQ(planned.status, ResponseStatus::kOk) << planned.error;
    EXPECT_FALSE(planned.cache_hit);

    const PlanResponse inline_hit =
        svc.execute(make_request("inline", "alg2", inst));
    ASSERT_EQ(inline_hit.status, ResponseStatus::kOk) << inline_hit.error;
    EXPECT_TRUE(inline_hit.cache_hit);
    EXPECT_EQ(*inline_hit.result_wire, *planned.result_wire);

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_entries, 1u);
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
}

TEST(Service, CacheHitPayloadEqualsMissPayload) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 71);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanRequest req = make_request("first", "alg2", inst);
    const PlanResponse miss = svc.execute(req);
    ASSERT_EQ(miss.status, ResponseStatus::kOk) << miss.error;
    EXPECT_FALSE(miss.cache_hit);

    PlanRequest again = req;
    again.id = "second";
    const PlanResponse hit = svc.execute(again);
    ASSERT_EQ(hit.status, ResponseStatus::kOk) << hit.error;
    EXPECT_TRUE(hit.cache_hit);
    // Byte-identical payload, not merely equivalent.
    EXPECT_EQ(hit.result.dump(), miss.result.dump());

    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.cache_hits, 1u);
    EXPECT_EQ(stats.cache_misses, 1u);
    EXPECT_DOUBLE_EQ(stats.cache_hit_rate(), 0.5);

    // A different planner or option set is a different cache key.
    PlanRequest other = req;
    other.id = "third";
    other.overrides.delta_m = 40.0;
    const PlanResponse third = svc.execute(other);
    ASSERT_EQ(third.status, ResponseStatus::kOk);
    EXPECT_FALSE(third.cache_hit);
}

TEST(Service, QueueFullRejectionsAreWellFormed) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 81);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.queue_capacity = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<PlanResponse> responses;
    const auto collect = [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        responses.push_back(std::move(resp));
    };

    // The pool's only worker is parked on the gate, so the first request
    // sits in the admission queue and the second overflows it.
    EXPECT_TRUE(svc.submit(make_request("q1", "alg2", inst), collect));
    EXPECT_FALSE(svc.submit(make_request("q2", "alg2", inst), collect));
    {
        std::lock_guard lock(mu);
        ASSERT_EQ(responses.size(), 1u);  // rejection answered inline
        EXPECT_EQ(responses[0].id, "q2");
        EXPECT_EQ(responses[0].status, ResponseStatus::kOverloaded);
        EXPECT_NE(responses[0].error.find("queue full"), std::string::npos);
        EXPECT_TRUE(responses[0].result.is_null());
    }

    gate.set_value();
    blocker.get();
    svc.drain();
    {
        std::lock_guard lock(mu);
        ASSERT_EQ(responses.size(), 2u);
        EXPECT_EQ(responses[1].id, "q1");
        EXPECT_EQ(responses[1].status, ResponseStatus::kOk)
            << responses[1].error;
    }
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_overload, 1u);
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.admitted, 1u);
    svc.shutdown();
}

TEST(Service, DeadlineExpiredInQueueIsWellFormed) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 82);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<PlanResponse> responses;
    PlanRequest req = make_request("late", "alg2", inst);
    req.deadline_ms = 1.0;
    svc.submit(std::move(req), [&](PlanResponse resp) {
        std::lock_guard lock(mu);
        responses.push_back(std::move(resp));
    });

    // Hold the worker well past the 1 ms deadline before letting it pop.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.set_value();
    blocker.get();
    svc.drain();

    std::lock_guard lock(mu);
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].id, "late");
    EXPECT_EQ(responses[0].status, ResponseStatus::kDeadlineExceeded);
    EXPECT_NE(responses[0].error.find("deadline"), std::string::npos);
    EXPECT_FALSE(responses[0].partial);
    EXPECT_TRUE(responses[0].result.is_null());
    EXPECT_GE(responses[0].queue_ms, 1.0);
    EXPECT_EQ(svc.stats().deadline_exceeded, 1u);
    svc.shutdown();
}

TEST(Service, PriorityOrdersExecutionFifoWithinClass) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 83);
    util::ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker =
        pool.submit([f = gate.get_future().share()] { f.wait(); });

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    std::mutex mu;
    std::vector<std::string> order;
    const auto record = [&](PlanResponse resp) {
        ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
        std::lock_guard lock(mu);
        order.push_back(resp.id);
    };

    // All admitted while the worker is parked, so the pops happen strictly
    // by (priority desc, submission order).
    const auto enqueue = [&](const std::string& id, int priority) {
        PlanRequest req = make_request(id, "benchmark", inst);
        req.priority = priority;
        svc.submit(std::move(req), record);
    };
    enqueue("low", 0);
    enqueue("high", 5);
    enqueue("mid", 1);
    enqueue("high-2", 5);

    gate.set_value();
    blocker.get();
    svc.drain();

    std::lock_guard lock(mu);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], "high");
    EXPECT_EQ(order[1], "high-2");  // FIFO within the priority class
    EXPECT_EQ(order[2], "mid");
    EXPECT_EQ(order[3], "low");
    svc.shutdown();
}

TEST(Service, BadRequestsAndShutdownAreStructured) {
    const auto inst = uavdc::testing::small_instance(12, 180.0, 84);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanResponse unknown =
        svc.execute(make_request("u", "no-such-planner", inst));
    EXPECT_EQ(unknown.status, ResponseStatus::kBadRequest);
    EXPECT_NE(unknown.error.find("unknown planner"), std::string::npos);

    PlanRequest dangling;
    dangling.id = "d";
    dangling.planner = "alg2";
    dangling.instance_ref = 0x1234;  // never registered
    const PlanResponse ref = svc.execute(dangling);
    EXPECT_EQ(ref.status, ResponseStatus::kBadRequest);
    EXPECT_NE(ref.error.find("instance_ref"), std::string::npos);

    svc.shutdown();
    bool called = false;
    const bool admitted =
        svc.submit(make_request("s", "alg2", inst), [&](PlanResponse resp) {
            called = true;
            EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
            EXPECT_EQ(resp.id, "s");
        });
    EXPECT_FALSE(admitted);
    EXPECT_TRUE(called);

    // Shutdown rejections are first-class in the counters: the per-status
    // counts must reconcile with `completed` (and with `submitted`, since
    // nothing is queued or in flight here).
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_shutdown, 1u);
    EXPECT_EQ(stats.submitted, stats.completed);
    EXPECT_EQ(stats.completed,
              stats.ok + stats.rejected_overload +
                  stats.rejected_bad_request + stats.rejected_shutdown +
                  stats.deadline_exceeded + stats.internal_errors);
}

TEST(Service, OversizedGridIsABadRequestNotAnInternalError) {
    // Both grids overflow int cell ids: a 200 km field at 1 m (4e10 cells)
    // and a 2 m field at 1e-300 m. Every duplicate gets the same bad_request
    // (one that parks gets its leader's) and nothing is cached; a sane delta
    // still plans.
    const auto huge = uavdc::testing::manual_instance(
        {{{400.0, 300.0}, 500.0}, {{150000.0, 20000.0}, 800.0}}, 200000.0);
    const auto tiny =
        uavdc::testing::manual_instance({{{1.0, 1.0}, 100.0}}, 2.0);
    constexpr std::size_t kRequests = 6;
    for (const auto& [inst, delta] :
         {std::pair{&huge, 1.0}, std::pair{&tiny, 1e-300}}) {
        PlanService::Config cfg;
        cfg.workers = 4;
        cfg.defaults = fast_options();
        PlanService svc(cfg);
        std::mutex mu;
        std::vector<PlanResponse> responses;
        for (std::size_t i = 0; i < kRequests; ++i) {
            PlanRequest req =
                make_request("g#" + std::to_string(i), "alg2", *inst);
            req.overrides.delta_m = delta;
            svc.submit(std::move(req), [&](PlanResponse resp) {
                std::lock_guard lock(mu);
                responses.push_back(std::move(resp));
            });
        }
        svc.drain();
        ASSERT_EQ(responses.size(), kRequests);
        for (const auto& r : responses) {
            EXPECT_EQ(r.status, ResponseStatus::kBadRequest) << r.error;
            EXPECT_EQ(r.error, responses.front().error) << r.id;
            EXPECT_NE(r.error.find("delta_m"), std::string::npos) << r.error;
            EXPECT_EQ(r.result_wire, nullptr);
        }
        ServiceStats stats = svc.stats();
        EXPECT_EQ(stats.rejected_bad_request, kRequests);
        EXPECT_EQ(stats.internal_errors, 0u);
        EXPECT_EQ(stats.cache_entries, 0u);
        EXPECT_EQ(stats.cache_misses + stats.cache_coalesced, kRequests);

        PlanRequest sane = make_request("sane", "alg2", *inst);
        sane.overrides.delta_m = inst == &tiny ? 0.5 : 50.0;
        EXPECT_EQ(svc.execute(sane).status, ResponseStatus::kOk);
        stats = svc.stats();
        EXPECT_EQ(stats.cache_entries, 1u);
        EXPECT_EQ(stats.completed,
                  stats.ok + stats.rejected_overload +
                      stats.rejected_bad_request + stats.rejected_shutdown +
                      stats.deadline_exceeded + stats.internal_errors);
    }
}

TEST(Service, ThrowingCallbackDoesNotWedgeDrain) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 86);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    for (int i = 0; i < 4; ++i) {
        svc.submit(make_request("t" + std::to_string(i), "alg2", inst),
                   [](PlanResponse) {
                       throw std::runtime_error("sink failed");
                   });
    }
    // Regression: a throwing user callback used to skip the in_flight_
    // decrement, wedging drain()/shutdown() (and the destructor) forever.
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.in_flight, 0u);
    EXPECT_EQ(stats.queue_depth, 0u);
    svc.shutdown();
}

TEST(Service, ExternalPoolShutdownAnswersInsteadOfHangingDrain) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 88);
    util::ThreadPool pool(1);
    pool.shutdown();  // the pool refuses every ticket from now on

    PlanService::Config cfg;
    cfg.defaults = fast_options();
    PlanService svc(cfg, &pool);

    bool called = false;
    const bool admitted =
        svc.submit(make_request("x", "alg2", inst), [&](PlanResponse resp) {
            called = true;
            EXPECT_EQ(resp.id, "x");
            EXPECT_EQ(resp.status, ResponseStatus::kShutdown);
            EXPECT_TRUE(resp.result.is_null());
        });
    // Regression: the request used to stay queued with no ticket and no
    // callback, hanging drain(); now it is un-admitted and answered.
    EXPECT_FALSE(admitted);
    EXPECT_TRUE(called);
    svc.drain();
    const ServiceStats stats = svc.stats();
    EXPECT_EQ(stats.rejected_shutdown, 1u);
    EXPECT_EQ(stats.queue_depth, 0u);
    svc.shutdown();
}

TEST(Service, InlineResubmissionUnderAnotherLabelIsNotACollision) {
    const auto inst = uavdc::testing::small_instance(12, 180.0, 87);
    PlanService::Config cfg;
    cfg.workers = 1;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    ASSERT_EQ(svc.execute(make_request("a", "alg2", inst)).status,
              ResponseStatus::kOk);

    // Same planning content, different log label: the fingerprint ignores
    // `name`, and the registry's collision cross-check must agree instead
    // of reporting a spurious collision.
    auto renamed = inst;
    renamed.name = "same-content-new-label";
    const PlanResponse resp = svc.execute(make_request("b", "alg2", renamed));
    EXPECT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
    EXPECT_TRUE(resp.cache_hit);
    svc.shutdown();
}

TEST(Service, InlineInstanceRegistersForLaterRefs) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 85);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    const PlanResponse first =
        svc.execute(make_request("inline", "alg2", inst));
    ASSERT_EQ(first.status, ResponseStatus::kOk);

    PlanRequest by_ref;
    by_ref.id = "ref";
    by_ref.planner = "benchmark";
    by_ref.instance_ref =
        core::PlanningContext::instance_fingerprint(inst);
    const PlanResponse second = svc.execute(by_ref);
    ASSERT_EQ(second.status, ResponseStatus::kOk) << second.error;
    EXPECT_EQ(result_key(second.result),
              direct_key(inst, "benchmark", cfg.defaults));
}

TEST(Service, StatsReportLatencyQuantilesPerPlanner) {
    const auto inst = uavdc::testing::small_instance(16, 220.0, 86);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    std::mutex mu;
    int ok = 0;
    for (int i = 0; i < 6; ++i) {
        PlanRequest req = make_request("s" + std::to_string(i),
                                       i % 2 ? "alg2" : "benchmark", inst);
        if (i >= 2) req.overrides.delta_m = 20.0 + i;  // defeat the cache
        svc.submit(std::move(req), [&](PlanResponse resp) {
            ASSERT_EQ(resp.status, ResponseStatus::kOk) << resp.error;
            std::lock_guard lock(mu);
            ++ok;
        });
    }
    svc.drain();
    EXPECT_EQ(ok, 6);

    const ServiceStats stats = svc.stats();
    ASSERT_TRUE(stats.latency.count("alg2"));
    ASSERT_TRUE(stats.latency.count("benchmark"));
    for (const auto& [planner, lat] : stats.latency) {
        EXPECT_GT(lat.count, 0u) << planner;
        EXPECT_GE(lat.p50_ms, 0.0) << planner;
        EXPECT_LE(lat.p50_ms, lat.p95_ms) << planner;
        EXPECT_LE(lat.p95_ms, lat.p99_ms) << planner;
        EXPECT_GT(lat.mean_ms, 0.0) << planner;
    }
    EXPECT_EQ(stats.workers, 2u);
}

// ---------------------------------------------------------------------------
// JSONL transport
// ---------------------------------------------------------------------------

std::vector<io::Json> parse_lines(const std::string& text) {
    std::vector<io::Json> docs;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) docs.push_back(io::Json::parse(line));
    }
    return docs;
}

TEST(ServiceJsonl, GeneratedWorkloadIsDeterministic) {
    WorkloadGenConfig cfg;
    cfg.requests = 24;
    cfg.instances = 3;
    cfg.seed = 5;
    const std::string a = generate_jsonl_workload(cfg);
    const std::string b = generate_jsonl_workload(cfg);
    EXPECT_EQ(a, b);
    cfg.seed = 6;
    EXPECT_NE(a, generate_jsonl_workload(cfg));
}

TEST(ServiceJsonl, EndToEndOneResponsePerLine) {
    WorkloadGenConfig gen;
    gen.requests = 40;
    gen.instances = 3;
    gen.seed = 11;
    gen.deadline_prob = 0.0;  // all-ok run; expiry is covered elsewhere
    const std::string workload = generate_jsonl_workload(gen);

    JsonlConfig cfg;
    cfg.service.workers = 4;
    cfg.service.defaults = fast_options();
    std::istringstream in(workload);
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    EXPECT_EQ(summary.requests, 40u);
    EXPECT_EQ(summary.parse_errors, 0u);
    EXPECT_GT(summary.control, 0u);
    EXPECT_EQ(summary.lines,
              summary.requests + summary.control + summary.parse_errors);

    const auto docs = parse_lines(out.str());
    EXPECT_EQ(docs.size(), summary.lines);
    std::map<std::string, int> ids;
    for (const auto& doc : docs) {
        if (doc.contains("op")) {
            EXPECT_EQ(doc.string_or("status", ""), "ok");
            EXPECT_TRUE(doc.contains("stats"));
            continue;
        }
        ++ids[doc.string_or("id", "")];
        EXPECT_EQ(doc.string_or("status", ""), "ok")
            << doc.string_or("error", "");
    }
    ASSERT_EQ(ids.size(), 40u);
    for (const auto& [id, count] : ids) {
        EXPECT_EQ(count, 1) << id;
    }

    // Byte-identical across sessions: same workload, fresh service.
    std::istringstream in2(workload);
    std::ostringstream out2;
    (void)serve_jsonl(in2, out2, cfg);
    std::map<std::string, std::string> first_keys;
    std::map<std::string, std::string> second_keys;
    for (const auto& doc : docs) {
        if (!doc.contains("op")) {
            first_keys[doc.string_or("id", "")] =
                result_key(doc.at("result"));
        }
    }
    for (const auto& doc : parse_lines(out2.str())) {
        if (!doc.contains("op")) {
            second_keys[doc.string_or("id", "")] =
                result_key(doc.at("result"));
        }
    }
    EXPECT_EQ(first_keys, second_keys);

    // Cache effectiveness is visible in the final stats.
    EXPECT_GT(summary.stats.cache_hits, 0u);
    EXPECT_EQ(summary.stats.ok, 40u);
}

TEST(ServiceJsonl, MalformedLinesGetErrorResponsesNotAborts) {
    const auto inst = uavdc::testing::small_instance(10, 160.0, 21);
    std::ostringstream input;
    input << "this is not json\n";
    input << R"({"op":"frobnicate","id":"c1"})" << "\n";
    input << R"({"id":"m1","planner":"alg2"})" << "\n";  // no instance
    {
        PlanRequest ok_req;
        ok_req.id = "ok1";
        ok_req.planner = "benchmark";
        ok_req.instance = inst;
        input << to_json(ok_req).dump() << "\n";
        io::Json retired = to_json(ok_req);
        retired["id"] = "f1";
        io::Json retired_opts;
        retired_opts["scoring"] = "incremental-fast";
        retired["options"] = retired_opts;
        input << retired.dump() << "\n";
        for (const auto& [field, value] : kOutOfRangeOptions) {
            io::Json line = to_json(ok_req);
            line["id"] = "range-" + field;
            line["options"][field] = value;
            input << line.dump() << "\n";
        }
    }

    JsonlConfig cfg;
    cfg.service.workers = 2;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    const JsonlSummary summary = serve_jsonl(in, out, cfg);

    EXPECT_EQ(summary.lines, 11u);
    EXPECT_EQ(summary.parse_errors, 10u);
    EXPECT_EQ(summary.requests, 1u);

    int bad = 0;
    int ok = 0;
    for (const auto& doc : parse_lines(out.str())) {
        const std::string status = doc.string_or("status", "");
        if (status == "bad_request") {
            ++bad;
            EXPECT_FALSE(doc.string_or("error", "").empty());
            if (doc.string_or("id", "") == "f1") {
                EXPECT_NE(doc.string_or("error", "").find(
                              "incremental|reference"),
                          std::string::npos);
            }
        } else if (status == "ok") {
            ++ok;
            EXPECT_EQ(doc.string_or("id", ""), "ok1");
        }
    }
    EXPECT_EQ(bad, 10);
    EXPECT_EQ(ok, 1);
}

TEST(ServiceJsonl, DrainVerbIsABarrier) {
    const auto inst = uavdc::testing::small_instance(14, 200.0, 22);
    PlanRequest req;
    req.id = "before-drain";
    req.planner = "alg2";
    req.instance = inst;

    std::ostringstream input;
    input << to_json(req).dump() << "\n";
    input << R"({"op":"drain","id":"the-drain"})" << "\n";

    JsonlConfig cfg;
    cfg.service.workers = 2;
    cfg.service.defaults = fast_options();
    std::istringstream in(input.str());
    std::ostringstream out;
    (void)serve_jsonl(in, out, cfg);

    const auto docs = parse_lines(out.str());
    ASSERT_EQ(docs.size(), 2u);
    // The drain reply comes after the request it barriers on, and its
    // snapshot already counts that request as completed.
    EXPECT_EQ(docs[0].string_or("id", ""), "before-drain");
    EXPECT_EQ(docs[1].string_or("id", ""), "the-drain");
    EXPECT_EQ(docs[1].at("stats").number_or("completed", -1.0), 1.0);
}

TEST(Service, ResponseLineMatchesJsonDump) {
    // The spliced fast path must stay byte-identical with the tree dump —
    // both transports and the repository reload depend on it.
    const auto inst = uavdc::testing::small_instance(12, 200.0, 23);
    PlanService::Config cfg;
    cfg.workers = 2;
    cfg.defaults = fast_options();
    PlanService svc(cfg);

    PlanRequest req;
    req.id = "line-check \"quoted\"\n";  // exercises escaping in the id
    req.planner = "alg2";
    req.instance = inst;
    for (int pass = 0; pass < 2; ++pass) {  // fresh result, then cache hit
        std::promise<PlanResponse> done;
        svc.submit(req, [&](PlanResponse resp) {
            done.set_value(std::move(resp));
        });
        PlanResponse resp = done.get_future().get();
        ASSERT_EQ(resp.status, ResponseStatus::kOk);
        EXPECT_EQ(resp.cache_hit, pass == 1);
        ASSERT_NE(resp.result_wire, nullptr);
        EXPECT_EQ(response_line(resp), to_json(resp).dump());
        // Timing fields land in the line with full precision.
        resp.queue_ms = 0.1234567890123;
        resp.exec_ms = 3.0;
        EXPECT_EQ(response_line(resp), to_json(resp).dump());
        // Error/partial envelopes splice identically too.
        resp.partial = true;
        resp.error = "late\tplan";
        EXPECT_EQ(response_line(resp), to_json(resp).dump());
    }
    svc.drain();

    // Responses without a pre-serialized result fall back to the dump.
    PlanResponse bad;
    bad.id = "nope";
    bad.status = ResponseStatus::kBadRequest;
    bad.error = "unknown planner";
    EXPECT_EQ(bad.result_wire, nullptr);
    EXPECT_EQ(response_line(bad), to_json(bad).dump());
}

}  // namespace
}  // namespace uavdc::service
