// Safety and determinism suite for the candidate-space reduction pipeline
// (core/candidate_reduction) and the correctness gaps scale-large exposed:
// reduction must never drop the last candidate covering any device, the
// int32 CSR narrowing in build_candidate_soa must be guarded, conformance
// tolerances must be validated, and the service response cache must
// survive forged 128-bit key collisions without cross-replaying payloads.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/conformance/conformance.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/service/plan_service.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/rng.hpp"
#include "uavdc/workload/generator.hpp"

namespace uavdc {
namespace {

using core::CandidateReductionConfig;
using core::HoverCandidateConfig;
using core::HoverCandidateSet;
using core::PlanningContext;
using core::ReducedCandidates;
using util::ContractViolation;

/// Seeded conformance-style instance (same knobs fuzz_conformance turns).
model::Instance fuzz_instance(util::Rng& rng, int min_devices,
                              int max_devices) {
    constexpr workload::Deployment kDeployments[] = {
        workload::Deployment::kUniform,    workload::Deployment::kClustered,
        workload::Deployment::kGridJitter, workload::Deployment::kRing};
    workload::GeneratorConfig g;
    g.num_devices =
        static_cast<int>(rng.uniform_int(min_devices, max_devices));
    g.region_w = rng.uniform(150.0, 500.0);
    g.region_h = rng.uniform(150.0, 500.0);
    g.deployment =
        kDeployments[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    g.min_mb = rng.uniform(20.0, 150.0);
    g.max_mb = g.min_mb + rng.uniform(50.0, 800.0);
    g.uav.energy_j = rng.uniform(2.0e4, 1.2e5);
    return workload::generate(g, rng.next_u64());
}

HoverCandidateConfig hover_cfg(const model::Instance& inst) {
    HoverCandidateConfig c;
    c.delta_m = std::max(
        10.0, std::max(inst.region.width(), inst.region.height()) / 15.0);
    return c;
}

std::set<int> covered_devices(const HoverCandidateSet& set) {
    std::set<int> out;
    for (const auto& c : set.candidates) {
        out.insert(c.covered.begin(), c.covered.end());
    }
    return out;
}

// --- Coverage safety: no reduction stage may orphan a coverable device.

TEST(CandidateReduction, NeverDropsLastCovererOfAnyDevice) {
    util::Rng rng(20260809);
    const CandidateReductionConfig profiles[] = {
        [] { CandidateReductionConfig c; c.dominance = true; return c; }(),
        [] {
            CandidateReductionConfig c;
            c.dominance = true;
            c.dominance_dwell_slack = 0.05;
            return c;
        }(),
        [] { CandidateReductionConfig c; c.coarsen_factor = 3; return c; }(),
        [] {
            CandidateReductionConfig c;
            c.coarsen_factor = 6;
            c.consolidate_to = 12;
            return c;
        }(),
        [] {
            CandidateReductionConfig c;
            c.dominance = true;
            c.coarsen_factor = 2;
            c.consolidate_to = 24;
            return c;
        }(),
    };
    for (int trial = 0; trial < 25; ++trial) {
        const auto inst = fuzz_instance(rng, 8, 60);
        const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
        const auto& full = ctx->candidates();
        const std::set<int> want = covered_devices(full);
        for (std::size_t p = 0; p < std::size(profiles); ++p) {
            const ReducedCandidates red = core::reduce_candidates(
                full, inst.devices.size(), profiles[p]);
            SCOPED_TRACE("trial " + std::to_string(trial) + " profile " +
                         std::to_string(p));
            EXPECT_EQ(covered_devices(red.set), want);
            EXPECT_LE(red.set.size(), full.size());
            EXPECT_EQ(red.stats.kept,
                      static_cast<int>(red.set.candidates.size()));
        }
        if (::testing::Test::HasFailure()) break;
    }
}

TEST(CandidateReduction, SurvivorsAreExactOriginals) {
    util::Rng rng(17);
    const auto inst = fuzz_instance(rng, 20, 60);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    const auto& full = ctx->candidates();
    CandidateReductionConfig cfg;
    cfg.dominance = true;
    cfg.coarsen_factor = 2;
    const ReducedCandidates red =
        core::reduce_candidates(full, inst.devices.size(), cfg);
    ASSERT_EQ(red.original_index.size(), red.set.candidates.size());
    std::int32_t prev = -1;
    for (std::size_t i = 0; i < red.set.candidates.size(); ++i) {
        const std::int32_t oi = red.original_index[i];
        ASSERT_GE(oi, 0);
        ASSERT_LT(static_cast<std::size_t>(oi), full.size());
        EXPECT_GT(oi, prev) << "survivors must keep original order";
        prev = oi;
        const auto& a = red.set.candidates[i];
        const auto& b = full.candidates[static_cast<std::size_t>(oi)];
        EXPECT_EQ(a.pos.x, b.pos.x);
        EXPECT_EQ(a.pos.y, b.pos.y);
        EXPECT_EQ(a.cell_id, b.cell_id);
        EXPECT_EQ(a.award_mb, b.award_mb);
        EXPECT_EQ(a.dwell_s, b.dwell_s);
        EXPECT_EQ(a.covered, b.covered);
    }
}

// --- Context memo: one reduction per distinct config, stable addresses.

TEST(CandidateReduction, ContextMemoizesPerFingerprint) {
    const auto inst = testing::small_instance(30);
    const auto ctx = PlanningContext::build(inst, hover_cfg(inst));
    CandidateReductionConfig a;
    a.coarsen_factor = 2;
    CandidateReductionConfig b;
    b.coarsen_factor = 3;
    const ReducedCandidates* ra = &ctx->reduced_candidates(a);
    const ReducedCandidates* rb = &ctx->reduced_candidates(b);
    EXPECT_NE(ra, rb);
    EXPECT_EQ(ra, &ctx->reduced_candidates(a));
    EXPECT_EQ(rb, &ctx->reduced_candidates(b));
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

// --- build_candidate_soa int32 narrowing guards.

TEST(CandidateSoaGuards, AcceptsValidCoverage) {
    HoverCandidateSet set;
    set.candidates.push_back({{1.0, 2.0}, 0, {0, 2}, 30.0, 1.0, 10.0});
    set.candidates.push_back({{3.0, 4.0}, 1, {1}, 20.0, 0.5, 5.0});
    const auto soa = core::build_candidate_soa(set, 3);
    EXPECT_EQ(soa.size(), 2u);
}

TEST(CandidateSoaGuards, RejectsDeviceIdAtOrAboveCount) {
    HoverCandidateSet set;
    set.candidates.push_back({{1.0, 2.0}, 0, {2}, 30.0, 1.0, 10.0});
    EXPECT_THROW((void)core::build_candidate_soa(set, 2), ContractViolation);
}

TEST(CandidateSoaGuards, RejectsNegativeDeviceId) {
    HoverCandidateSet set;
    set.candidates.push_back({{1.0, 2.0}, 0, {-1}, 30.0, 1.0, 10.0});
    EXPECT_THROW((void)core::build_candidate_soa(set, 4), ContractViolation);
}

TEST(CandidateSoaGuards, RejectsDeviceCountBeyondInt32) {
    // The device-count check fires before any allocation, so the absurd
    // count is safe to pass.
    const auto huge =
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()) +
        1;
    HoverCandidateSet set;
    set.candidates.push_back({{1.0, 2.0}, 0, {0}, 30.0, 1.0, 10.0});
    EXPECT_THROW((void)core::build_candidate_soa(set, huge),
                 ContractViolation);
}

// --- Conformance tolerance validation (reduction_rel_tol).

TEST(ConformanceTolerances, RejectsInvalidValues) {
    for (const double bad :
         {0.0, -1.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        SCOPED_TRACE(bad);
        conformance::ConformanceFuzzConfig red;
        red.instances = 1;
        red.reduction_rel_tol = bad;
        EXPECT_THROW((void)conformance::fuzz_conformance(red), ContractViolation);
    }
}

TEST(ConformanceTolerances, AcceptsBoundaryValueOne) {
    conformance::ConformanceFuzzConfig cfg;
    cfg.instances = 1;
    cfg.planners = {"alg2"};
    cfg.stress_energy = false;
    cfg.reduction_rel_tol = 1.0;
    const auto summary = conformance::fuzz_conformance(cfg);
    EXPECT_TRUE(summary.ok());
}

// --- Response cache: forged 128-bit key collisions must not cross-replay.

io::Json payload(const std::string& tag) {
    io::Json j;
    j["tag"] = tag;
    return j;
}

TEST(ResponseCacheCollision, KeyMatchWithDifferentOptionsIsMiss) {
    service::ResponseCache cache(8);
    // Two logical requests forged to share the full 128-bit key but with
    // different resolved options — the documented collision exposure.
    cache.put(0xdeadbeefull, 0x1234ull, "opts-a", 111, payload("a"));
    const auto cross = cache.get(0xdeadbeefull, 0x1234ull, "opts-b", 111);
    EXPECT_FALSE(cross.found) << "cross-replayed a colliding payload";
    EXPECT_EQ(cache.misses(), 1u);

    const auto hit = cache.get(0xdeadbeefull, 0x1234ull, "opts-a", 111);
    ASSERT_TRUE(hit.found);
    EXPECT_EQ(hit.result.at("tag").as_string(), "a");
}

TEST(ResponseCacheCollision, KeyMatchWithDifferentInstanceIsMiss) {
    service::ResponseCache cache(8);
    cache.put(7, 9, "opts", 1001, payload("first"));
    EXPECT_FALSE(cache.get(7, 9, "opts", 2002).found);

    // Cache the second instance under the same forged key. Lookup stops at
    // the first key match, so the older colliding entry is shadowed — a
    // miss, never the *wrong* payload — and the verified lookup returns
    // exactly its own payload.
    cache.put(7, 9, "opts", 2002, payload("second"));
    const auto a = cache.get(7, 9, "opts", 1001);
    const auto b = cache.get(7, 9, "opts", 2002);
    EXPECT_FALSE(a.found) << "shadowed collider must miss, not cross-replay";
    ASSERT_TRUE(b.found);
    EXPECT_EQ(b.result.at("tag").as_string(), "second");
}

TEST(ResponseCacheCollision, CanonicalOptionsSeparateReductionConfigs) {
    core::PlannerOptions a;
    core::PlannerOptions b = a;
    b.reduction.coarsen_factor = 4;
    EXPECT_NE(service::canonical_options("alg2", a),
              service::canonical_options("alg2", b));
    EXPECT_NE(service::canonical_options("alg2", a),
              service::canonical_options("alg3", a));
}

// --- Service overrides: reduction fields survive the wire format.

TEST(ReductionOverrides, JsonRoundTripAndResolve) {
    service::PlanRequest req;
    req.id = "r1";
    req.planner = "alg2";
    req.instance = testing::small_instance(8);
    req.overrides.reduce = true;
    req.overrides.reduce_coarsen = 4;
    req.overrides.reduce_band_m = 25.0;
    req.overrides.reduce_consolidate = 64;

    const auto round = service::request_from_json(service::to_json(req));
    ASSERT_TRUE(round.overrides.reduce.has_value());
    EXPECT_TRUE(*round.overrides.reduce);
    EXPECT_EQ(round.overrides.reduce_coarsen, 4);
    EXPECT_EQ(round.overrides.reduce_band_m, 25.0);
    EXPECT_EQ(round.overrides.reduce_consolidate, 64);

    const core::PlannerOptions resolved =
        round.overrides.resolve(core::PlannerOptions{});
    EXPECT_TRUE(resolved.reduction.dominance);
    EXPECT_EQ(resolved.reduction.coarsen_factor, 4);
    EXPECT_EQ(resolved.reduction.refine_band_m, 25.0);
    EXPECT_EQ(resolved.reduction.consolidate_to, 64);
    EXPECT_TRUE(resolved.reduction.enabled());
}

}  // namespace
}  // namespace uavdc
