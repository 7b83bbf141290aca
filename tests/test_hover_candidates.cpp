#include "uavdc/core/hover_candidates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <set>

#include "test_util.hpp"

namespace uavdc::core {
namespace {

using testing::manual_instance;
using testing::small_instance;

TEST(HoverCandidates, SingleDeviceQuantities) {
    const auto inst = manual_instance({{{100.0, 100.0}, 300.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 20.0;
    cfg.dedupe_identical_coverage = false;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    ASSERT_GT(set.size(), 0u);
    for (const auto& c : set.candidates) {
        EXPECT_LE(geom::distance(c.pos, {100.0, 100.0}),
                  inst.uav.coverage_radius_m + 1e-9);
        EXPECT_DOUBLE_EQ(c.award_mb, 300.0);
        EXPECT_DOUBLE_EQ(c.dwell_s, 2.0);  // 300 MB / 150 MB/s
        EXPECT_DOUBLE_EQ(c.hover_energy_j, 300.0);  // 2 s * 150 W
        EXPECT_EQ(c.covered, std::vector<int>{0});
    }
    // Number of candidate cells ~ area of the disk / delta^2.
    EXPECT_GT(set.size(), 10u);
    EXPECT_EQ(set.grid_cells, 100);  // (200/20)^2
}

TEST(HoverCandidates, AwardSumsCoveredDevices) {
    const auto inst = manual_instance(
        {{{100.0, 100.0}, 200.0}, {{110.0, 100.0}, 400.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.dedupe_identical_coverage = false;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    bool found_both = false;
    for (const auto& c : set.candidates) {
        if (c.covered.size() == 2) {
            found_both = true;
            EXPECT_DOUBLE_EQ(c.award_mb, 600.0);
            // Dwell: max upload time = 400/150.
            EXPECT_NEAR(c.dwell_s, 400.0 / 150.0, 1e-12);
        }
    }
    EXPECT_TRUE(found_both);
}

TEST(HoverCandidates, EmptyCellsDropped) {
    const auto inst = manual_instance({{{20.0, 20.0}, 100.0}}, 1000.0);
    HoverCandidateConfig cfg;
    cfg.delta_m = 50.0;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    EXPECT_EQ(set.grid_cells, 400);
    EXPECT_LT(set.nonzero_cells, 20);
    for (const auto& c : set.candidates) {
        EXPECT_FALSE(c.covered.empty());
    }
}

TEST(HoverCandidates, DedupeRemovesIdenticalCoverage) {
    // One isolated device with a fine grid: many cells share the identical
    // single-device coverage set; dedup keeps exactly one.
    const auto inst = manual_instance({{{100.0, 100.0}, 300.0}});
    HoverCandidateConfig fine;
    fine.delta_m = 5.0;
    fine.dedupe_identical_coverage = false;
    fine.max_candidates = 0;
    const auto raw = build_hover_candidates(inst, fine);
    fine.dedupe_identical_coverage = true;
    const auto dedup = build_hover_candidates(inst, fine);
    EXPECT_GT(raw.size(), 100u);
    EXPECT_EQ(dedup.size(), 1u);
    // The kept representative is the best-centred one.
    EXPECT_LE(geom::distance(dedup.candidates[0].pos, {100.0, 100.0}),
              fine.delta_m);
}

TEST(HoverCandidates, CapRespectedAndDevicesStillCovered) {
    const auto inst = small_instance(60, 400.0, 11);
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.max_candidates = 25;
    const auto set = build_hover_candidates(inst, cfg);
    EXPECT_LE(set.size(), 25u);
    // Every device coverable before the cap stays coverable after it.
    std::set<int> covered;
    for (const auto& c : set.candidates) {
        covered.insert(c.covered.begin(), c.covered.end());
    }
    HoverCandidateConfig uncapped = cfg;
    uncapped.max_candidates = 0;
    const auto full = build_hover_candidates(inst, uncapped);
    std::set<int> coverable;
    for (const auto& c : full.candidates) {
        coverable.insert(c.covered.begin(), c.covered.end());
    }
    EXPECT_EQ(covered, coverable);
}

TEST(HoverCandidates, InflateCoversEdgeDevices) {
    // Device in the region corner: without inflation the best cell centre
    // is inside the region; with inflation centres outside may cover it
    // better. Both must cover the device.
    const auto inst = manual_instance({{{1.0, 1.0}, 100.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.max_candidates = 0;
    cfg.dedupe_identical_coverage = false;
    const auto inside = build_hover_candidates(inst, cfg);
    cfg.inflate_by_coverage = true;
    const auto inflated = build_hover_candidates(inst, cfg);
    EXPECT_GT(inflated.size(), inside.size());
}

TEST(HoverCandidates, NoDevicesNoCandidates) {
    model::Instance inst;
    inst.region = geom::Aabb::of_size(100.0, 100.0);
    inst.depot = {0.0, 0.0};
    const auto set = build_hover_candidates(inst, {});
    EXPECT_EQ(set.size(), 0u);
}

TEST(HoverCandidates, DeltaControlsGranularity) {
    const auto inst = small_instance(30, 300.0, 3);
    HoverCandidateConfig coarse;
    coarse.delta_m = 50.0;
    coarse.max_candidates = 0;
    coarse.dedupe_identical_coverage = false;
    HoverCandidateConfig fine = coarse;
    fine.delta_m = 10.0;
    const auto c = build_hover_candidates(inst, coarse);
    const auto f = build_hover_candidates(inst, fine);
    EXPECT_GT(f.size(), c.size());
}


TEST(HoverCandidates, PositionFilterDropsBlockedCells) {
    const auto inst = manual_instance({{{100.0, 100.0}, 300.0}});
    HoverCandidateConfig cfg;
    cfg.delta_m = 10.0;
    cfg.dedupe_identical_coverage = false;
    cfg.max_candidates = 0;
    const auto all = build_hover_candidates(inst, cfg);
    // Forbid the right half-plane.
    cfg.position_ok = [](const geom::Vec2& p) { return p.x < 100.0; };
    const auto filtered = build_hover_candidates(inst, cfg);
    EXPECT_LT(filtered.size(), all.size());
    EXPECT_GT(filtered.size(), 0u);
    for (const auto& c : filtered.candidates) {
        EXPECT_LT(c.pos.x, 100.0);
    }
}

/// The Sec. III-B definition scanned cell by cell: every grid cell whose
/// centre lies within R0 of a device, Eq. 6-8 accumulated in device order.
std::vector<HoverCandidate> scan_every_cell(const model::Instance& inst,
                                            const HoverCandidateConfig& cfg) {
    const double r0 = inst.uav.coverage_radius_m;
    const geom::Grid grid(
        cfg.inflate_by_coverage ? inst.region.inflated(r0) : inst.region,
        cfg.delta_m);
    std::vector<HoverCandidate> out;
    for (int id = 0; id < grid.num_cells(); ++id) {
        HoverCandidate c;
        c.pos = grid.center(id);
        c.cell_id = id;
        for (const auto& d : inst.devices) {
            if (geom::distance2(c.pos, d.pos) > r0 * r0) continue;
            c.covered.push_back(d.id);
            c.award_mb += d.data_mb;
            c.dwell_s =
                std::max(c.dwell_s, d.upload_time(inst.uav.bandwidth_mbps));
        }
        if (c.covered.empty() || (cfg.position_ok && !cfg.position_ok(c.pos))) {
            continue;
        }
        c.hover_energy_j = c.dwell_s * inst.uav.hover_power_w;
        out.push_back(std::move(c));
    }
    return out;
}

TEST(HoverCandidates, MatchesEveryCellBruteForce) {
    std::vector<model::Instance> instances;
    for (const std::uint64_t seed : {1U, 2U, 3U}) {
        instances.push_back(small_instance(60, 300.0, seed));
        workload::GeneratorConfig gen = workload::paper_default();
        gen.num_devices = 80;
        gen.region_w = 400.0;
        gen.region_h = 250.0;
        gen.deployment = workload::Deployment::kClustered;
        gen.cluster_stddev = 30.0;
        instances.push_back(workload::generate(gen, seed));
    }
    // Devices on the region's corners and edges; (105, 55) lies exactly
    // R0 = 50 m along an axis from the delta = 10 centres (55, 55) and
    // (105, 105).
    instances.push_back(manual_instance({{{0.0, 0.0}, 120.0},
                                         {{200.0, 200.0}, 480.0},
                                         {{0.0, 137.0}, 300.0},
                                         {{200.0, 61.5}, 950.0},
                                         {{105.0, 55.0}, 700.0}}));
    HoverCandidateConfig cfg;
    cfg.dedupe_identical_coverage = false;
    cfg.max_candidates = 0;
    for (std::size_t k = 0; k < instances.size(); ++k) {
        const auto& inst = instances[k];
        const double mid_x = inst.region.center().x;
        // 10 divides every region; 7 and 13 divide none.
        for (const double delta : {10.0, 7.0, 13.0}) {
            for (const int variant : {0, 1, 2, 3}) {
                SCOPED_TRACE(::testing::Message()
                             << "instance " << k << " delta " << delta
                             << " variant " << variant);
                cfg.delta_m = delta;
                cfg.inflate_by_coverage = (variant & 1) != 0;
                cfg.position_ok = nullptr;
                if ((variant & 2) != 0) {
                    cfg.position_ok = [mid_x](const geom::Vec2& p) {
                        return p.x < mid_x;
                    };
                }
                const auto want = scan_every_cell(inst, cfg);
                const auto got = build_hover_candidates(inst, cfg);
                ASSERT_EQ(got.size(), want.size());
                EXPECT_EQ(got.nonzero_cells, static_cast<int>(want.size()));
                for (std::size_t i = 0; i < want.size(); ++i) {
                    const HoverCandidate& g = got.candidates[i];
                    const HoverCandidate& w = want[i];
                    EXPECT_EQ(g.cell_id, w.cell_id) << i;
                    EXPECT_EQ(g.pos, w.pos) << i;
                    EXPECT_EQ(g.covered, w.covered) << i;
                    EXPECT_EQ(g.award_mb, w.award_mb) << i;
                    EXPECT_EQ(g.dwell_s, w.dwell_s) << i;
                    EXPECT_EQ(g.hover_energy_j, w.hover_energy_j) << i;
                }
            }
        }
    }
}

TEST(HoverCandidates, HugeSparseFieldBuildsFromDevices) {
    // 5 devices on a 200 km square at delta = 5 m: 1.6e9 grid cells, of
    // which only the few hundred around each device cover anything.
    const auto inst = manual_instance({{{0.0, 0.0}, 200.0},
                                       {{200000.0, 200000.0}, 400.0},
                                       {{73000.0, 151000.0}, 600.0},
                                       {{150000.0, 20000.0}, 800.0},
                                       {{150030.0, 20010.0}, 1000.0}},
                                      200000.0);
    HoverCandidateConfig cfg;
    cfg.delta_m = 5.0;
    cfg.dedupe_identical_coverage = false;
    cfg.max_candidates = 0;
    const auto set = build_hover_candidates(inst, cfg);
    EXPECT_EQ(set.grid_cells, 1'600'000'000);
    const double per_device = inst.uav.coverage_radius_m / cfg.delta_m + 1.0;
    EXPECT_GT(set.size(), 0u);
    EXPECT_LE(static_cast<double>(set.size()),
              5.0 * std::numbers::pi * per_device * per_device);
}

}  // namespace
}  // namespace uavdc::core
