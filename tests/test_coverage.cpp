#include "uavdc/geom/coverage.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "uavdc/util/rng.hpp"

namespace uavdc::geom {
namespace {

TEST(CoverageIndex, SimpleLayout) {
    const std::vector<Vec2> centers{{0.0, 0.0}, {100.0, 0.0}};
    const std::vector<Vec2> devices{{10.0, 0.0}, {95.0, 5.0}, {50.0, 0.0}};
    const CoverageIndex cov(centers, devices, 20.0);
    EXPECT_EQ(cov.covered(0), std::vector<int>{0});
    EXPECT_EQ(cov.covered(1), std::vector<int>{1});
}

TEST(CoverageIndex, OverlappingCenters) {
    const std::vector<Vec2> centers{{0.0, 0.0}, {10.0, 0.0}};
    const std::vector<Vec2> devices{{5.0, 0.0}};
    const CoverageIndex cov(centers, devices, 8.0);
    EXPECT_EQ(cov.covered(0), std::vector<int>{0});
    EXPECT_EQ(cov.covered(1), std::vector<int>{0});
}

TEST(CoverageIndex, BoundaryIsInclusive) {
    const std::vector<Vec2> centers{{0.0, 0.0}};
    const std::vector<Vec2> devices{{50.0, 0.0}};
    const CoverageIndex cov(centers, devices, 50.0);
    EXPECT_EQ(cov.covered(0), std::vector<int>{0});
}

TEST(CoverageIndex, EmptyDevices) {
    const std::vector<Vec2> centers{{0.0, 0.0}};
    const CoverageIndex cov(centers, std::vector<Vec2>{}, 50.0);
    EXPECT_TRUE(cov.covered(0).empty());
}

TEST(CoverageIndex, EmptyCenters) {
    const std::vector<Vec2> devices{{1.0, 1.0}};
    const CoverageIndex cov(std::vector<Vec2>{}, devices, 50.0);
    EXPECT_EQ(cov.num_centers(), 0u);
}

TEST(CoverageIndex, RejectsNegativeRadius) {
    const std::vector<Vec2> pts{{0.0, 0.0}};
    EXPECT_THROW(CoverageIndex(pts, pts, -1.0), std::invalid_argument);
}

TEST(CoverageIndex, MatchesBruteForceOnRandomLayouts) {
    util::Rng rng(2024);
    for (int trial = 0; trial < 5; ++trial) {
        std::vector<Vec2> centers;
        std::vector<Vec2> devices;
        for (int i = 0; i < 60; ++i) {
            centers.push_back(
                {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)});
        }
        for (int i = 0; i < 80; ++i) {
            devices.push_back(
                {rng.uniform(0.0, 400.0), rng.uniform(0.0, 400.0)});
        }
        const double r = rng.uniform(10.0, 80.0);
        const CoverageIndex cov(centers, devices, r);
        for (std::size_t c = 0; c < centers.size(); ++c) {
            std::vector<int> want;
            for (std::size_t d = 0; d < devices.size(); ++d) {
                if (distance(centers[c], devices[d]) <= r) {
                    want.push_back(static_cast<int>(d));
                }
            }
            EXPECT_EQ(cov.covered(static_cast<int>(c)), want)
                << "trial " << trial << " center " << c;
        }
    }
}

}  // namespace
}  // namespace uavdc::geom
