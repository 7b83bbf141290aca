#include "uavdc/geom/coverage.hpp"

#include <algorithm>
#include <stdexcept>

#include "uavdc/util/parallel_for.hpp"

namespace uavdc::geom {

namespace {
// Centre counts below this are cheaper to scan serially than to fan out.
constexpr std::size_t kParallelCenters = 512;
}  // namespace

CoverageIndex::CoverageIndex(std::span<const Vec2> centers,
                             std::span<const Vec2> devices, double radius)
    : covered_(centers.size()) {
    if (radius < 0.0) {
        throw std::invalid_argument("CoverageIndex: radius must be >= 0");
    }
    if (devices.empty() || centers.empty()) return;

    const double cell = std::max(radius, 1e-9);
    const SpatialHash hash(devices, cell);
    // Per-centre coverage lists are independent — fill them across the
    // thread pool (each worker writes only its own slots, so the result is
    // identical to the serial order).
    auto cover_one = [&](std::size_t c) {
        auto& lst = covered_[c];
        hash.for_each_in_disk(centers[c], radius,
                              [&](int dev) { lst.push_back(dev); });
        std::sort(lst.begin(), lst.end());
    };
    if (centers.size() >= kParallelCenters) {
        util::parallel_for(0, centers.size(), cover_one, 64);
    } else {
        for (std::size_t c = 0; c < centers.size(); ++c) cover_one(c);
    }
}

}  // namespace uavdc::geom
