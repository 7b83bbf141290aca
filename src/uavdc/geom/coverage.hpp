#pragma once

#include <span>
#include <vector>

#include "uavdc/geom/spatial_hash.hpp"
#include "uavdc/geom/vec2.hpp"

namespace uavdc::geom {

/// Coverage map from candidate hovering locations to devices:
/// C(s_j) = { v_i : |v_i - s_j| <= R0 } (Sec. III-B, Eq. 2).
///
/// Built once per centre set via a spatial hash over device positions;
/// queries are O(1) lookups afterwards.
class CoverageIndex {
  public:
    /// `centers` are the candidate hovering locations (projected to ground),
    /// `devices` the device positions, `radius` the coverage radius R0.
    CoverageIndex(std::span<const Vec2> centers, std::span<const Vec2> devices,
                  double radius);

    [[nodiscard]] std::size_t num_centers() const { return covered_.size(); }

    /// Device indices covered from hovering location `center` (sorted).
    [[nodiscard]] const std::vector<int>& covered(int center) const {
        return covered_[static_cast<std::size_t>(center)];
    }

  private:
    std::vector<std::vector<int>> covered_;  // centre -> devices
};

}  // namespace uavdc::geom
