#pragma once

#include <cstdint>
#include <vector>

#include "uavdc/geom/aabb.hpp"
#include "uavdc/geom/vec2.hpp"

namespace uavdc::geom {

/// Uniform square partition of a monitoring region (Sec. III-B of the paper):
/// the region is split into squares of edge length delta, and the centre of
/// each square is a potential hovering location for the UAV.
///
/// Cells are indexed row-major: id = iy * nx + ix, with (ix, iy) counting
/// from the region's lower-left corner. The last row/column of cells may
/// extend slightly past the region when width/height is not a multiple of
/// delta; their centres are still used as hovering locations (the UAV may
/// hover anywhere, only the devices are confined to the region).
class Grid {
  public:
    /// Build a grid over `region` with square edge `delta` (> 0). Throws
    /// std::invalid_argument when delta <= 0 or the cell count exceeds
    /// INT_MAX.
    Grid(Aabb region, double delta);

    [[nodiscard]] const Aabb& region() const { return region_; }
    [[nodiscard]] double delta() const { return delta_; }
    [[nodiscard]] int nx() const { return nx_; }
    [[nodiscard]] int ny() const { return ny_; }
    [[nodiscard]] int num_cells() const { return nx_ * ny_; }

    /// Centre of cell `id` (the hovering location).
    [[nodiscard]] Vec2 center(int id) const;
    /// Extent of cell `id`.
    [[nodiscard]] Aabb cell_box(int id) const;

    /// Cell id containing point p (clamped to the grid).
    [[nodiscard]] int cell_of(const Vec2& p) const;

    /// (ix, iy) -> id.
    [[nodiscard]] int id_of(int ix, int iy) const { return iy * nx_ + ix; }
    [[nodiscard]] int ix_of(int id) const { return id % nx_; }
    [[nodiscard]] int iy_of(int id) const { return id / nx_; }

    /// Ids of all cells whose *centre* lies within distance r of p.
    /// This is exactly the set of hovering locations that cover a device at
    /// p with coverage radius r.
    [[nodiscard]] std::vector<int> cells_with_center_in_disk(const Vec2& p,
                                                             double r) const;

  private:
    Aabb region_;
    double delta_;
    int nx_;
    int ny_;
};

}  // namespace uavdc::geom
