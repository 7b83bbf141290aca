#include "uavdc/geom/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "uavdc/util/check.hpp"

namespace uavdc::geom {

namespace {

double cells_along(double extent, double delta) {
    // At least one cell; round up so the grid covers the whole region.
    return std::max(1.0, std::ceil(extent / delta));
}

/// Clamp a fractional cell-index bound to [0, n - 1] before it is cast, so
/// a disk far wider than the grid cannot overflow the conversion.
int clamp_index(double i, int n) {
    return static_cast<int>(std::clamp(i, 0.0, static_cast<double>(n - 1)));
}

}  // namespace

Grid::Grid(Aabb region, double delta)
    : region_(region),
      delta_(delta),
      nx_(0),
      ny_(0) {
    if (!(delta > 0.0)) {
        throw std::invalid_argument("Grid: delta must be positive");
    }
    const double nx = cells_along(region_.width(), delta_);
    const double ny = cells_along(region_.height(), delta_);
    // Cell ids are int: reject grids whose cell count does not fit (the
    // negated test also rejects a NaN extent).
    if (!(nx * ny <= std::numeric_limits<int>::max())) {
        throw std::invalid_argument("Grid: cell count exceeds INT_MAX");
    }
    nx_ = static_cast<int>(nx);
    ny_ = static_cast<int>(ny);
}

Vec2 Grid::center(int id) const {
    UAVDC_DCHECK(id >= 0 && id < num_cells());
    const int ix = ix_of(id);
    const int iy = iy_of(id);
    return {region_.lo.x + (ix + 0.5) * delta_,
            region_.lo.y + (iy + 0.5) * delta_};
}

Aabb Grid::cell_box(int id) const {
    UAVDC_DCHECK(id >= 0 && id < num_cells());
    const int ix = ix_of(id);
    const int iy = iy_of(id);
    const Vec2 lo{region_.lo.x + ix * delta_, region_.lo.y + iy * delta_};
    return Aabb{lo, lo + Vec2{delta_, delta_}};
}

int Grid::cell_of(const Vec2& p) const {
    const int ix = clamp_index(std::floor((p.x - region_.lo.x) / delta_), nx_);
    const int iy = clamp_index(std::floor((p.y - region_.lo.y) / delta_), ny_);
    return id_of(ix, iy);
}

std::vector<int> Grid::cells_with_center_in_disk(const Vec2& p,
                                                 double r) const {
    std::vector<int> out;
    if (r < 0.0) return out;
    // Candidate index window around p, clamped to the grid.
    const int ix_lo =
        clamp_index(std::floor((p.x - r - region_.lo.x) / delta_ - 0.5), nx_);
    const int ix_hi =
        clamp_index(std::ceil((p.x + r - region_.lo.x) / delta_ - 0.5), nx_);
    const int iy_lo =
        clamp_index(std::floor((p.y - r - region_.lo.y) / delta_ - 0.5), ny_);
    const int iy_hi =
        clamp_index(std::ceil((p.y + r - region_.lo.y) / delta_ - 0.5), ny_);
    const double r2 = r * r;
    for (int iy = iy_lo; iy <= iy_hi; ++iy) {
        for (int ix = ix_lo; ix <= ix_hi; ++ix) {
            const int id = id_of(ix, iy);
            if (distance2(center(id), p) <= r2) out.push_back(id);
        }
    }
    return out;
}

}  // namespace uavdc::geom
