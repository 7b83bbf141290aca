#pragma once

#include <functional>
#include <vector>

#include "uavdc/geom/grid.hpp"
#include "uavdc/geom/vec2.hpp"
#include "uavdc/model/instance.hpp"

namespace uavdc::core {

struct DeviceSoa;

/// Candidate-generation options (Sec. III-B / IV-A grid discretisation).
struct HoverCandidateConfig {
    double delta_m = 10.0;  ///< grid edge length delta
    /// Drop duplicate candidates whose covered-device set is identical to an
    /// earlier candidate's (keeps the one closest to its coverage centroid).
    bool dedupe_identical_coverage = true;
    /// Upper bound on the candidate count after dedup (0 = unlimited).
    /// When exceeded, a greedy set-cover pass keeps at least one candidate
    /// per coverable device, then the remaining slots go to the
    /// highest-award candidates (DESIGN.md substitution #5).
    int max_candidates = 4000;
    /// Also consider hovering locations in a band of width R0 around the
    /// region, so edge devices can be covered from outside the region.
    bool inflate_by_coverage = false;
    /// Optional admissibility predicate on hovering positions (e.g. "not
    /// inside a no-fly zone"); cells whose centre fails it are dropped
    /// before any other processing. Empty = all positions admissible.
    std::function<bool(const geom::Vec2&)> position_ok;
};

/// One candidate hovering location s_j with its precomputed quantities
/// from Sec. III-B: C(s_j), award p(s_j) (Eq. 6), dwell t(s_j) (Eq. 7),
/// hover energy w1(s_j) (Eq. 8).
struct HoverCandidate {
    geom::Vec2 pos;             ///< cell centre (projected to ground)
    int cell_id{-1};            ///< id in the generating grid
    std::vector<int> covered;   ///< device indices in C(s_j), sorted
    double award_mb{0.0};       ///< p(s_j) = sum of covered D_v
    double dwell_s{0.0};        ///< t(s_j) = max covered D_v / B
    double hover_energy_j{0.0}; ///< w1(s_j) = t(s_j) * eta_h
};

/// The generated candidate set plus provenance.
struct HoverCandidateSet {
    std::vector<HoverCandidate> candidates;
    int grid_cells{0};        ///< total cells in the grid before filtering
    int nonzero_cells{0};     ///< cells covering at least one device
    int after_dedupe{0};      ///< candidates left after coverage dedup
    double delta_m{0.0};

    [[nodiscard]] std::size_t size() const { return candidates.size(); }
};

/// The grid candidates are cut from: the instance region (inflated by R0
/// when `cfg.inflate_by_coverage`) in delta-squares. Throws
/// std::invalid_argument when the cell count exceeds INT_MAX (see
/// geom::Grid), so callers can vet a request's options before planning.
[[nodiscard]] geom::Grid hover_grid(const model::Instance& inst,
                                    const HoverCandidateConfig& cfg);

/// Build candidate hovering locations for `inst`: partition the region into
/// delta-squares, keep cells covering >= 1 device, compute Eq. 6-8
/// quantities, dedupe and cap per `cfg`. When the caller already holds the
/// instance's SoA device plane (PlanningContext builds it eagerly), passing
/// it via `device_soa` skips the redundant rebuild; it must mirror `inst`.
[[nodiscard]] HoverCandidateSet build_hover_candidates(
    const model::Instance& inst, const HoverCandidateConfig& cfg,
    const DeviceSoa* device_soa = nullptr);

}  // namespace uavdc::core
