#include "uavdc/core/hover_candidates.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "uavdc/core/batch_kernels.hpp"
#include "uavdc/core/soa_layout.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::core {

namespace {

/// FNV-1a over the covered-device list, for coverage-set dedup buckets.
std::uint64_t hash_coverage(const std::vector<int>& covered) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int v : covered) {
        // NOLINTNEXTLINE(uavdc-unchecked-narrowing): device ids are
        // dense non-negative indices; mixing their 32-bit pattern is
        // the hash, wraparound would be harmless by design
        h ^= static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
        h *= 1099511628211ULL;
    }
    return h;
}

/// Mean squared distance from `pos` to its covered devices — dedup keeps
/// the candidate centred best over its coverage set.
double coverage_spread(const geom::Vec2& pos, const std::vector<int>& covered,
                       const DeviceSoa& soa) {
    if (covered.empty()) return 0.0;
    const double s = kernels::sum_squared_distances_ordered(
        covered.data(), covered.size(), soa.pos.xs.data(), soa.pos.ys.data(),
        pos);
    return s / static_cast<double>(covered.size());
}

}  // namespace

geom::Grid hover_grid(const model::Instance& inst,
                      const HoverCandidateConfig& cfg) {
    geom::Aabb hover_region = inst.region;
    if (cfg.inflate_by_coverage) {
        hover_region = hover_region.inflated(inst.uav.coverage_radius_m);
    }
    return {hover_region, cfg.delta_m};
}

HoverCandidateSet build_hover_candidates(const model::Instance& inst,
                                         const HoverCandidateConfig& cfg,
                                         const DeviceSoa* device_soa) {
    HoverCandidateSet out;
    out.delta_m = cfg.delta_m;

    const geom::Grid grid = hover_grid(inst, cfg);
    out.grid_cells = grid.num_cells();

    const double eta_h = inst.uav.hover_power_w;
    // SoA device plane for the scoring kernels: data volumes plus
    // precomputed upload times (bit-identical to Device::upload_time).
    // Reuse the caller's copy when offered (build_device_soa is itself
    // deterministic, so either path yields the same values).
    const DeviceSoa local_soa =
        device_soa == nullptr ? build_device_soa(inst) : DeviceSoa{};
    const DeviceSoa& soa = device_soa == nullptr ? local_soa : *device_soa;
    UAVDC_DCHECK(soa.data_mb.size() >= inst.devices.size());

    // Enumerate from the devices out: every (cell, device) pair with the
    // cell centre within R0 of the device, packed as cell_id << 32 | v.
    // Sorting groups each cell's coverage set into one run, cells in id
    // order and devices ascending within it, so the result equals a scan
    // of every cell while touching only the covering ones.
    std::vector<std::uint64_t> pairs;
    for (std::size_t v = 0; v < inst.devices.size(); ++v) {
        for (const int id : grid.cells_with_center_in_disk(
                 inst.devices[v].pos, inst.uav.coverage_radius_m)) {
            pairs.push_back((static_cast<std::uint64_t>(id) << 32U) | v);
        }
    }
    std::sort(pairs.begin(), pairs.end());

    std::vector<HoverCandidate> cands;
    for (std::size_t run = 0; run < pairs.size();) {
        const std::uint64_t cell = pairs[run] >> 32U;
        std::size_t end = run + 1;
        while (end < pairs.size() && pairs[end] >> 32U == cell) ++end;
        const int id = util::checked_cast<int>(cell);
        const geom::Vec2 pos = grid.center(id);
        if (!cfg.position_ok || cfg.position_ok(pos)) {
            HoverCandidate c;
            c.pos = pos;
            c.cell_id = id;
            c.covered.reserve(end - run);
            for (std::size_t i = run; i < end; ++i) {
                c.covered.push_back(
                    util::checked_cast<int>(pairs[i] & 0xFFFFFFFFU));
            }
            // Eq. 6-8 award/dwell, accumulated in covered-list order.
            const kernels::GainAccum g = kernels::award_dwell_ordered(
                c.covered.data(), c.covered.size(), soa.data_mb.data(),
                soa.upload_s.data());
            c.award_mb = g.sum_mb;
            c.dwell_s = g.max_s;
            c.hover_energy_j = c.dwell_s * eta_h;
            cands.push_back(std::move(c));
        }
        run = end;
    }
    out.nonzero_cells = util::checked_cast<int>(cands.size());

    if (cfg.dedupe_identical_coverage && !cands.empty()) {
        std::unordered_map<std::uint64_t, std::vector<std::size_t>> buckets;
        for (std::size_t i = 0; i < cands.size(); ++i) {
            buckets[hash_coverage(cands[i].covered)].push_back(i);
        }
        std::vector<bool> keep(cands.size(), true);
        // NOLINTNEXTLINE(uavdc-unordered-iteration): per-bucket winners are
        // chosen by spread comparisons alone and survivors are emitted in
        // candidate index order below, so bucket order cannot reach output.
        for (auto& [h, idxs] : buckets) {
            if (idxs.size() < 2) continue;
            // Within a hash bucket, group truly-equal coverage sets and keep
            // the best-centred representative of each group.
            for (std::size_t a = 0; a < idxs.size(); ++a) {
                if (!keep[idxs[a]]) continue;
                std::size_t best = idxs[a];
                double best_spread =
                    coverage_spread(cands[best].pos, cands[best].covered,
                                    soa);
                for (std::size_t b = a + 1; b < idxs.size(); ++b) {
                    if (!keep[idxs[b]]) continue;
                    if (cands[idxs[a]].covered != cands[idxs[b]].covered) {
                        continue;
                    }
                    const double sp = coverage_spread(
                        cands[idxs[b]].pos, cands[idxs[b]].covered, soa);
                    if (sp < best_spread) {
                        keep[best] = false;
                        best = idxs[b];
                        best_spread = sp;
                    } else {
                        keep[idxs[b]] = false;
                    }
                }
            }
        }
        std::vector<HoverCandidate> deduped;
        deduped.reserve(cands.size());
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (keep[i]) deduped.push_back(std::move(cands[i]));
        }
        cands = std::move(deduped);
    }
    out.after_dedupe = util::checked_cast<int>(cands.size());

    if (cfg.max_candidates > 0 &&
        cands.size() > static_cast<std::size_t>(cfg.max_candidates)) {
        // Pass 1: greedy set cover so every coverable device keeps at least
        // one candidate (prefer higher award per pick).
        std::vector<std::size_t> order(cands.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return cands[a].award_mb > cands[b].award_mb;
                  });
        std::vector<bool> device_hit(inst.devices.size(), false);
        std::vector<bool> selected(cands.size(), false);
        std::size_t n_selected = 0;
        for (std::size_t i : order) {
            bool adds = false;
            for (int v : cands[i].covered) {
                if (!device_hit[static_cast<std::size_t>(v)]) {
                    adds = true;
                    break;
                }
            }
            if (!adds) continue;
            selected[i] = true;
            ++n_selected;
            for (int v : cands[i].covered) {
                device_hit[static_cast<std::size_t>(v)] = true;
            }
            if (n_selected >= static_cast<std::size_t>(cfg.max_candidates)) {
                break;
            }
        }
        // Pass 2: fill remaining slots by award.
        for (std::size_t i : order) {
            if (n_selected >= static_cast<std::size_t>(cfg.max_candidates)) {
                break;
            }
            if (!selected[i]) {
                selected[i] = true;
                ++n_selected;
            }
        }
        std::vector<HoverCandidate> capped;
        capped.reserve(n_selected);
        for (std::size_t i = 0; i < cands.size(); ++i) {
            if (selected[i]) capped.push_back(std::move(cands[i]));
        }
        cands = std::move(capped);
    }

    out.candidates = std::move(cands);
    return out;
}

}  // namespace uavdc::core
