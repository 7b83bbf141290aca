#include "uavdc/core/planning_context.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>

#include "uavdc/graph/dense_graph.hpp"
#include "uavdc/util/parallel_for.hpp"
#include "uavdc/util/timer.hpp"

namespace uavdc::core {

namespace {

// Node counts above this skip the precomputed triangular distance matrix
// (O(n^2 / 2) doubles) and compute distances on demand.
constexpr std::size_t kMaxCachedDistanceNodes = 4097;  // depot + 4096

std::atomic<std::uint64_t> g_candidate_builds{0};
std::atomic<std::uint64_t> g_candidate_build_ns{0};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (v >> (8 * byte)) & 0xffULL;
        h *= kFnvPrime;
    }
}

void fnv_mix(std::uint64_t& h, double v) {
    // Normalise -0.0 so numerically-identical instances hash identically.
    if (v == 0.0) v = 0.0;
    fnv_mix(h, std::bit_cast<std::uint64_t>(v));
}

void fnv_mix(std::uint64_t& h, const geom::Vec2& v) {
    fnv_mix(h, v.x);
    fnv_mix(h, v.y);
}

}  // namespace

PlanningContext::PlanningContext(model::Instance inst,
                                 HoverCandidateConfig cfg)
    : inst_(std::move(inst)),
      cfg_(std::move(cfg)),
      energy_(inst_.uav),
      device_soa_(build_device_soa(inst_)) {
    std::uint64_t h = instance_fingerprint(inst_);
    fnv_mix(h, config_fingerprint(cfg_));
    fingerprint_ = h;
}

std::uint64_t PlanningContext::instance_fingerprint(
    const model::Instance& inst) {
    std::uint64_t h = kFnvOffset;
    fnv_mix(h, inst.region.lo);
    fnv_mix(h, inst.region.hi);
    fnv_mix(h, inst.depot);
    fnv_mix(h, static_cast<std::uint64_t>(inst.devices.size()));
    for (const auto& d : inst.devices) {
        fnv_mix(h, static_cast<std::uint64_t>(
                       static_cast<std::int64_t>(d.id)));
        fnv_mix(h, d.pos);
        fnv_mix(h, d.data_mb);
    }
    const auto& u = inst.uav;
    fnv_mix(h, u.energy_j);
    fnv_mix(h, u.speed_mps);
    fnv_mix(h, u.hover_power_w);
    fnv_mix(h, u.travel_rate);
    fnv_mix(h, static_cast<std::uint64_t>(u.travel_energy_model));
    fnv_mix(h, u.coverage_radius_m);
    fnv_mix(h, u.bandwidth_mbps);
    return h;
}

std::uint64_t PlanningContext::config_fingerprint(
    const HoverCandidateConfig& cfg) {
    std::uint64_t h = kFnvOffset;
    fnv_mix(h, cfg.delta_m);
    fnv_mix(h, static_cast<std::uint64_t>(cfg.dedupe_identical_coverage));
    fnv_mix(h, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(cfg.max_candidates)));
    fnv_mix(h, static_cast<std::uint64_t>(cfg.inflate_by_coverage));
    // position_ok is opaque; obtain() refuses to cache such configs, so the
    // fingerprint only needs to distinguish "has one" from "hasn't".
    fnv_mix(h, static_cast<std::uint64_t>(cfg.position_ok != nullptr));
    return h;
}

const HoverCandidateSet& PlanningContext::candidates() const {
    std::call_once(cand_once_, [this] {
        util::Timer timer;
        cands_ = build_hover_candidates(inst_, cfg_, &device_soa_);
        g_candidate_build_ns.fetch_add(
            static_cast<std::uint64_t>(timer.seconds() * 1e9),
            std::memory_order_relaxed);
        g_candidate_builds.fetch_add(1, std::memory_order_relaxed);
        cands_built_ = true;
    });
    return cands_;
}

bool PlanningContext::candidates_built() const { return cands_built_; }

const CandidateSoa& PlanningContext::candidate_soa() const {
    std::call_once(soa_once_, [this] {
        cand_soa_ = build_candidate_soa(candidates(), inst_.devices.size());
    });
    return cand_soa_;
}

const InvertedCoverageIndex& PlanningContext::inverted_coverage() const {
    std::call_once(inv_once_, [this] {
        inverted_ = std::make_unique<InvertedCoverageIndex>(
            candidates(), inst_.devices.size());
    });
    return *inverted_;
}

const ReducedCandidates& PlanningContext::reduced_candidates(
    const CandidateReductionConfig& cfg) const {
    const std::uint64_t fp = cfg.fingerprint();
    // Ensure the candidate build (its own call_once) happens outside the
    // reduction lock, so a concurrent candidates() caller never waits on a
    // reduction in progress.
    const HoverCandidateSet& full = candidates();
    std::lock_guard<std::mutex> lock(reduction_mutex_);
    for (const auto& [key, red] : reductions_) {
        if (key == fp) return *red;
    }
    reductions_.emplace_back(
        fp, std::make_unique<ReducedCandidates>(
                reduce_candidates(full, inst_.devices.size(), cfg)));
    return *reductions_.back().second;
}

ArenaLease PlanningContext::acquire_arena() const {
    {
        std::lock_guard<std::mutex> lock(arena_mutex_);
        if (!arena_pool_.empty()) {
            auto a = std::move(arena_pool_.back());
            arena_pool_.pop_back();
            return ArenaLease(this, std::move(a));
        }
    }
    return ArenaLease(this, std::make_unique<ScratchArena>());
}

std::size_t PlanningContext::arena_pool_size() const {
    std::lock_guard<std::mutex> lock(arena_mutex_);
    return arena_pool_.size();
}

ArenaLease::~ArenaLease() {
    if (!arena_ || owner_ == nullptr) return;
    arena_->reset();
    std::lock_guard<std::mutex> lock(owner_->arena_mutex_);
    owner_->arena_pool_.push_back(std::move(arena_));
}

geom::Vec2 PlanningContext::node_pos(std::size_t i) const {
    return i == 0 ? inst_.depot : cands_.candidates[i - 1].pos;
}

void PlanningContext::ensure_distance_matrix() const {
    std::call_once(dist_once_, [this] {
        const std::size_t n = candidates().size() + 1;
        if (n > kMaxCachedDistanceNodes) return;  // dist_matrix_ stays false
        tri_.resize(n * (n + 1) / 2);
        std::vector<geom::Vec2> nodes(n);
        for (std::size_t j = 0; j < n; ++j) nodes[j] = node_pos(j);
        // Blocks of kRowBlock rows are independent (parallel); each row
        // writes its own tri_ segment with the geom::distance(p, node_c)
        // expression node_distance falls back to. Safe on a worker thread:
        // parallel_for runs inline there.
        constexpr std::size_t kRowBlock = 8;
        const std::size_t blocks = (n + kRowBlock - 1) / kRowBlock;
        util::parallel_for(
            0, blocks,
            [&](std::size_t bi) {
                const std::size_t r1 = std::min((bi + 1) * kRowBlock, n);
                for (std::size_t r = bi * kRowBlock; r < r1; ++r) {
                    double* row = tri_.data() + r * (r + 1) / 2;
                    for (std::size_t c = 0; c <= r; ++c) {
                        // NOLINTNEXTLINE(uavdc-batched-distance): a batched
                        // row fill measured no faster (0.97-0.99x).
                        row[c] = geom::distance(nodes[r], nodes[c]);
                    }
                }
            },
            8);
        dist_matrix_ = true;
    });
}

bool PlanningContext::has_distance_matrix() const {
    ensure_distance_matrix();
    return dist_matrix_;
}

double PlanningContext::node_distance(std::size_t i, std::size_t j) const {
    if (i == j) return 0.0;
    ensure_distance_matrix();
    if (!dist_matrix_) {
        return geom::distance(node_pos(i), node_pos(j));
    }
    const std::size_t r = std::max(i, j);
    const std::size_t c = std::min(i, j);
    return tri_[r * (r + 1) / 2 + c];
}

void PlanningContext::fill_submatrix(std::span<const std::size_t> nodes,
                                     graph::DenseGraph& g) const {
    const std::size_t m = nodes.size();
    for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = r + 1; c < m; ++c) {
            g.set_weight(r, c, node_distance(nodes[r], nodes[c]));
        }
    }
}

std::uint64_t PlanningContext::total_candidate_builds() {
    return g_candidate_builds.load(std::memory_order_relaxed);
}

double PlanningContext::total_candidate_build_time_s() {
    return static_cast<double>(
               g_candidate_build_ns.load(std::memory_order_relaxed)) *
           1e-9;
}

std::shared_ptr<const PlanningContext> PlanningContext::build(
    model::Instance inst, HoverCandidateConfig cfg) {
    return std::make_shared<const PlanningContext>(std::move(inst),
                                                   std::move(cfg));
}

std::shared_ptr<const PlanningContext> PlanningContext::obtain(
    const model::Instance& inst, const HoverCandidateConfig& cfg) {
    return PlanningContextCache::global().obtain(inst, cfg);
}

PlanningContextCache::PlanningContextCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(capacity, 1)) {}

std::shared_ptr<const PlanningContext> PlanningContextCache::obtain(
    const model::Instance& inst, const HoverCandidateConfig& cfg) {
    if (cfg.position_ok) {
        // Opaque predicate: two configs with different predicates would
        // collide, so never memoize these.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++uncached_;
        }
        return PlanningContext::build(inst, cfg);
    }
    std::uint64_t key = PlanningContext::instance_fingerprint(inst);
    fnv_mix(key, PlanningContext::config_fingerprint(cfg));

    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            if (entries_[i].key == key) {
                ++hits_;
                // Move to front (MRU).
                const auto mid =
                    entries_.begin() + static_cast<std::ptrdiff_t>(i);
                std::rotate(entries_.begin(), mid, mid + 1);
                return entries_.front().ctx;
            }
        }
    }
    // Build outside the lock: context construction copies the instance and
    // indexes devices, which should not serialise unrelated lookups. A
    // racing builder of the same key is tolerated — the first insert wins
    // and the loser's context is used once then dropped; the expensive
    // candidate build is lazy, so the duplicate costs only the copy.
    auto ctx = PlanningContext::build(inst, cfg);
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (entries_[i].key == key) {
            const auto mid =
                entries_.begin() + static_cast<std::ptrdiff_t>(i);
            std::rotate(entries_.begin(), mid, mid + 1);
            return entries_.front().ctx;
        }
    }
    entries_.insert(entries_.begin(), Entry{key, ctx});
    if (entries_.size() > capacity_) {
        entries_.pop_back();
        ++evictions_;
    }
    return ctx;
}

ContextCacheStats PlanningContextCache::stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    ContextCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.uncached_builds = uncached_;
    s.candidate_builds = PlanningContext::total_candidate_builds();
    s.candidate_build_time_s = PlanningContext::total_candidate_build_time_s();
    return s;
}

std::size_t PlanningContextCache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void PlanningContextCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    hits_ = misses_ = evictions_ = uncached_ = 0;
}

PlanningContextCache& PlanningContextCache::global() {
    static PlanningContextCache cache;
    return cache;
}

}  // namespace uavdc::core
