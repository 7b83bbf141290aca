#include "uavdc/service/plan_service.hpp"

#include <algorithm>
#include <cstring>
#include <future>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "uavdc/core/hover_candidates.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::service {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

void fnv_bytes(std::uint64_t& h, const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

void fnv_double(std::uint64_t& h, double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    fnv_bytes(h, &bits, sizeof(bits));
}

void fnv_int(std::uint64_t& h, std::int64_t v) {
    fnv_bytes(h, &v, sizeof(v));
}

/// Response-cache key half: planner identity + every resolved option that
/// can change the plan. Two requests collide only when they would produce
/// byte-identical plans.
std::uint64_t options_fingerprint(const std::string& planner,
                                  const core::PlannerOptions& opts) {
    std::uint64_t h = kFnvOffset;
    fnv_bytes(h, planner.data(), planner.size());
    fnv_double(h, opts.delta_m);
    fnv_int(h, opts.max_candidates);
    fnv_int(h, opts.k);
    fnv_int(h, opts.grasp_iterations);
    fnv_int(h, static_cast<std::int64_t>(opts.scoring));
    fnv_int(h, static_cast<std::int64_t>(opts.solver));
    fnv_int(h, opts.reduction.dominance ? 1 : 0);
    fnv_double(h, opts.reduction.dominance_radius_m);
    fnv_double(h, opts.reduction.dominance_dwell_slack);
    fnv_int(h, opts.reduction.coarsen_factor);
    fnv_double(h, opts.reduction.refine_band_m);
    fnv_int(h, opts.reduction.consolidate_to);
    return h;
}

/// Fixed-width lowercase-hex bit pattern of a double (canonical, exact).
std::string hex_bits(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return fingerprint_to_hex(bits);
}

double ms_between(std::chrono::steady_clock::time_point a,
                  std::chrono::steady_clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

io::Json stats_to_json(const core::PlanStats& s) {
    io::Json doc;
    doc["runtime_s"] = s.runtime_s;
    doc["iterations"] = s.iterations;
    doc["candidates"] = s.candidates;
    doc["planned_mb"] = s.planned_mb;
    doc["planned_energy_j"] = s.planned_energy_j;
    return doc;
}

bool known_planner(const std::string& name) {
    const auto names = core::planner_names();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/// Field-for-field equality over exactly the content that
/// `PlanningContext::instance_fingerprint` hashes. The log-label `name` is
/// deliberately excluded to match the fingerprint: two submissions of the
/// same physical instance under different labels are the same instance,
/// not a collision.
bool same_planning_content(const model::Instance& a,
                           const model::Instance& b) {
    const auto same_vec = [](const geom::Vec2& u, const geom::Vec2& v) {
        return u.x == v.x && u.y == v.y;
    };
    if (!same_vec(a.region.lo, b.region.lo) ||
        !same_vec(a.region.hi, b.region.hi) ||
        !same_vec(a.depot, b.depot)) {
        return false;
    }
    if (a.devices.size() != b.devices.size()) return false;
    for (std::size_t i = 0; i < a.devices.size(); ++i) {
        const auto& da = a.devices[i];
        const auto& db = b.devices[i];
        if (da.id != db.id || !same_vec(da.pos, db.pos) ||
            da.data_mb != db.data_mb) {
            return false;
        }
    }
    const auto& ua = a.uav;
    const auto& ub = b.uav;
    return ua.energy_j == ub.energy_j && ua.speed_mps == ub.speed_mps &&
           ua.hover_power_w == ub.hover_power_w &&
           ua.travel_rate == ub.travel_rate &&
           ua.travel_energy_model == ub.travel_energy_model &&
           ua.coverage_radius_m == ub.coverage_radius_m &&
           ua.bandwidth_mbps == ub.bandwidth_mbps;
}

}  // namespace

std::string canonical_options(const std::string& planner,
                              const core::PlannerOptions& opts) {
    std::string s = planner;
    s += ";d=" + hex_bits(opts.delta_m);
    s += ";mc=" + std::to_string(opts.max_candidates);
    s += ";k=" + std::to_string(opts.k);
    s += ";gi=" + std::to_string(opts.grasp_iterations);
    // NOLINTBEGIN(uavdc-unchecked-narrowing): scoped-enum to int for
    // the cache-key text; enumerators are small compile-time constants
    s += ";sc=" + std::to_string(static_cast<int>(opts.scoring));
    s += ";so=" + std::to_string(static_cast<int>(opts.solver));
    // NOLINTEND(uavdc-unchecked-narrowing): end of enum cache-key casts
    const core::CandidateReductionConfig& r = opts.reduction;
    s += ";rd=" + std::to_string(r.dominance ? 1 : 0);
    s += ";rr=" + hex_bits(r.dominance_radius_m);
    s += ";rs=" + hex_bits(r.dominance_dwell_slack);
    s += ";rc=" + std::to_string(r.coarsen_factor);
    s += ";rb=" + hex_bits(r.refine_band_m);
    s += ";rk=" + std::to_string(r.consolidate_to);
    return s;
}

std::uint64_t instance_check_hash(const model::Instance& inst) {
    // Different seed than PlanningContext::instance_fingerprint (golden
    // ratio XOR), same content walk: a pair of instances would have to
    // collide under both unrelated seeds at once to fool the cache.
    std::uint64_t h = kFnvOffset ^ 0x9e3779b97f4a7c15ULL;
    fnv_double(h, inst.region.lo.x);
    fnv_double(h, inst.region.lo.y);
    fnv_double(h, inst.region.hi.x);
    fnv_double(h, inst.region.hi.y);
    fnv_double(h, inst.depot.x);
    fnv_double(h, inst.depot.y);
    fnv_int(h, static_cast<std::int64_t>(inst.devices.size()));
    for (const auto& d : inst.devices) {
        fnv_int(h, d.id);
        fnv_double(h, d.pos.x);
        fnv_double(h, d.pos.y);
        fnv_double(h, d.data_mb);
    }
    fnv_double(h, inst.uav.energy_j);
    fnv_double(h, inst.uav.speed_mps);
    fnv_double(h, inst.uav.hover_power_w);
    fnv_double(h, inst.uav.travel_rate);
    fnv_int(h, static_cast<std::int64_t>(inst.uav.travel_energy_model));
    fnv_double(h, inst.uav.coverage_radius_m);
    fnv_double(h, inst.uav.bandwidth_mbps);
    return h;
}

ResponseCache::Hit ResponseCache::get(std::uint64_t key_hi,
                                      std::uint64_t key_lo,
                                      const std::string& options_canon,
                                      std::uint64_t instance_check,
                                      bool copy_tree) {
    std::lock_guard lock(mu_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Entry& e = entries_[i];
        if (e.key_hi != key_hi || e.key_lo != key_lo) continue;
        if (e.options_canon != options_canon ||
            e.instance_check != instance_check) {
            // Fingerprint collision: the stored payload belongs to a
            // different (instance, options) pair. Serving it would replay
            // another request's plan as `ok`; miss instead.
            ++misses_;
            return {};
        }
        if (i != 0) {
            const auto mid = entries_.begin() + static_cast<std::ptrdiff_t>(i);
            std::rotate(entries_.begin(), mid, mid + 1);
        }
        ++hits_;
        if (!copy_tree) return {true, io::Json(), entries_.front().wire};
        return {true, entries_.front().result, entries_.front().wire};
    }
    ++misses_;
    return {};
}

std::shared_ptr<const std::string> ResponseCache::put(
    std::uint64_t key_hi, std::uint64_t key_lo, std::string options_canon,
    std::uint64_t instance_check, io::Json result, Hit* existing) {
    // Serialize outside the lock: the dump of a large plan is the expensive
    // part, and every future hit reuses this one string.
    auto wire = std::make_shared<const std::string>(result.dump());
    std::lock_guard lock(mu_);
    // The first key match decides, as in get(): an equal entry is returned
    // as is, a colliding one is shadowed by the new entry below.
    for (const Entry& e : entries_) {
        if (e.key_hi != key_hi || e.key_lo != key_lo) continue;
        if (e.options_canon == options_canon &&
            e.instance_check == instance_check) {
            if (existing != nullptr) *existing = {true, e.result, e.wire};
            return e.wire;
        }
        break;
    }
    entries_.insert(entries_.begin(),
                    Entry{key_hi, key_lo, std::move(options_canon),
                          instance_check, std::move(result), wire});
    if (entries_.size() > capacity_) entries_.pop_back();
    return wire;
}

std::uint64_t ResponseCache::hits() const {
    std::lock_guard lock(mu_);
    return hits_;
}

std::uint64_t ResponseCache::misses() const {
    std::lock_guard lock(mu_);
    return misses_;
}

std::size_t ResponseCache::size() const {
    std::lock_guard lock(mu_);
    return entries_.size();
}

io::Json to_json(const ServiceStats& stats) {
    io::Json doc;
    doc["submitted"] = stats.submitted;
    doc["admitted"] = stats.admitted;
    doc["completed"] = stats.completed;
    doc["ok"] = stats.ok;
    doc["rejected_overload"] = stats.rejected_overload;
    doc["rejected_bad_request"] = stats.rejected_bad_request;
    doc["rejected_shutdown"] = stats.rejected_shutdown;
    doc["deadline_exceeded"] = stats.deadline_exceeded;
    doc["internal_errors"] = stats.internal_errors;
    doc["queue_depth"] = stats.queue_depth;
    doc["in_flight"] = stats.in_flight;
    doc["workers"] = stats.workers;
    io::Json cache;
    cache["hits"] = stats.cache_hits;
    cache["misses"] = stats.cache_misses;
    cache["coalesced"] = stats.cache_coalesced;
    cache["entries"] = stats.cache_entries;
    cache["hit_rate"] = stats.cache_hit_rate();
    doc["cache"] = std::move(cache);
    io::Json latency{io::Json::Object{}};
    for (const auto& [planner, lat] : stats.latency) {
        io::Json row;
        row["count"] = lat.count;
        row["mean_ms"] = lat.mean_ms;
        row["p50_ms"] = lat.p50_ms;
        row["p95_ms"] = lat.p95_ms;
        row["p99_ms"] = lat.p99_ms;
        latency[planner] = std::move(row);
    }
    doc["latency_ms"] = std::move(latency);
    return doc;
}

PlanService::PlanService() : PlanService(Config()) {}

PlanService::PlanService(Config cfg, util::ThreadPool* pool)
    : cfg_(cfg) {
    UAVDC_REQUIRE(cfg_.queue_capacity > 0)
        << "PlanService: queue_capacity must be positive";
    if (pool == nullptr) {
        owned_pool_ = std::make_unique<util::ThreadPool>(
            std::max<std::size_t>(1, cfg_.workers));
        pool_ = owned_pool_.get();
    } else {
        pool_ = pool;
    }
}

PlanService::~PlanService() { shutdown(); }

bool PlanService::heap_less(const Pending& a, const Pending& b) {
    if (a.req.priority != b.req.priority) {
        return a.req.priority < b.req.priority;
    }
    return a.seq > b.seq;  // lower seq = older = higher heap rank
}

bool PlanService::submit(PlanRequest req, Callback cb) {
    const auto now = Clock::now();
    {
        std::lock_guard lock(stats_mu_);
        ++counters_.submitted;
    }
    // Remember the inline instance before any shedding decision so that
    // pipelined instance_ref requests behind this one stay resolvable; the
    // worker reuses the resolution instead of walking the instance again.
    std::optional<Resolved> resolved;
    if (req.instance) resolved = resolve_instance(req);

    PlanResponse reject;
    reject.id = req.id;
    {
        std::unique_lock lock(mu_);
        if (stopping_) {
            reject.status = ResponseStatus::kShutdown;
            reject.error = "service is shutting down";
        } else if (queue_.size() + parked_ >= cfg_.queue_capacity) {
            reject.status = ResponseStatus::kOverloaded;
            reject.error =
                "admission queue full (capacity " +
                std::to_string(cfg_.queue_capacity) + ")";
        } else {
            Pending p;
            p.req = std::move(req);
            p.cb = std::move(cb);
            p.resolved = std::move(resolved);
            p.admitted = now;
            p.has_deadline = p.req.deadline_ms > 0.0;
            if (p.has_deadline) {
                p.deadline =
                    now + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  p.req.deadline_ms));
            }
            p.seq = next_seq_++;
            const std::uint64_t seq = p.seq;
            queue_.push_back(std::move(p));
            std::push_heap(queue_.begin(), queue_.end(), heap_less);
            lock.unlock();
            {
                std::lock_guard slock(stats_mu_);
                ++counters_.admitted;
            }
            try {
                pool_->submit([this] { run_one(); });
            } catch (...) {
                // An external pool shut down concurrently and refused the
                // ticket. Exactly one queued request now has no worker
                // coming for it; leaving it would hang drain(). Un-admit
                // this request by seq — or, if a racing ticket already
                // claimed it off the heap, shed the current top instead —
                // and answer the orphan with `shutdown`.
                Pending orphan;
                bool ours = false;
                bool have = false;
                {
                    std::lock_guard relock(mu_);
                    auto it = std::find_if(
                        queue_.begin(), queue_.end(),
                        [&](const Pending& q) { return q.seq == seq; });
                    if (it != queue_.end()) {
                        orphan = std::move(*it);
                        queue_.erase(it);
                        std::make_heap(queue_.begin(), queue_.end(),
                                       heap_less);
                        ours = have = true;
                    } else if (!queue_.empty()) {
                        std::pop_heap(queue_.begin(), queue_.end(),
                                      heap_less);
                        orphan = std::move(queue_.back());
                        queue_.pop_back();
                        have = true;
                    }
                    if (queue_.empty() && in_flight_ == 0) {
                        drained_cv_.notify_all();
                    }
                }
                if (have) {
                    PlanResponse r;
                    r.id = orphan.req.id;
                    r.status = ResponseStatus::kShutdown;
                    r.error = "worker pool rejected the request "
                              "(pool shutting down)";
                    {
                        std::lock_guard slock(stats_mu_);
                        ++counters_.completed;
                        ++counters_.rejected_shutdown;
                    }
                    orphan.cb(std::move(r));
                }
                return !ours;
            }
            return true;
        }
    }
    {
        std::lock_guard lock(stats_mu_);
        if (reject.status == ResponseStatus::kOverloaded) {
            ++counters_.rejected_overload;
        } else if (reject.status == ResponseStatus::kShutdown) {
            ++counters_.rejected_shutdown;
        }
        ++counters_.completed;
    }
    cb(std::move(reject));
    return false;
}

void PlanService::run_one() {
    Pending p;
    {
        std::lock_guard lock(mu_);
        // One ticket per admitted request: the queue cannot be empty here.
        UAVDC_CHECK(!queue_.empty()) << "PlanService: ticket without request";
        std::pop_heap(queue_.begin(), queue_.end(), heap_less);
        p = std::move(queue_.back());
        queue_.pop_back();
        ++in_flight_;
    }
    // The drain invariant must survive any throw below — most importantly
    // a throwing user callback, whose exception vanishes into the pool's
    // unobserved future. Skipping the decrement would wedge
    // drain()/shutdown() (and the destructor) forever, so a scope guard
    // decrements no matter how this frame exits — unless the request
    // parked, in which case its slot travels with it to the leader.
    struct InFlightGuard {
        PlanService* svc;
        bool parked{false};
        ~InFlightGuard() {
            if (!parked) svc->release_in_flight();
        }
    } guard{this};
    p.started = Clock::now();

    if (p.has_deadline && p.started >= p.deadline) {
        PlanResponse resp;
        resp.status = ResponseStatus::kDeadlineExceeded;
        resp.error = "deadline expired after " +
                     std::to_string(ms_between(p.admitted, p.started)) +
                     " ms in queue";
        finish(std::move(resp), p);
        return;
    }
    guard.parked = !serve(p);
}

void PlanService::release_in_flight(bool parked) {
    std::lock_guard lock(mu_);
    --in_flight_;
    if (parked) --parked_;
    if (queue_.empty() && in_flight_ == 0) drained_cv_.notify_all();
}

void PlanService::reply(PlanResponse resp, const Pending& p,
                        bool record_latency) {
    if (!p.queued) {
        resp.id = p.req.id;
        p.cb(std::move(resp));
        return;
    }
    if (record_latency) {
        note_latency(p.req.planner,
                     std::chrono::duration<double>(Clock::now() - p.started)
                         .count());
    }
    finish(std::move(resp), p);
}

void PlanService::finish(PlanResponse resp, const Pending& p) {
    const auto now = Clock::now();
    if (p.has_deadline && now >= p.deadline &&
        resp.status == ResponseStatus::kOk) {
        // Cooperative timeout: the plan finished past the deadline; hand it
        // back flagged as late/partial.
        resp.status = ResponseStatus::kDeadlineExceeded;
        resp.partial = true;
        resp.error = "deadline expired during planning";
    }
    resp.id = p.req.id;
    resp.queue_ms = ms_between(p.admitted, p.started);
    resp.exec_ms = ms_between(p.started, now);
    {
        std::lock_guard lock(stats_mu_);
        ++counters_.completed;
        switch (resp.status) {
            case ResponseStatus::kOk:
                ++counters_.ok;
                break;
            case ResponseStatus::kDeadlineExceeded:
                ++counters_.deadline_exceeded;
                break;
            case ResponseStatus::kBadRequest:
                ++counters_.rejected_bad_request;
                break;
            case ResponseStatus::kInternalError:
                ++counters_.internal_errors;
                break;
            case ResponseStatus::kShutdown:
                ++counters_.rejected_shutdown;
                break;
            default:
                break;
        }
    }
    p.cb(std::move(resp));
}

std::pair<std::shared_ptr<const PlanService::InstanceEntry>, bool>
PlanService::register_instance(std::shared_ptr<const InstanceEntry> entry) {
    std::lock_guard lock(inst_mu_);
    const auto [it, inserted] = instances_.emplace(entry->fp, entry);
    if (!inserted) return {it->second, false};
    instance_order_.push_back(entry->fp);
    while (instance_order_.size() > cfg_.instance_capacity) {
        instances_.erase(instance_order_.front());
        instance_order_.erase(instance_order_.begin());
    }
    return {std::move(entry), true};
}

PlanService::Resolved PlanService::resolve_instance(const PlanRequest& req) {
    if (req.instance) {
        const std::uint64_t fp =
            core::PlanningContext::instance_fingerprint(*req.instance);
        std::shared_ptr<const InstanceEntry> entry;
        {
            std::lock_guard lock(inst_mu_);
            if (auto it = instances_.find(fp); it != instances_.end()) {
                entry = it->second;
            }
        }
        bool inserted = false;
        if (!entry) {
            // Copy and hash outside inst_mu_; a racing registration of the
            // same fingerprint wins and is verified below like any other.
            std::tie(entry, inserted) =
                register_instance(std::make_shared<const InstanceEntry>(
                    InstanceEntry{*req.instance, fp,
                                  instance_check_hash(*req.instance)}));
        }
        // The 64-bit fingerprint alone would silently resolve a colliding
        // instance to whatever was stored first — a wrong answer with no
        // detection path. We hold the submitted content right here, so
        // verify it (cheap next to planning) and fail loudly instead of
        // planning the wrong instance.
        if (!inserted && !same_planning_content(entry->inst, *req.instance)) {
            return {nullptr,
                    "instance fingerprint collision: inline instance "
                    "hashes to " + fingerprint_to_hex(fp) +
                        " but differs from the instance registered under "
                        "that fingerprint",
                    ResponseStatus::kInternalError};
        }
        // Durability tap runs outside inst_mu_: the hook does file I/O and
        // must not serialize every concurrent instance lookup behind it.
        if (inserted && cfg_.store.on_instance) {
            cfg_.store.on_instance(fp, entry->inst);
        }
        return {std::move(entry), {}, ResponseStatus::kOk};
    }
    if (req.instance_ref) {
        std::lock_guard lock(inst_mu_);
        auto it = instances_.find(*req.instance_ref);
        if (it != instances_.end()) {
            return {it->second, {}, ResponseStatus::kOk};
        }
        return {nullptr,
                "unknown instance_ref '" +
                    fingerprint_to_hex(*req.instance_ref) +
                    "' (instances must be sent inline once before being "
                    "referenced)"};
    }
    return {nullptr,
            "request carries neither an inline instance nor an instance_ref"};
}

PlanResponse PlanService::execute(const PlanRequest& req) {
    // Shared, because a leader on another thread may still be inside
    // set_value() when get() returns here.
    auto answer = std::make_shared<std::promise<PlanResponse>>();
    auto answered = answer->get_future();
    Pending p;
    p.req = req;
    p.cb = [answer](PlanResponse resp) { answer->set_value(std::move(resp)); };
    p.queued = false;
    (void)serve(p);
    return answered.get();
}

bool PlanService::serve(Pending& p) {
    PlanResponse resp;
    const Resolved resolved =
        p.resolved ? std::move(*p.resolved) : resolve_instance(p.req);
    if (!resolved.entry) {
        resp.status = resolved.status;
        resp.error = resolved.error;
        reply(std::move(resp), p, /*record_latency=*/true);
        return true;
    }
    if (!known_planner(p.req.planner)) {
        resp.status = ResponseStatus::kBadRequest;
        resp.error = "unknown planner '" + p.req.planner + "'";
        reply(std::move(resp), p, /*record_latency=*/true);
        return true;
    }
    const InstanceEntry& inst = *resolved.entry;
    const core::PlannerOptions opts = p.req.overrides.resolve(cfg_.defaults);
    const std::uint64_t opts_fp = options_fingerprint(p.req.planner, opts);
    const std::string canon = canonical_options(p.req.planner, opts);
    const bool copy_tree = !cfg_.wire_only_hits;

    auto hit = cache_.get(inst.fp, opts_fp, canon, inst.check, copy_tree);
    if (hit.found) {
        resp.cache_hit = true;
        resp.result = std::move(hit.result);
        resp.result_wire = std::move(hit.wire);
        reply(std::move(resp), p, /*record_latency=*/true);
        return true;
    }
    std::list<Flight>::iterator flight;
    {
        std::lock_guard lock(flight_mu_);
        const auto in_flight = std::find_if(
            flights_.begin(), flights_.end(), [&](const Flight& f) {
                return f.key_hi == inst.fp && f.key_lo == opts_fp &&
                       f.instance_check == inst.check &&
                       f.options_canon == canon;
            });
        if (in_flight != flights_.end()) {
            if (p.queued) {
                // The request left the queue but still counts against
                // admission until its leader answers it.
                std::lock_guard qlock(mu_);
                ++parked_;
            }
            in_flight->waiters.push_back(std::move(p));
            ++coalesced_;
            return false;
        }
        flight = flights_.insert(
            flights_.end(), Flight{inst.fp, opts_fp, canon, inst.check, {}});
    }

    // Lead. A leader that stored this key and removed its flight between
    // the lookup above and the flight lookup must not make us plan it a
    // second time, so look once more; the copy of a found tree runs outside
    // flight_mu_. Whatever happens, the flight is closed below.
    try {
        hit = cache_.get(inst.fp, opts_fp, canon, inst.check, copy_tree);
        if (hit.found) {
            resp.cache_hit = true;
            resp.result = std::move(hit.result);
            resp.result_wire = std::move(hit.wire);
        } else {
            {
                std::lock_guard lock(flight_mu_);
                ++plans_started_;
            }
            resp = plan_miss(p.req.planner, opts, inst, opts_fp, canon);
        }
    } catch (...) {
        resp = PlanResponse{};
        resp.status = ResponseStatus::kInternalError;
        resp.error = "internal failure while leading a plan";
    }
    std::vector<Pending> waiters;
    {
        std::lock_guard lock(flight_mu_);
        waiters = std::move(flight->waiters);
        flights_.erase(flight);
    }
    for (const Pending& w : waiters) {
        // A failure answering one waiter must not cost the others their
        // answer; its exception is dropped, as the pool drops the exception
        // of a sink a worker calls.
        try {
            answer_parked(resp, w);
        } catch (...) {  // NOLINT(bugprone-empty-catch): dropped, see above
        }
    }
    reply(std::move(resp), p, /*record_latency=*/true);
    return true;
}

void PlanService::answer_parked(const PlanResponse& led, const Pending& w) {
    // The waiter's in-flight slot and admission share go back however this
    // frame exits.
    struct Release {
        PlanService* svc;
        bool queued;
        ~Release() {
            if (queued) svc->release_in_flight(/*parked=*/true);
        }
    } release{this, w.queued};
    PlanResponse shared;
    try {
        shared.status = led.status;
        shared.error = led.error;
        if (!cfg_.wire_only_hits) shared.result = led.result;
        shared.result_wire = led.result_wire;
    } catch (...) {
        shared = PlanResponse{};
        shared.status = ResponseStatus::kInternalError;
        shared.error = "could not copy the leader's plan";
    }
    reply(std::move(shared), w, /*record_latency=*/false);
}

PlanResponse PlanService::plan_miss(const std::string& planner_name,
                                    const core::PlannerOptions& opts,
                                    const InstanceEntry& inst,
                                    std::uint64_t opts_fp,
                                    const std::string& canon) {
    PlanResponse resp;
    try {
        // A grid too fine to index is the request's fault, not a planner
        // failure: reject it before any planner runs.
        (void)core::hover_grid(inst.inst, opts.hover_config());
    } catch (const std::invalid_argument& ex) {
        resp.status = ResponseStatus::kBadRequest;
        resp.error = std::string("'delta_m' too fine for this instance: ") +
                     ex.what();
        return resp;
    }
    try {
        auto planner = core::make_planner(planner_name, opts);
        const auto ctx =
            core::PlanningContext::obtain(inst.inst, opts.hover_config());
        auto res = planner->plan(*ctx);
        io::Json result;
        result["instance_fingerprint"] = fingerprint_to_hex(inst.fp);
        result["planner"] = planner->name();
        result["plan"] = io::to_json(res.plan);
        result["stats"] = stats_to_json(res.stats);
        resp.result = result;
        // A repository replay may have stored this key first; answer with
        // that result so every reply carries the same bytes.
        ResponseCache::Hit existing;
        resp.result_wire = cache_.put(inst.fp, opts_fp, canon, inst.check,
                                      std::move(result), &existing);
        if (existing.found) {
            resp.result = std::move(existing.result);
        } else if (cfg_.store.on_response) {
            cfg_.store.on_response(inst.fp, opts_fp, canon, inst.check,
                                   resp.result);
        }
    } catch (const std::exception& ex) {
        resp.status = ResponseStatus::kInternalError;
        resp.error = std::string("planner '") + planner_name +
                     "' failed: " + ex.what();
        resp.result = io::Json();
        resp.result_wire = nullptr;
    } catch (...) {
        // Parked requests wait on this answer; nothing may escape unanswered.
        resp.status = ResponseStatus::kInternalError;
        resp.error = std::string("planner '") + planner_name +
                     "' failed: unknown exception";
        resp.result = io::Json();
        resp.result_wire = nullptr;
    }
    return resp;
}

void PlanService::preload_instance(const model::Instance& inst) {
    const std::uint64_t fp =
        core::PlanningContext::instance_fingerprint(inst);
    (void)register_instance(std::make_shared<const InstanceEntry>(
        InstanceEntry{inst, fp, instance_check_hash(inst)}));
}

void PlanService::preload_response(std::uint64_t key_hi, std::uint64_t key_lo,
                                   std::string options_canon,
                                   std::uint64_t instance_check,
                                   io::Json result) {
    cache_.put(key_hi, key_lo, std::move(options_canon), instance_check,
               std::move(result));
}

void PlanService::drain() {
    std::unique_lock lock(mu_);
    drained_cv_.wait(lock,
                     [this] { return queue_.empty() && in_flight_ == 0; });
}

void PlanService::shutdown() {
    {
        std::lock_guard lock(mu_);
        stopping_ = true;
    }
    drain();
    if (owned_pool_) owned_pool_->shutdown();
}

void PlanService::note_latency(const std::string& planner, double seconds) {
    std::lock_guard lock(stats_mu_);
    latency_[planner].record(seconds);
}

ServiceStats PlanService::stats() const {
    ServiceStats out;
    {
        std::lock_guard lock(stats_mu_);
        out = counters_;
        for (const auto& [planner, hist] : latency_) {
            PlannerLatency lat;
            lat.count = hist.count();
            lat.mean_ms = hist.mean_s() * 1e3;
            lat.p50_ms = hist.quantile(0.50) * 1e3;
            lat.p95_ms = hist.quantile(0.95) * 1e3;
            lat.p99_ms = hist.quantile(0.99) * 1e3;
            out.latency[planner] = lat;
        }
    }
    out.cache_hits = cache_.hits();
    out.cache_entries = cache_.size();
    {
        std::lock_guard lock(flight_mu_);
        out.cache_misses = plans_started_;
        out.cache_coalesced = coalesced_;
    }
    {
        std::lock_guard lock(mu_);
        out.queue_depth = queue_.size();
        out.in_flight = in_flight_;
    }
    out.workers = pool_->num_threads();
    return out;
}

}  // namespace uavdc::service
