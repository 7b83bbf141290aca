// Traced run: replays a workload's requests in-process through the public
// function of each layer the served path crosses, one call per layer, and
// records a span per call. Nothing inside the library is instrumented; the
// spans sit around the calls, in the order `PlanService::execute` and the
// TCP server make them.

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <thread>

#include "e2e.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/service/plan_service.hpp"

namespace e2e {

namespace core = uavdc::core;
namespace io = uavdc::io;
namespace net = uavdc::net;
namespace service = uavdc::service;

std::vector<Reference> compute_references(
    const Workload& w, const std::vector<std::size_t>& keys, int threads) {
    std::vector<Reference> out(keys.size());
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
        for (std::size_t i = next++; i < keys.size(); i = next++) {
            const KeySpec& k = w.keys[keys[i]];
            const core::PlannerOptions opts = k.resolved();
            const uavdc::model::Instance& inst = w.instances[k.instance];
            const auto ctx =
                core::PlanningContext::build(inst, opts.hover_config());
            const auto res = core::make_planner(k.planner, opts)->plan(*ctx);
            out[i].plan_json = io::to_json(res.plan).dump();
            const auto ev = core::evaluate_plan(inst, res.plan);
            out[i].collected_mb = ev.collected_mb;
            out[i].energy_feasible = ev.energy_feasible;
        }
    };
    std::vector<std::thread> pool;
    for (int t = 1; t < std::max(1, threads); ++t) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
    return out;
}

namespace {

using Clock = std::chrono::steady_clock;

/// Span layers, in the order the served path reaches them.
enum Layer : std::uint8_t {
    kFrameDecode,
    kJsonParse,
    kRequestDecode,
    kResolve,
    kCacheGet,
    kContextObtain,
    kCandidatesBuild,
    kIndexBuild,
    kReduction,
    kPlan,
    kSerialize,
    kCachePut,
    kResponseLine,
    kFrameEncode,
    kEvaluate,  ///< the correctness check; not on the served path
    kLayers,
};

const char* const kLayerNames[kLayers] = {
    "net.frame.decode",   "io.json.parse",      "service.request.decode",
    "service.resolve",    "service.cache.get",  "core.context.obtain",
    "core.candidates.build", "core.index.build", "core.reduction",
    "core.plan",          "io.serialize.plan",  "service.cache.put",
    "service.response_line", "net.frame.encode", "core.evaluate",
};

struct Span {
    std::uint32_t request;  ///< spans of one request share it
    Layer layer;
    std::string detail;     ///< planner/bucket for core.plan
    double start_us;        ///< from the replay's start
    double dur_us;
};

std::uint64_t fnv(const std::string& s) {
    std::uint64_t h = kDigestSeed;
    digest_update(h, s);
    return h;
}

class Replayer {
  public:
    /// Serve one request payload the way the TCP server would; spans are
    /// recorded only while `spans_` is set.
    void serve(const std::string& payload, std::uint32_t request) {
        request_ = request;
        const std::string framed = net::encode_frame(payload, true);
        net::FrameDecoder decoder;
        std::optional<net::Frame> frame;
        span(kFrameDecode, [&] {
            decoder.feed(framed);
            frame = decoder.next();
        });
        Json doc;
        span(kJsonParse, [&] { doc = Json::parse(frame->payload); });
        service::PlanRequest req;
        span(kRequestDecode, [&] { req = service::request_from_json(doc); });

        std::shared_ptr<const uavdc::model::Instance> inst;
        core::PlannerOptions opts;
        std::uint64_t inst_fp = 0;
        std::uint64_t opts_fp = 0;
        std::uint64_t check = 0;
        std::string canon;
        span(kResolve, [&] {
            if (req.instance) {
                const auto fp =
                    core::PlanningContext::instance_fingerprint(*req.instance);
                auto& slot = registry_[fp];
                if (!slot) {
                    slot = std::make_shared<const uavdc::model::Instance>(
                        *req.instance);
                }
                inst = slot;
            } else {
                inst = registry_.at(*req.instance_ref);
            }
            opts = req.overrides.resolve(core::PlannerOptions{});
            inst_fp = core::PlanningContext::instance_fingerprint(*inst);
            canon = service::canonical_options(req.planner, opts);
            opts_fp = fnv(canon);  // stands in for the service's own hash
            check = service::instance_check_hash(*inst);
        });
        service::ResponseCache::Hit hit;
        span(kCacheGet, [&] {
            hit = cache_.get(inst_fp, opts_fp, canon, check, false);
        });
        service::PlanResponse resp;
        resp.id = req.id;
        resp.cache_hit = hit.found;
        resp.result_wire = hit.wire;
        if (!hit.found) {
            std::shared_ptr<const core::PlanningContext> ctx;
            span(kContextObtain, [&] {
                ctx = core::PlanningContext::obtain(*inst, opts.hover_config());
            });
            // Only the builds the planner itself triggers get a span of
            // their own, as on the served path: the prune-TSP heuristic
            // reads no candidates, alg1 reads the set alone, and alg2/alg3
            // read it plus its SoA and inverted index, or its reduction.
            const bool reads_candidates = req.planner != "benchmark";
            const bool reads_index =
                (req.planner == "alg2" || req.planner == "alg3");
            const bool reduced = reads_index && opts.reduction.enabled();
            if (reads_candidates) {
                const bool built = ctx->candidates_built();
                span(kCandidatesBuild, [&] { (void)ctx->candidates(); });
                if (!built && spans_ != nullptr) {
                    grid_cells_.push_back(ctx->candidates().grid_cells);
                    kept_.push_back(
                        static_cast<double>(ctx->candidates().size()));
                }
            }
            if (reads_index && !reduced) {
                span(kIndexBuild, [&] {
                    (void)ctx->candidate_soa();
                    (void)ctx->inverted_coverage();
                });
            }
            if (reduced) {
                span(kReduction, [&] {
                    const auto& red = ctx->reduced_candidates(opts.reduction);
                    if (red.stats.original > 0 && spans_ != nullptr) {
                        kept_ratio_.push_back(
                            static_cast<double>(red.stats.kept) /
                            static_cast<double>(red.stats.original));
                    }
                });
            }
            core::PlanResult res;
            std::string planner_name;
            span(kPlan, [&] {
                auto planner = core::make_planner(req.planner, opts);
                res = planner->plan(*ctx);
                planner_name = planner->name();
            }, req.planner + "." + size_bucket(*inst));
            if (spans_ != nullptr) {
                iterations_.push_back(
                    static_cast<double>(res.stats.iterations));
            }
            Json result;
            span(kSerialize, [&] {
                result["instance_fingerprint"] =
                    service::fingerprint_to_hex(inst_fp);
                result["planner"] = planner_name;
                result["plan"] = io::to_json(res.plan);
                Json stats;
                stats["runtime_s"] = res.stats.runtime_s;
                stats["iterations"] = res.stats.iterations;
                stats["candidates"] = res.stats.candidates;
                stats["planned_mb"] = res.stats.planned_mb;
                stats["planned_energy_j"] = res.stats.planned_energy_j;
                result["stats"] = std::move(stats);
            });
            // ResponseCache::put serializes the result tree (its dump) and
            // inserts; both are inside this span.
            span(kCachePut, [&] {
                resp.result_wire = cache_.put(inst_fp, opts_fp, canon, check,
                                              std::move(result));
            });
            span(kEvaluate,
                 [&] { (void)core::evaluate_plan(*inst, res.plan); });
        }
        std::string line;
        span(kResponseLine, [&] { line = service::response_line(resp); });
        span(kFrameEncode, [&] { (void)net::encode_frame(line, true); });
    }

    void set_recording(std::vector<Span>* spans) { spans_ = spans; }

    std::vector<double> grid_cells_;
    std::vector<double> kept_;
    std::vector<double> kept_ratio_;
    std::vector<double> iterations_;

  private:
    template <typename F>
    void span(Layer layer, F&& f, std::string detail = {}) {
        const auto t0 = Clock::now();
        f();
        const auto t1 = Clock::now();
        if (spans_ == nullptr) return;
        spans_->push_back(
            {request_, layer, std::move(detail),
             std::chrono::duration<double, std::micro>(t0 - origin_).count(),
             std::chrono::duration<double, std::micro>(t1 - t0).count()});
    }

    std::vector<Span>* spans_{nullptr};
    std::uint32_t request_{0};
    Clock::time_point origin_{Clock::now()};
    std::map<std::uint64_t, std::shared_ptr<const uavdc::model::Instance>>
        registry_;
    service::ResponseCache cache_{
        service::PlanService::Config{}.response_cache_capacity};
};

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

}  // namespace

ReplayResult replay(Workload& w, std::size_t requests, double budget_s,
                    const std::string& spans_path) {
    Replayer r;
    // Set-up runs untraced: it leaves the replay's registry, response cache
    // and the process-wide context cache as warm as the server's.
    for (std::size_t i = 0; i < w.setup.size(); ++i) {
        r.serve(w.setup[i].payload, static_cast<std::uint32_t>(i));
    }
    std::vector<Span> spans;
    r.set_recording(&spans);
    const auto ctx0 = core::PlanningContextCache::global().stats();
    const auto t0 = Clock::now();
    ReplayResult out;
    while (out.replayed < requests &&
           std::chrono::duration<double>(Clock::now() - t0).count() <
               budget_s) {
        r.serve(w.next_request().payload,
                static_cast<std::uint32_t>(out.replayed));
        ++out.replayed;
    }
    out.complete = out.replayed == requests;
    const auto ctx1 = core::PlanningContextCache::global().stats();

    std::map<std::string, std::vector<double>> durations;
    double attributed_us = 0.0;
    for (const auto& s : spans) {
        std::string name = kLayerNames[s.layer];
        if (s.layer == kPlan) name += "." + s.detail;
        durations[name].push_back(s.dur_us);
        if (s.layer != kEvaluate) attributed_us += s.dur_us;
    }
    const auto per_call = [&](const std::string& name, double scale) {
        return mean(durations[name]) * scale;
    };
    auto& m = out.metrics;
    m["net.frame.decode_us"] = per_call("net.frame.decode", 1.0);
    m["net.frame.encode_us"] = per_call("net.frame.encode", 1.0);
    m["io.json.parse_us"] = per_call("io.json.parse", 1.0);
    m["io.serialize.plan_us"] = per_call("io.serialize.plan", 1.0);
    m["service.request.decode_us"] = per_call("service.request.decode", 1.0);
    m["service.resolve_us"] = per_call("service.resolve", 1.0);
    m["service.cache.get_us"] = per_call("service.cache.get", 1.0);
    m["service.cache.put_us"] = per_call("service.cache.put", 1.0);
    m["service.response_line_us"] = per_call("service.response_line", 1.0);
    m["core.context.obtain_us"] = per_call("core.context.obtain", 1.0);
    const double obtains = static_cast<double>(
        (ctx1.hits - ctx0.hits) + (ctx1.misses - ctx0.misses));
    m["core.context.hit_ratio"] =
        obtains > 0 ? static_cast<double>(ctx1.hits - ctx0.hits) / obtains
                    : 0.0;
    m["core.candidates.build_ms"] = per_call("core.candidates.build", 1e-3);
    m["core.candidates.grid_cells"] = mean(r.grid_cells_);
    m["core.candidates.kept"] = mean(r.kept_);
    m["core.index.build_ms"] = per_call("core.index.build", 1e-3);
    m["core.reduction.ms"] = per_call("core.reduction", 1e-3);
    m["core.reduction.kept_ratio"] = mean(r.kept_ratio_);
    for (const char* p : {"alg1", "alg2", "alg3", "benchmark"}) {
        for (const char* b : {"small", "paper", "sparse"}) {
            m[std::string("core.plan.") + p + "." + b + "_ms"] =
                per_call(std::string("core.plan.") + p + "." + b, 1e-3);
        }
    }
    m["core.plan.iterations"] = mean(r.iterations_);
    m["core.evaluate_us"] = per_call("core.evaluate", 1.0);
    out.attributed_ms_per_req =
        out.replayed ? attributed_us * 1e-3 / static_cast<double>(out.replayed)
                     : 0.0;

    if (!spans_path.empty()) {
        // One JSON line per span; every span's parent is its request.
        std::ofstream f(spans_path);
        for (const auto& s : spans) {
            Json row;
            row["request"] = static_cast<std::size_t>(s.request);
            row["parent"] = "request";
            row["name"] = std::string(kLayerNames[s.layer]) +
                          (s.detail.empty() ? "" : "." + s.detail);
            row["start_us"] = s.start_us;
            row["dur_us"] = s.dur_us;
            f << row.dump() << '\n';
        }
    }
    return out;
}

}  // namespace e2e
