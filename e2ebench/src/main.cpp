// e2e_driver: one run of one workload of the end-to-end benchmark.
//
//   e2e_driver run --workload=NAME --seed=N --seconds=S --server=PATH
//              [--setups=N] [--trace] [--spans=FILE]
//   e2e_driver digest --workload=NAME --seed=N
//
// `run` spawns the server, times the closed loop, checks every reply
// against an in-process reference plan and prints one JSON report line;
// with --trace it also replays the workload in-process for the per-layer
// figures. `digest` prints the request-stream digest and collected_gb for a
// seed without a server (the seed self-check).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <set>
#include <thread>

#include "e2e.hpp"
#include "uavdc/util/flags.hpp"

namespace {

using e2e::Json;

/// Threads computing reference plans (off the timed path).
constexpr int kReferenceThreads = 4;
/// Timed requests the seed self-check digests.
constexpr int kDigestRequests = 256;

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/// Round trip at the highest percentile with 10 samples beyond it: the
/// 11th-slowest of `rt`.
double eleventh_slowest(std::vector<double> rt) {
    if (rt.size() <= 10) {
        return rt.empty() ? 0.0 : *std::max_element(rt.begin(), rt.end());
    }
    const auto k = static_cast<std::ptrdiff_t>(rt.size() - 11);
    std::nth_element(rt.begin(), rt.begin() + k, rt.end());
    return rt[static_cast<std::size_t>(k)];
}

/// rt_tail_ms over the whole timed run, with the percentile it stands at
/// and the sample count next to it.
Json tail(const std::vector<double>& rt) {
    Json t;
    const std::size_t n = rt.size();
    t["value_ms"] = eleventh_slowest(rt);
    t["samples"] = n;
    t["beyond"] = std::min<std::size_t>(n, 10);
    t["percentile"] = n > 10 ? 100.0 * static_cast<double>(n - 10) /
                                   static_cast<double>(n)
                             : 100.0;
    return t;
}

double stat(const Json& stats, const char* group, const char* field) {
    if (stats.is_null()) return 0.0;
    return stats.at(group).number_or(field, 0.0);
}

/// Keys [0, collected_keys) exist once enough of the stream is generated.
void generate_collected_keys(e2e::Workload& w) {
    for (int guard = 0; w.keys.size() < w.collected_keys && guard < 100000;
         ++guard) {
        (void)w.next_request();
    }
}

double collected_gb(const e2e::Workload& w,
                    const std::vector<std::size_t>& keys,
                    const std::vector<e2e::Reference>& refs) {
    double mb = 0.0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] < w.collected_keys) mb += refs[i].collected_mb;
    }
    return mb / 1000.0;
}

int cmd_digest(const uavdc::util::Flags& flags) {
    auto w = e2e::make_workload(flags.get_string("workload", ""),
                                static_cast<std::uint64_t>(
                                    flags.get_int64("seed", 1)));
    std::uint64_t h = e2e::kDigestSeed;
    for (const auto& r : w.setup) e2e::digest_update(h, r.payload);
    for (int i = 0; i < kDigestRequests; ++i) {
        e2e::digest_update(h, w.next_request().payload);
    }
    generate_collected_keys(w);
    std::vector<std::size_t> keys(w.collected_keys);
    for (std::size_t k = 0; k < keys.size(); ++k) keys[k] = k;
    const auto refs = e2e::compute_references(w, keys, kReferenceThreads);
    bool feasible = true;
    for (const auto& r : refs) feasible = feasible && r.energy_feasible;
    Json out;
    out["digest"] = hex(h);
    out["collected_gb"] = collected_gb(w, keys, refs);
    out["feasible"] = feasible;
    std::cout << out.dump() << "\n";
    return 0;
}

int cmd_run(const uavdc::util::Flags& flags) {
    const std::string name = flags.get_string("workload", "");
    const auto seed = static_cast<std::uint64_t>(flags.get_int64("seed", 1));
    e2e::RunConfig cfg;
    cfg.server = flags.get_string("server", "");
    cfg.seconds = flags.get_double("seconds", 10.0);

    auto w = e2e::make_workload(name, seed);
    cfg.setups = flags.get_int("setups", w.setups);
    const e2e::RunResult rr = e2e::run_timed(w, cfg);

    // Correctness gate: every distinct reply of every key byte-equals the
    // key's in-process reference plan, which must be energy feasible.
    generate_collected_keys(w);
    std::set<std::size_t> key_set;
    for (const auto& [k, _] : rr.replies) key_set.insert(k);
    for (std::size_t k = 0; k < w.collected_keys; ++k) key_set.insert(k);
    const std::vector<std::size_t> keys(key_set.begin(), key_set.end());
    const auto refs = e2e::compute_references(w, keys, kReferenceThreads);
    std::uint64_t checked = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t infeasible = 0;
    std::uint64_t divergent = 0;
    Json problems{Json::Array{}};
    for (std::size_t i = 0; i < keys.size(); ++i) {
        const auto it = rr.replies.find(keys[i]);
        if (it == rr.replies.end()) continue;
        if (it->second.results.size() > 1) ++divergent;
        if (!refs[i].energy_feasible) ++infeasible;
        for (const auto& result : it->second.results) {
            ++checked;
            const std::string plan = Json::parse(result).at("plan").dump();
            if (plan != refs[i].plan_json) {
                ++mismatches;
                if (problems.as_array().size() < 5) {
                    problems.as_array().push_back(
                        "key " + std::to_string(keys[i]) + " (" +
                        w.keys[keys[i]].planner +
                        "): served plan differs from the reference");
                }
            }
        }
    }

    std::uint64_t failed = 0;
    Json failures{Json::Object{}};
    for (const auto& [why, n] : rr.failures) {
        failed += n;
        failures[why] = static_cast<std::size_t>(n);
    }
    const std::uint64_t replies = rr.ok + failed -
                                  (rr.failures.count("unanswered")
                                       ? rr.failures.at("unanswered")
                                       : 0);
    const double mean_rt = mean(rr.rt_ms);

    // Throughput, median latency and CPU per reply are taken per window of
    // the timed phase and reported as the median over the windows, so a
    // few seconds of host contention move one window, not the figure.
    const double window_s =
        cfg.seconds / static_cast<double>(rr.windows.size());
    std::vector<double> w_rps;
    std::vector<double> w_p50;
    std::vector<double> w_cpu;
    for (const auto& win : rr.windows) {
        w_rps.push_back(static_cast<double>(win.ok) / window_s);
        w_p50.push_back(median(win.rt_ms));
        w_cpu.push_back(win.replies ? win.server_cpu_s * 1e3 /
                                          static_cast<double>(win.replies)
                                    : 0.0);
    }
    Json m;
    m["rps"] = median(w_rps);
    m["rt_p50_ms"] = median(w_p50);
    const Json rt_tail = tail(rr.rt_ms);
    m["rt_tail_ms"] = rt_tail.at("value_ms");
    m["failed_frac"] = rr.attempted ? static_cast<double>(failed) /
                                          static_cast<double>(rr.attempted)
                                    : 1.0;
    m["setup_s"] = median(rr.setup_s);
    m["cpu_ms_per_req"] = median(w_cpu);
    m["peak_rss_mb"] = rr.server_peak_rss_mb;
    m["collected_gb"] = collected_gb(w, keys, refs);

    // Per-layer figures the timed run itself measures.
    Json layers;
    layers["net.bytes_in_per_req"] =
        rr.attempted ? static_cast<double>(rr.bytes_out) /
                           static_cast<double>(rr.attempted)
                     : 0.0;
    layers["net.bytes_out_per_req"] =
        replies ? static_cast<double>(rr.bytes_in) /
                      static_cast<double>(replies)
                : 0.0;
    layers["service.queue_ms"] = median(rr.queue_ms);
    layers["service.exec_ms"] = median(rr.exec_ms);
    const double hits = stat(rr.stats_after, "cache", "hits") -
                        stat(rr.stats_before, "cache", "hits");
    const double misses = stat(rr.stats_after, "cache", "misses") -
                          stat(rr.stats_before, "cache", "misses");
    layers["service.cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    // Keys with a reply, set-up keys included, are the distinct keys asked.
    layers["service.redundant_plans"] =
        stat(rr.stats_after, "cache", "misses") -
        static_cast<double>(rr.replies.size());
    layers["service.divergent_replies"] = static_cast<std::size_t>(divergent);

    Json report;
    report["workload"] = name;
    report["seed"] = static_cast<std::size_t>(seed);
    report["seconds"] = cfg.seconds;
    report["server_workers"] = w.workers;
    report["connections"] = w.connections;
    report["in_flight_per_connection"] = w.depth;
    report["in_flight_mean"] = rr.mean_in_flight;
    report["loop"] = "closed";
    report["correct"] = mismatches == 0 && infeasible == 0 && failed == 0 &&
                        !rr.stats_after.is_null() && rr.ok > 0;
    Json gate;
    gate["keys"] = keys.size();
    gate["replies_checked"] = static_cast<std::size_t>(checked);
    gate["mismatches"] = static_cast<std::size_t>(mismatches);
    gate["infeasible"] = static_cast<std::size_t>(infeasible);
    gate["problems"] = problems;
    report["gate"] = gate;
    report["attempted"] = static_cast<std::size_t>(rr.attempted);
    report["failed"] = static_cast<std::size_t>(failed);
    report["failures"] = failures;
    report["rt_tail"] = rt_tail;
    report["rt_mean_ms"] = mean_rt;
    const auto as_array = [](const std::vector<double>& v) {
        Json a{Json::Array{}};
        for (const double x : v) a.as_array().push_back(x);
        return a;
    };
    report["setup_runs_s"] = as_array(rr.setup_s);
    Json windows;
    windows["seconds"] = window_s;
    windows["rps"] = as_array(w_rps);
    windows["rt_p50_ms"] = as_array(w_p50);
    windows["cpu_ms_per_req"] = as_array(w_cpu);
    report["windows"] = windows;
    report["server_cpu_ms_per_reply_whole_run"] =
        replies ? rr.server_cpu_s * 1e3 / static_cast<double>(replies) : 0.0;
    const double share =
        rr.elapsed_s > 0 ? rr.client_cpu_s / rr.elapsed_s : 0.0;
    Json client;
    client["cpu_share"] = share;
    client["saturated"] = share >= 0.9;
    report["client"] = client;
    report["metrics"] = m;

    if (flags.get_bool("trace", false)) {
        // Replay the same stream, from a fresh copy of the workload.
        auto fresh = e2e::make_workload(name, seed);
        const auto rep = e2e::replay(fresh, fresh.replay_requests, 60.0,
                                     flags.get_string("spans", ""));
        for (const auto& [k, v] : rep.metrics) layers[k] = v;
        layers["trace.unattributed_frac"] =
            mean_rt > 0 ? 1.0 - rep.attributed_ms_per_req / mean_rt : 0.0;
        Json tr;
        tr["replayed"] = static_cast<std::size_t>(rep.replayed);
        tr["complete"] = rep.complete;
        tr["attributed_ms_per_req"] = rep.attributed_ms_per_req;
        report["trace"] = tr;
    }
    report["per_layer"] = layers;
    std::cout << report.dump() << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        const uavdc::util::Flags flags(argc, argv);
        const auto& pos = flags.positional();
        const std::string mode = pos.empty() ? "" : pos[0];
        if (mode == "run") return cmd_run(flags);
        if (mode == "digest") return cmd_digest(flags);
        std::cerr << "usage: e2e_driver run|digest --workload=NAME "
                     "--seed=N [...]\n";
        return 2;
    } catch (const std::exception& ex) {
        std::cerr << "e2e_driver: " << ex.what() << "\n";
        return 2;
    }
}
