#pragma once

// End-to-end plan-service benchmark: workload generation, the closed-loop
// TCP client, the correctness gate and the traced in-process replay.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "uavdc/core/registry.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/model/instance.hpp"
#include "uavdc/service/request.hpp"

namespace e2e {

using uavdc::io::Json;

/// One distinct response-cache key: (instance, planner, option overrides).
/// The server resolves overrides against its defaults, which are the
/// library defaults `uavdc serve` starts with.
struct KeySpec {
    std::size_t instance{0};  ///< index into Workload::instances
    std::string planner;
    uavdc::service::PlannerOverrides overrides;

    [[nodiscard]] uavdc::core::PlannerOptions resolved() const {
        return overrides.resolve(uavdc::core::PlannerOptions{});
    }
};

/// One request on the wire, unframed, plus the key it asks for.
struct Request {
    std::string payload;
    std::size_t key{0};
    /// Second send of a key whose first send was the previous request: the
    /// client puts it on a different connection, back to back.
    bool duplicate{false};
};

/// A named workload. Every input derives from the seed alone; the timed
/// stream is produced in order by `next`, so a request stream is a pure
/// function of (workload, seed).
struct Workload {
    std::string name;
    int workers{1};      ///< `uavdc serve --workers`
    int connections{1};  ///< client connections
    int depth{1};        ///< requests in flight per connection
    int setups{3};       ///< server spawns per run; setup_s is their median
    std::vector<uavdc::model::Instance> instances;
    /// `instance_fingerprint` of each instance, what a reference carries.
    std::vector<std::uint64_t> fingerprints;
    std::vector<KeySpec> keys;
    std::vector<Request> setup;  ///< registration + priming, sent first
    /// collected_gb sums the reference plans of keys [0, collected_keys).
    std::size_t collected_keys{0};
    /// Timed requests the traced run replays.
    std::size_t replay_requests{0};
    std::function<Request(Workload&)> next;
    std::size_t generated{0};  ///< timed requests generated so far

    Request next_request() {
        Request r = next(*this);
        ++generated;
        return r;
    }
};

[[nodiscard]] std::vector<std::string> workload_names();
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// Request document for `key`: the instance inline (registration) or by
/// fingerprint reference.
[[nodiscard]] std::string request_payload(const Workload& w,
                                          std::size_t key,
                                          const std::string& id,
                                          bool inline_instance);

/// Size bucket a plan span is reported under: "sparse" (field side above
/// 2 km), "small" (< 300 devices) or "paper".
[[nodiscard]] std::string size_bucket(const uavdc::model::Instance& inst);

/// FNV-1a over bytes, for stream digests.
void digest_update(std::uint64_t& h, const std::string& bytes);
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;

/// Fields the client pulls out of a response envelope without a full parse.
struct Envelope {
    std::string id;
    std::string status;
    double queue_ms{0.0};
    double exec_ms{0.0};
    std::size_t result_pos{0};  ///< `result` value span in the line
    std::size_t result_len{0};
};
[[nodiscard]] bool parse_envelope(const std::string& line, Envelope& env);

/// Every reply one key received: distinct result byte strings (a key whose
/// replies are not byte-identical has more than one).
struct KeyReplies {
    std::vector<std::string> results;
    void add(const std::string& line, const Envelope& env);
};

/// One equal slice of the timed phase, by reply arrival time.
struct Window {
    std::uint64_t ok{0};
    std::uint64_t replies{0};  ///< ok or not
    double server_cpu_s{0.0};
    std::vector<double> rt_ms;  ///< ok replies
};

/// Outcome of the timed closed-loop run against a live server.
struct RunResult {
    std::vector<double> setup_s;  ///< one per server spawn
    std::uint64_t attempted{0};
    std::uint64_t ok{0};
    std::map<std::string, std::uint64_t> failures;  ///< by reason
    double elapsed_s{0.0};
    std::vector<Window> windows;  ///< RunConfig::windows slices
    std::vector<double> rt_ms;    ///< every ok reply, arrival order
    std::vector<double> queue_ms;
    std::vector<double> exec_ms;
    double server_cpu_s{0.0};
    double server_peak_rss_mb{0.0};
    double client_cpu_s{0.0};
    /// Requests in flight after each dispatch round, averaged: the depth
    /// the closed loop actually held.
    double mean_in_flight{0.0};
    std::uint64_t bytes_out{0};  ///< request bytes written
    std::uint64_t bytes_in{0};   ///< response bytes read
    Json stats_before;           ///< `stats` verb before the timed phase
    Json stats_after;            ///< and after it drained
    std::map<std::size_t, KeyReplies> replies;  ///< by key
};

struct RunConfig {
    std::string server;  ///< path of the `uavdc` executable
    double seconds{10.0};
    int windows{5};  ///< throughput, latency and CPU are medians over these
    int setups{3};
    double request_timeout_s{30.0};
};

/// Spawn the server `cfg.setups` times (timing each set-up), run the timed
/// closed loop against the last one, then stop it.
[[nodiscard]] RunResult run_timed(Workload& w, const RunConfig& cfg);

/// Reference plan of one key, computed in-process.
struct Reference {
    std::string plan_json;
    double collected_mb{0.0};
    bool energy_feasible{false};
};
[[nodiscard]] std::vector<Reference> compute_references(
    const Workload& w, const std::vector<std::size_t>& keys, int threads);

/// Per-layer figures from replaying requests through the library's public
/// functions in-process: `w`'s set-up untraced, then its next `requests`
/// timed requests traced (stopping early after `budget_s`). Spans go to
/// `spans_path` as JSON lines when it is non-empty.
struct ReplayResult {
    std::map<std::string, double> metrics;
    double attributed_ms_per_req{0.0};  ///< served-path spans per request
    std::uint64_t replayed{0};
    bool complete{false};  ///< all `requests` replayed within the budget
};
[[nodiscard]] ReplayResult replay(Workload& w, std::size_t requests,
                                  double budget_s,
                                  const std::string& spans_path);

}  // namespace e2e
