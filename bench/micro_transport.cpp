// Google-benchmark microbenchmarks for the TCP transport: frame codec
// throughput and loopback request/response round-trips through TcpServer
// and the sharding Router, warm-cache (the transport overhead ceiling —
// planner time is excluded by construction).
//
// With --baseline_out=<path> the binary instead runs the tracked transport
// cases and writes the uavdc-bench-transport-v1 schema (add --quick for
// the CI smoke variant checked by scripts/check_perf_regression.py).

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "uavdc/io/json.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/loadgen.hpp"
#include "uavdc/net/router.hpp"
#include "uavdc/net/tcp_server.hpp"
#include "uavdc/util/check.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/timer.hpp"

namespace {

using namespace uavdc;

core::PlannerOptions bench_options() {
    core::PlannerOptions opts;
    opts.delta_m = 25.0;
    opts.grasp_iterations = 3;
    return opts;
}

/// A TcpServer on its own thread bound to an ephemeral loopback port.
struct ServerHandle {
    std::atomic<bool> stop{false};
    int port{0};
    std::thread thread;

    ServerHandle() {
        std::promise<int> port_promise;
        auto port_future = port_promise.get_future();
        net::TcpServerConfig cfg;
        cfg.port = 0;
        cfg.service.workers = 2;
        cfg.service.defaults = bench_options();
        cfg.stop = &stop;
        cfg.poll_timeout_ms = 20;
        cfg.on_listening = [&port_promise](int p) {
            port_promise.set_value(p);
        };
        thread = std::thread([this, cfg = std::move(cfg)]() mutable {
            net::TcpServer server(std::move(cfg));
            (void)server.run();
        });
        port = port_future.get();
    }

    ~ServerHandle() {
        stop.store(true);
        if (thread.joinable()) thread.join();
    }
};

/// A static-mode Router over in-process shard servers, all on one thread
/// pool-free loopback setup: N ServerHandles plus the router thread.
struct RouterHandle {
    std::vector<std::unique_ptr<ServerHandle>> shards;
    std::atomic<bool> stop{false};
    int port{0};
    std::thread thread;

    explicit RouterHandle(int shard_count) {
        std::vector<int> endpoints;
        for (int i = 0; i < shard_count; ++i) {
            shards.push_back(std::make_unique<ServerHandle>());
            endpoints.push_back(shards.back()->port);
        }
        std::promise<int> port_promise;
        auto port_future = port_promise.get_future();
        net::RouterConfig cfg;
        cfg.port = 0;
        cfg.endpoints = std::move(endpoints);
        cfg.stop = &stop;
        cfg.poll_timeout_ms = 20;
        cfg.on_listening = [&port_promise](int p) {
            port_promise.set_value(p);
        };
        thread = std::thread([this, cfg = std::move(cfg)]() mutable {
            net::Router router(std::move(cfg));
            (void)router.run();
        });
        port = port_future.get();
    }

    ~RouterHandle() {
        stop.store(true);
        if (thread.joinable()) thread.join();
    }
};

net::LoadgenConfig loadgen_config(int port, int requests) {
    net::LoadgenConfig cfg;
    cfg.port = port;
    cfg.connections = 8;
    cfg.pipeline = 32;
    cfg.requests = requests;
    cfg.instances = 4;
    cfg.devices_lo = 10;
    cfg.devices_hi = 16;
    cfg.seed = 17;
    return cfg;
}

/// One measured loadgen pass; the caller primed the server, so every plan
/// request is a response-cache hit and elapsed_s is pure transport.
net::LoadgenResult measured_pass(const net::LoadgenConfig& cfg) {
    auto r = net::run_loadgen(cfg);
    UAVDC_CHECK(!r.timed_out && r.errors == 0 && r.received ==
                static_cast<std::uint64_t>(cfg.requests))
        << "loadgen pass failed: received=" << r.received
        << " errors=" << r.errors;
    return r;
}

void BM_FrameCodec(benchmark::State& state) {
    const std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
    for (auto _ : state) {
        net::FrameDecoder d;
        for (int i = 0; i < 64; ++i) {
            d.feed(net::encode_frame(payload, i % 2 == 0));
            while (auto f = d.next()) benchmark::DoNotOptimize(f->payload);
        }
        benchmark::DoNotOptimize(d.frames());
    }
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetBytesProcessed(state.iterations() * 64 * state.range(0));
}
BENCHMARK(BM_FrameCodec)->Arg(256)->Arg(4096);

void BM_TcpWarmRoundTrip(benchmark::State& state) {
    ServerHandle server;
    auto cfg = loadgen_config(server.port,
                              static_cast<int>(state.range(0)));
    (void)net::run_loadgen(cfg);  // prime the response cache
    for (auto _ : state) {
        benchmark::DoNotOptimize(measured_pass(cfg).elapsed_s);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TcpWarmRoundTrip)->Arg(1000)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Tracked baselines (uavdc-bench-transport-v1)
// ---------------------------------------------------------------------------

struct TransportBaseline {
    std::string name;
    int requests{0};
    double runtime_s{0.0};  ///< best-of-reps wall time (legacy metric)
    double rps{0.0};
    bench::TimingStats timing;
    bool has_latency{false};  ///< round-trip cases only; codec has none
    double p50_ms{0.0};
    double p95_ms{0.0};
    double p99_ms{0.0};
};

/// The frame codec alone: encode+decode `frames` mixed-framing frames.
TransportBaseline run_codec_case(const std::string& name, int frames) {
    TransportBaseline row;
    row.name = name;
    row.requests = frames;
    const std::string payload(512, 'x');
    const int reps = 3;
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        util::Timer timer;
        net::FrameDecoder d;
        for (int i = 0; i < frames; ++i) {
            d.feed(net::encode_frame(payload, i % 2 == 0));
            while (auto f = d.next()) benchmark::DoNotOptimize(f->payload);
        }
        UAVDC_CHECK(d.frames() == static_cast<std::uint64_t>(frames));
        samples.push_back(timer.seconds());
    }
    row.timing = bench::timing_stats(std::move(samples));
    row.runtime_s = row.timing.min_s;
    row.rps = row.runtime_s > 0.0 ? frames / row.runtime_s : 0.0;
    return row;
}

/// Warm loopback round-trips against `port` (server(s) already primed by
/// one throwaway pass before the reps).
TransportBaseline run_tcp_case(const std::string& name, int port,
                               int requests) {
    TransportBaseline row;
    row.name = name;
    row.requests = requests;
    const auto cfg = loadgen_config(port, requests);
    (void)net::run_loadgen(cfg);  // prime
    const int reps = 3;
    std::vector<double> samples;
    for (int r = 0; r < reps; ++r) {
        const auto pass = measured_pass(cfg);
        // Percentiles from the fastest rep: the tracked latency figure
        // should describe steady-state transport, not a one-off stall.
        if (samples.empty() || pass.elapsed_s < row.runtime_s) {
            row.runtime_s = pass.elapsed_s;
            row.p50_ms = pass.latency.quantile(0.50) * 1e3;
            row.p95_ms = pass.latency.quantile(0.95) * 1e3;
            row.p99_ms = pass.latency.quantile(0.99) * 1e3;
        }
        samples.push_back(pass.elapsed_s);
    }
    row.has_latency = true;
    row.timing = bench::timing_stats(std::move(samples));
    row.runtime_s = row.timing.min_s;
    row.rps = row.runtime_s > 0.0 ? requests / row.runtime_s : 0.0;
    return row;
}

std::vector<TransportBaseline> run_transport_baselines(bool quick) {
    // Sized so one codec repetition runs about as long as one
    // serve_tcp_warm pass (~11 ms quick, ~110 ms full on a 4-vCPU host).
    // At 50k frames (~5 ms) its share of the total read 1.10-1.99x the
    // baseline's on an unchanged tree, against a 2x gate. It must not be
    // sized much larger: a case holding share s of the file trips the 2x
    // share gate only at a 2(1-s)/(1-2s)x slowdown, and never at s >= 0.5.
    // At s ~ 1/3 each case trips at ~4x.
    const int frames = quick ? 125000 : 1250000;
    const int requests = quick ? 2000 : 20000;
    std::vector<TransportBaseline> rows;
    rows.push_back(run_codec_case("frame_codec", frames));
    {
        ServerHandle server;
        rows.push_back(
            run_tcp_case("serve_tcp_warm", server.port, requests));
    }
    {
        RouterHandle router(quick ? 2 : 4);
        rows.push_back(run_tcp_case(
            quick ? "router_warm_2shards" : "router_warm_4shards",
            router.port, requests));
    }
    return rows;
}

void write_transport_baselines(const std::string& path, bool quick,
                               const std::vector<TransportBaseline>& rows) {
    io::Json::Array cases;
    for (const auto& r : rows) {
        io::Json row;
        row["name"] = r.name;
        row["requests"] = r.requests;
        row["runtime_s"] = r.runtime_s;
        row["rps"] = r.rps;
        row["runtime_med_s"] = r.timing.median_s;
        row["runtime_std_s"] = r.timing.stddev_s;
        if (r.has_latency) {
            row["p50_ms"] = r.p50_ms;
            row["p95_ms"] = r.p95_ms;
            row["p99_ms"] = r.p99_ms;
        }
        cases.push_back(std::move(row));
    }
    io::Json doc;
    doc["schema"] = "uavdc-bench-transport-v1";
    doc["mode"] = quick ? "quick" : "full";
    doc["cases"] = io::Json(std::move(cases));
    io::save_json_file(path, doc);
}

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    if (flags.has("baseline_out")) {
        const bool quick = flags.get_bool("quick", false);
        const auto rows = run_transport_baselines(quick);
        for (const auto& r : rows) {
            std::printf("%-22s requests=%-6d runtime=%.4fs rps=%.1f\n",
                        r.name.c_str(), r.requests, r.runtime_s, r.rps);
        }
        write_transport_baselines(
            flags.get_string("baseline_out", "BENCH_transport.json"), quick,
            rows);
        return 0;
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
