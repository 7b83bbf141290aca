// uavdc — command-line front end for the library.
//
//   uavdc generate --preset=paper|smart-city|disaster|farm|scale-large
//                  [--devices=N] [--side=M] [--energy=J] [--seed=S]
//                  --out=instance.json
//   uavdc plan     --instance=instance.json --algo=alg1|alg2|alg3|benchmark
//                  [--delta=10] [--k=2] [--reduce] [--out=plan.json]
//   uavdc eval     --instance=instance.json --plan=plan.json [--json]
//   uavdc sim      --instance=instance.json --plan=plan.json [--trace]
//   uavdc render   --instance=instance.json [--plan=plan.json]
//                  --out=field.svg
//
// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "uavdc/core/compare.hpp"
#include "uavdc/conformance/conformance.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/metrics.hpp"
#include "uavdc/core/planning_context.hpp"
#include "uavdc/core/registry.hpp"
#include "uavdc/core/sensitivity.hpp"
#include "uavdc/core/validate_plan.hpp"
#include "uavdc/io/serialize.hpp"
#include "uavdc/io/svg.hpp"
#include "uavdc/net/loadgen.hpp"
#include "uavdc/net/router.hpp"
#include "uavdc/net/signal.hpp"
#include "uavdc/net/tcp_server.hpp"
#include "uavdc/service/jsonl.hpp"
#include "uavdc/service/workload_gen.hpp"
#include "uavdc/sim/monte_carlo.hpp"
#include "uavdc/sim/simulator.hpp"
#include "uavdc/util/flags.hpp"
#include "uavdc/util/table.hpp"
#include "uavdc/util/thread_pool.hpp"
#include "uavdc/workload/presets.hpp"

namespace {

using namespace uavdc;

int usage() {
    std::cerr <<
        "usage: uavdc <command> [flags]\n"
        "  generate  --preset=paper|smart-city|disaster|farm|scale-large\n"
        "            --out=FILE\n"
        "            [--devices=N] [--side=M] [--energy=J] [--seed=S]\n"
        "  plan      --instance=FILE --algo=alg1|alg2|alg3|benchmark\n"
        "            [--delta=10] [--k=2] [--max-candidates=4000]\n"
        "            [--scoring=incremental|reference]\n"
        "            [--reduce] [--reduce-coarsen=F] [--reduce-band=M]\n"
        "            [--reduce-consolidate=N] [--out=FILE]\n"
        "  eval      --instance=FILE --plan=FILE [--json]\n"
        "  sim       --instance=FILE --plan=FILE [--trace]\n"
        "  validate  --instance=FILE --plan=FILE\n"
        "  compare   --instance=FILE [--algos=a,b,...] [--delta=10]\n"
        "            [--json]\n"
        "  robustness --instance=FILE --plan=FILE [--trials=64]\n"
        "            [--wind-max=4] [--taper-max=0.5]\n"
        "  conformance [--instances=100] [--seed=S] [--algos=a,b,...]\n"
        "            [--tol=1e-6] [--no-stress] [--max-failures=8]\n"
        "            [--reduction] [--reduction-tol=0.01]\n"
        "  sensitivity --instance=FILE [--algo=alg2] [--perturb=0.2]\n"
        "  render    --instance=FILE [--plan=FILE] --out=FILE.svg\n"
        "  serve     [--in=FILE] [--out=FILE] [--workers=4] [--queue=256]\n"
        "            [--cache=512] [--delta=10] [--k=2]\n"
        "            [--max-candidates=4000] [--reduce]\n"
        "            [--reduce-coarsen=F] [--reduce-band=M]\n"
        "            [--reduce-consolidate=N] [--stats] [--summary]\n"
        "            [--tcp --host=127.0.0.1 --port=0 [--announce]\n"
        "             [--repo=FILE] [--max-frame=BYTES]\n"
        "             [--write-limit=BYTES]]\n"
        "  route     --shards=N | --endpoints=p1,p2,...\n"
        "            [--host=127.0.0.1] [--port=0] [--announce]\n"
        "            [--shard-workers=W] [--repo-dir=DIR]\n"
        "  loadgen   --connect=HOST:PORT | --port=P [--connections=8]\n"
        "            [--pipeline=32] [--requests=10000] [--instances=4]\n"
        "            [--seed=7] [--algos=a,b,...] [--newline]\n"
        "            [--capture-out=FILE] [--emit-jsonl=FILE]\n"
        "  serve-gen [--requests=200] [--instances=6] [--seed=1]\n"
        "            [--algos=a,b,...] [--no-control] [--out=FILE]\n";
    return 1;
}

workload::GeneratorConfig preset_by_name(const std::string& name) {
    if (name == "paper") return workload::paper_default();
    if (name == "smart-city") return workload::smart_city();
    if (name == "disaster") return workload::disaster_response();
    if (name == "farm") return workload::farm_monitoring();
    if (name == "scale-large") return workload::scale_large();
    throw std::invalid_argument("unknown preset '" + name + "'");
}

/// Shared --reduce* flag plumbing for plan/serve (alg2/alg3 only; the
/// other planners ignore the reduction config).
void apply_reduction_flags(const util::Flags& flags,
                           core::PlannerOptions& opts) {
    if (flags.get_bool("reduce", false)) opts.reduction.dominance = true;
    opts.reduction.coarsen_factor =
        flags.get_int("reduce-coarsen", opts.reduction.coarsen_factor);
    opts.reduction.refine_band_m =
        flags.get_double("reduce-band", opts.reduction.refine_band_m);
    opts.reduction.consolidate_to =
        flags.get_int("reduce-consolidate", opts.reduction.consolidate_to);
}

int cmd_generate(const util::Flags& flags) {
    auto cfg = preset_by_name(flags.get_string("preset", "paper"));
    if (flags.has("devices")) {
        cfg.num_devices = flags.get_int("devices", cfg.num_devices);
    }
    if (flags.has("side")) {
        cfg.region_w = cfg.region_h = flags.get_double("side", cfg.region_w);
    }
    if (flags.has("energy")) {
        cfg.uav.energy_j = flags.get_double("energy", cfg.uav.energy_j);
    }
    const auto inst = workload::generate(
        cfg, static_cast<std::uint64_t>(flags.get_int64("seed", 1)));
    const std::string out = flags.get_string("out", "");
    if (out.empty()) {
        std::cerr << "generate: --out is required\n";
        return 1;
    }
    io::save_instance(out, inst);
    std::cout << "wrote " << out << ": " << inst.num_devices()
              << " devices, "
              << util::Table::fmt(inst.total_data_mb() / 1000.0, 2)
              << " GB stored\n";
    return 0;
}

int cmd_plan(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    core::PlannerOptions opts;
    opts.delta_m = flags.get_double("delta", opts.delta_m);
    opts.k = flags.get_int("k", opts.k);
    opts.max_candidates =
        flags.get_int("max-candidates", opts.max_candidates);
    const std::string scoring =
        flags.get_string("scoring", core::to_string(opts.scoring));
    if (const auto engine = core::scoring_engine_from_string(scoring)) {
        opts.scoring = *engine;
    } else {
        throw std::runtime_error(
            "unknown scoring '" + scoring +
            "' (expected incremental|reference)");
    }
    apply_reduction_flags(flags, opts);
    auto planner =
        core::make_planner(flags.get_string("algo", "alg3"), opts);
    // Shared precompute: repeated plans of the same instance (any algo with
    // matching grid options) reuse the cached candidate set.
    const auto ctx = core::PlanningContext::obtain(inst, opts.hover_config());
    const auto res = planner->plan(*ctx);
    const auto ev = core::evaluate_plan(inst, res.plan);
    std::cout << planner->name() << ": " << res.plan.num_stops()
              << " stops, "
              << util::Table::fmt(ev.collected_mb / 1000.0, 2) << " GB ("
              << util::Table::fmt(
                     100.0 * ev.collected_mb /
                         std::max(inst.total_data_mb(), 1e-9),
                     1)
              << "% of stored), energy "
              << util::Table::fmt(ev.energy_j, 0) << " / "
              << util::Table::fmt(inst.uav.energy_j, 0) << " J, planned in "
              << util::Table::fmt(res.stats.runtime_s * 1e3, 1) << " ms\n";
    const std::string out = flags.get_string("out", "");
    if (!out.empty()) {
        io::save_plan(out, res.plan);
        std::cout << "wrote " << out << "\n";
    }
    return 0;
}

int cmd_eval(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    const auto plan = io::load_plan(flags.get_string("plan", ""));
    const auto ev = core::evaluate_plan(inst, plan);
    const auto m = core::compute_metrics(inst, plan);
    if (flags.get_bool("json", false)) {
        io::Json doc = io::to_json(ev);
        doc["jain_fairness"] = m.jain_fairness;
        doc["hover_fraction"] = m.hover_fraction;
        doc["energy_per_gb_j"] = m.energy_per_gb_j;
        doc["mean_drain_latency_s"] = m.mean_drain_latency_s;
        std::cout << doc.dump(2) << "\n";
        return 0;
    }
    util::Table t({"metric", "value"});
    t.add_row({"collected", util::Table::fmt(ev.collected_mb / 1000.0, 3) +
                                " GB (" +
                                util::Table::fmt(100.0 * m.collected_fraction,
                                                 1) +
                                "%)"});
    t.add_row({"energy", util::Table::fmt(ev.energy_j, 0) + " J (" +
                             (ev.energy_feasible ? "feasible"
                                                 : "INFEASIBLE") +
                             ")"});
    t.add_row({"tour time", util::Table::fmt(ev.tour_time_s, 1) + " s"});
    t.add_row({"tour length", util::Table::fmt(m.tour_length_m, 0) + " m"});
    t.add_row({"hover fraction", util::Table::fmt(m.hover_fraction, 3)});
    t.add_row({"devices drained",
               std::to_string(ev.devices_drained) + " / " +
                   std::to_string(inst.num_devices())});
    t.add_row({"devices missed", std::to_string(m.devices_missed)});
    t.add_row({"Jain fairness", util::Table::fmt(m.jain_fairness, 3)});
    t.add_row({"mean drain latency",
               util::Table::fmt(m.mean_drain_latency_s, 1) + " s"});
    t.add_row({"energy per GB",
               util::Table::fmt(m.energy_per_gb_j, 0) + " J"});
    t.print(std::cout);
    return 0;
}

int cmd_sim(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    const auto plan = io::load_plan(flags.get_string("plan", ""));
    sim::SimConfig cfg;
    cfg.record_trace = flags.get_bool("trace", false);
    const auto rep = sim::Simulator(cfg).run(inst, plan);
    std::cout << (rep.completed ? "tour completed" : "TOUR TRUNCATED")
              << (rep.battery_depleted ? " (battery depleted)" : "") << "\n"
              << "  collected : "
              << util::Table::fmt(rep.collected_mb / 1000.0, 3) << " GB\n"
              << "  duration  : " << util::Table::fmt(rep.duration_s, 1)
              << " s (" << util::Table::fmt(rep.hover_s, 1) << " hover / "
              << util::Table::fmt(rep.travel_s, 1) << " travel)\n"
              << "  energy    : " << util::Table::fmt(rep.energy_used_j, 0)
              << " / " << util::Table::fmt(inst.uav.energy_j, 0) << " J\n"
              << "  stops     : " << rep.stops_visited << " / "
              << plan.stops.size() << "\n";
    if (cfg.record_trace) {
        for (const auto& e : rep.trace) {
            std::cout << "  " << e.to_string() << "\n";
        }
    }
    return rep.completed ? 0 : 2;
}

int cmd_validate(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    const auto plan = io::load_plan(flags.get_string("plan", ""));
    const auto val = core::validate_plan(inst, plan);
    for (const auto& v : val.errors) {
        std::cout << "ERROR   [" << core::to_string(v.kind) << "] stop "
                  << v.stop << ": " << v.detail << "\n";
    }
    for (const auto& v : val.warnings) {
        std::cout << "warning [" << core::to_string(v.kind) << "] stop "
                  << v.stop << ": " << v.detail << "\n";
    }
    if (val.ok()) {
        std::cout << "plan OK (" << plan.stops.size() << " stops, "
                  << val.warnings.size() << " warnings)\n";
        return 0;
    }
    return 2;
}

int cmd_compare(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    core::PlannerOptions opts;
    opts.delta_m = flags.get_double("delta", opts.delta_m);
    opts.k = flags.get_int("k", opts.k);
    std::vector<std::string> names;
    {
        std::stringstream ss(flags.get_string("algos", ""));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) names.push_back(tok);
        }
    }
    // One whole plan per worker of the process-wide pool; each plan runs
    // serially on its worker.
    const auto results =
        core::compare_planners(inst, opts, names, &util::global_pool());
    if (flags.get_bool("json", false)) {
        io::Json::Array arr;
        for (const auto& r : results) {
            io::Json row = io::to_json(r.evaluation);
            row["planner"] = r.name;
            row["runtime_s"] = r.runtime_s;
            row["jain_fairness"] = r.metrics.jain_fairness;
            arr.push_back(std::move(row));
        }
        io::Json doc;
        doc["results"] = io::Json(std::move(arr));
        std::cout << doc.dump(2) << "\n";
        return 0;
    }
    util::Table t({"planner", "collected [GB]", "of stored", "stops",
                   "fairness", "time [ms]"});
    const double total = std::max(inst.total_data_mb(), 1e-9);
    for (const auto& r : results) {
        t.add_row({r.name,
                   util::Table::fmt(r.evaluation.collected_mb / 1000.0, 2),
                   util::Table::fmt(
                       100.0 * r.evaluation.collected_mb / total, 1) + "%",
                   std::to_string(r.plan.num_stops()),
                   util::Table::fmt(r.metrics.jain_fairness, 3),
                   util::Table::fmt(r.runtime_s * 1e3, 1)});
    }
    t.print(std::cout);
    return 0;
}

int cmd_robustness(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    const auto plan = io::load_plan(flags.get_string("plan", ""));
    sim::DisturbanceModel model;
    model.wind_max_mps = flags.get_double("wind-max", model.wind_max_mps);
    model.taper_max = flags.get_double("taper-max", model.taper_max);
    model.early_departure = flags.get_bool("early-departure", false);
    const int trials = flags.get_int("trials", 64);
    const auto rep = sim::evaluate_robustness(inst, plan, model, trials);
    util::Table t({"metric", "value"});
    t.add_row({"trials", std::to_string(rep.trials)});
    t.add_row({"completion rate",
               util::Table::fmt(100.0 * rep.completion_rate, 1) + "%"});
    t.add_row({"mean volume", util::Table::fmt(rep.mean_gb, 2) + " GB"});
    t.add_row({"p10 / p90",
               util::Table::fmt(rep.p10_gb, 2) + " / " +
                   util::Table::fmt(rep.p90_gb, 2) + " GB"});
    t.add_row({"worst case", util::Table::fmt(rep.worst_gb, 2) + " GB"});
    t.add_row({"mean energy",
               util::Table::fmt(rep.mean_energy_j, 0) + " J"});
    t.print(std::cout);
    return rep.completion_rate >= 0.999 ? 0 : 2;
}

int cmd_conformance(const util::Flags& flags) {
    conformance::ConformanceFuzzConfig cfg;
    cfg.instances = flags.get_int("instances", cfg.instances);
    cfg.seed = static_cast<std::uint64_t>(
        flags.get_int64("seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.tol = flags.get_double("tol", cfg.tol);
    cfg.stress_energy = !flags.get_bool("no-stress", false);
    cfg.max_failures = flags.get_int("max-failures", cfg.max_failures);
    cfg.check_reduction = flags.get_bool("reduction", false);
    cfg.reduction_rel_tol =
        flags.get_double("reduction-tol", cfg.reduction_rel_tol);
    cfg.pool = &util::global_pool();  // fuzz instances concurrently
    {
        std::stringstream ss(flags.get_string("algos", ""));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) cfg.planners.push_back(tok);
        }
    }
    const auto summary = conformance::fuzz_conformance(cfg);
    util::Table t({"metric", "value"});
    t.add_row({"instances", std::to_string(summary.instances)});
    t.add_row({"plans cross-checked",
               std::to_string(summary.plans_checked)});
    t.add_row({"mismatched fields", std::to_string(summary.mismatches)});
    t.add_row({"failing cases", std::to_string(summary.failures.size())});
    t.print(std::cout);
    for (const auto& f : summary.failures) {
        std::cout << "FAIL planner=" << f.planner << " instance-seed="
                  << f.instance_seed
                  << (f.stressed ? " (stressed battery)" : "") << "\n";
        for (const auto& m : f.mismatches) {
            std::cout << "  [" << conformance::to_string(m.check) << "] "
                      << m.field << ": expected " << m.expected << ", got "
                      << m.actual << " — " << m.detail << "\n";
        }
    }
    if (summary.ok()) {
        std::cout << "conformance OK: evaluator, simulator, and energy "
                     "accounting agree\n";
        return 0;
    }
    return 2;
}

int cmd_sensitivity(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    core::PlannerOptions opts;
    opts.delta_m = flags.get_double("delta", opts.delta_m);
    opts.k = flags.get_int("k", opts.k);
    const auto entries = core::analyze_sensitivity(
        inst, flags.get_string("algo", "alg2"), opts,
        flags.get_double("perturb", 0.2));
    util::Table t({"parameter", "baseline", "-p [GB]", "+p [GB]",
                   "elasticity"});
    for (const auto& e : entries) {
        t.add_row({e.parameter, util::Table::fmt(e.baseline_value, 1),
                   util::Table::fmt(e.down_gb, 2),
                   util::Table::fmt(e.up_gb, 2),
                   util::Table::fmt(e.elasticity, 3)});
    }
    t.print(std::cout);
    return 0;
}

/// Every status counter of `stats`; together they sum to `completed`.
std::string status_counts(const service::ServiceStats& stats) {
    std::ostringstream os;
    os << "ok=" << stats.ok << " overloaded=" << stats.rejected_overload
       << " deadline=" << stats.deadline_exceeded
       << " bad_request=" << stats.rejected_bad_request
       << " shutdown=" << stats.rejected_shutdown
       << " errors=" << stats.internal_errors
       << " completed=" << stats.completed << "; cache hit rate "
       << util::Table::fmt(100.0 * stats.cache_hit_rate(), 1) << "%";
    return os.str();
}

int cmd_serve_tcp(const util::Flags& flags,
                  const service::PlanService::Config& svc_cfg) {
    auto& sig = net::ShutdownSignal::install();
    net::TcpServerConfig cfg;
    cfg.host = flags.get_string("host", cfg.host);
    cfg.port = flags.get_int("port", 0);
    cfg.service = svc_cfg;
    cfg.repo_path = flags.get_string("repo", "");
    cfg.max_frame_bytes = static_cast<std::size_t>(flags.get_int64(
        "max-frame", static_cast<std::int64_t>(cfg.max_frame_bytes)));
    cfg.write_queue_limit = static_cast<std::size_t>(flags.get_int64(
        "write-limit", static_cast<std::int64_t>(cfg.write_queue_limit)));
    cfg.stop = &sig.flag();
    cfg.wake_fd = sig.wake_fd();
    if (flags.get_bool("announce", false)) {
        // Machine handshake for parents that spawned us on --port=0: the
        // first stdout line is `LISTENING <port>`, nothing else precedes it.
        cfg.on_listening = [](int port) {
            std::cout << "LISTENING " << port << "\n" << std::flush;
        };
    } else {
        cfg.on_listening = [](int port) {
            std::cerr << "serve: listening on tcp port " << port << "\n";
        };
    }

    net::TcpServer server(std::move(cfg));
    const auto res = server.run();
    std::cerr << "serve: drained; " << res.transport.requests
              << " requests over " << res.transport.connections_opened
              << " connections, " << res.transport.frames_malformed
              << " malformed frames, " << res.transport.shed_on_shutdown
              << " shed at shutdown; " << status_counts(res.service);
    if (!flags.get_string("repo", "").empty()) {
        std::cerr << "; repo preloaded " << res.preloaded.instances
                  << " instances + " << res.preloaded.responses
                  << " responses, appended " << res.repo_appends;
    }
    std::cerr << "\n";
    return res.service.internal_errors == 0 ? 0 : 2;
}

int cmd_serve(const util::Flags& flags) {
    service::JsonlConfig cfg;
    cfg.service.workers = static_cast<std::size_t>(
        flags.get_int("workers", static_cast<int>(cfg.service.workers)));
    cfg.service.queue_capacity = static_cast<std::size_t>(flags.get_int(
        "queue", static_cast<int>(cfg.service.queue_capacity)));
    cfg.service.response_cache_capacity = static_cast<std::size_t>(
        flags.get_int("cache",
                      static_cast<int>(cfg.service.response_cache_capacity)));
    cfg.service.defaults.delta_m =
        flags.get_double("delta", cfg.service.defaults.delta_m);
    cfg.service.defaults.k = flags.get_int("k", cfg.service.defaults.k);
    cfg.service.defaults.max_candidates = flags.get_int(
        "max-candidates", cfg.service.defaults.max_candidates);
    apply_reduction_flags(flags, cfg.service.defaults);
    cfg.final_stats = flags.get_bool("stats", false);

    if (flags.get_bool("tcp", false)) {
        return cmd_serve_tcp(flags, cfg.service);
    }

    // SIGTERM/SIGINT drain the JSONL path too: the handler (no SA_RESTART)
    // interrupts the blocking getline, the stop flag ends the session, and
    // everything already submitted is answered before exit.
    auto& sig = net::ShutdownSignal::install();
    cfg.stop = &sig.flag();

    std::ifstream fin;
    const std::string in_path = flags.get_string("in", "");
    if (!in_path.empty()) {
        fin.open(in_path);
        if (!fin) {
            std::cerr << "serve: cannot open --in=" << in_path << "\n";
            return 1;
        }
    }
    std::ofstream fout;
    const std::string out_path = flags.get_string("out", "");
    if (!out_path.empty()) {
        fout.open(out_path);
        if (!fout) {
            std::cerr << "serve: cannot open --out=" << out_path << "\n";
            return 1;
        }
    }
    std::istream& in = in_path.empty() ? std::cin : fin;
    std::ostream& out = out_path.empty() ? std::cout : fout;

    const auto summary = service::serve_jsonl(in, out, cfg);
    if (flags.get_bool("summary", false)) {
        // Human-readable wrap-up on stderr so stdout stays pure JSONL.
        std::cerr << "serve: " << summary.requests << " requests, "
                  << summary.control << " control, " << summary.parse_errors
                  << " malformed; " << status_counts(summary.stats) << "\n";
    }
    return summary.stats.internal_errors == 0 ? 0 : 2;
}

int cmd_route(const util::Flags& flags) {
    auto& sig = net::ShutdownSignal::install();
    net::RouterConfig cfg;
    cfg.host = flags.get_string("host", cfg.host);
    cfg.port = flags.get_int("port", 0);
    cfg.shards = flags.get_int("shards", 0);
    cfg.shard_workers = static_cast<std::size_t>(
        flags.get_int("shard-workers", 0));
    cfg.repo_dir = flags.get_string("repo-dir", "");
    {
        std::stringstream ss(flags.get_string("endpoints", ""));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) cfg.endpoints.push_back(std::stoi(tok));
        }
    }
    cfg.stop = &sig.flag();
    cfg.wake_fd = sig.wake_fd();
    if (flags.get_bool("announce", false)) {
        cfg.on_listening = [](int port) {
            std::cout << "LISTENING " << port << "\n" << std::flush;
        };
    } else {
        cfg.on_listening = [](int port) {
            std::cerr << "route: listening on tcp port " << port << "\n";
        };
    }

    net::Router router(std::move(cfg));
    const auto res = router.run();
    std::cerr << "route: drained; " << res.transport.requests
              << " requests forwarded, " << res.transport.responses
              << " responses returned, "
              << res.transport.retried_after_shard_death
              << " retried after shard death, "
              << res.transport.shard_respawns << " shard respawns\n";
    return res.clean_shutdown ? 0 : 2;
}

int cmd_loadgen(const util::Flags& flags) {
    net::LoadgenConfig cfg;
    const std::string connect = flags.get_string("connect", "");
    if (!connect.empty()) {
        const std::size_t colon = connect.rfind(':');
        if (colon == std::string::npos) {
            std::cerr << "loadgen: --connect must be HOST:PORT\n";
            return 1;
        }
        cfg.host = connect.substr(0, colon);
        cfg.port = std::stoi(connect.substr(colon + 1));
    } else {
        cfg.port = flags.get_int("port", 0);
    }
    cfg.connections = flags.get_int("connections", cfg.connections);
    cfg.pipeline = flags.get_int("pipeline", cfg.pipeline);
    cfg.requests = flags.get_int("requests", cfg.requests);
    cfg.instances = flags.get_int("instances", cfg.instances);
    cfg.seed = static_cast<std::uint64_t>(
        flags.get_int64("seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.length_prefixed = !flags.get_bool("newline", false);
    {
        std::stringstream ss(flags.get_string("algos", ""));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) cfg.planners.push_back(tok);
        }
    }

    const std::string emit = flags.get_string("emit-jsonl", "");
    if (!emit.empty()) {
        // Reference stream for the byte-identity check: the same logical
        // workload, pipeable through the JSONL `uavdc serve` path.
        std::ofstream f(emit);
        if (!f) {
            std::cerr << "loadgen: cannot open --emit-jsonl=" << emit << "\n";
            return 1;
        }
        f << net::loadgen_workload_jsonl(cfg);
        std::cerr << "loadgen: wrote reference workload to " << emit << "\n";
        if (cfg.port <= 0) return 0;
    }
    if (cfg.port <= 0) {
        std::cerr << "loadgen: --connect or --port is required\n";
        return 1;
    }

    const std::string capture_out = flags.get_string("capture-out", "");
    cfg.capture = !capture_out.empty();
    const auto res = net::run_loadgen(cfg);
    if (!capture_out.empty()) {
        std::ofstream f(capture_out);
        if (!f) {
            std::cerr << "loadgen: cannot open --capture-out=" << capture_out
                      << "\n";
            return 1;
        }
        for (const auto& payload : res.responses) f << payload << '\n';
    }
    std::cout << net::to_json(res).dump(2) << "\n";
    return (!res.timed_out && res.errors == 0 &&
            res.received == static_cast<std::uint64_t>(cfg.requests))
               ? 0
               : 2;
}

int cmd_serve_gen(const util::Flags& flags) {
    service::WorkloadGenConfig cfg;
    cfg.requests = flags.get_int("requests", cfg.requests);
    cfg.instances = flags.get_int("instances", cfg.instances);
    cfg.seed = static_cast<std::uint64_t>(
        flags.get_int64("seed", static_cast<std::int64_t>(cfg.seed)));
    cfg.control_verbs = !flags.get_bool("no-control", false);
    {
        std::stringstream ss(flags.get_string("algos", ""));
        std::string tok;
        while (std::getline(ss, tok, ',')) {
            if (!tok.empty()) cfg.planners.push_back(tok);
        }
    }
    const std::string text = service::generate_jsonl_workload(cfg);
    const std::string out = flags.get_string("out", "");
    if (out.empty()) {
        std::cout << text;
        return 0;
    }
    std::ofstream f(out);
    if (!f) {
        std::cerr << "serve-gen: cannot open --out=" << out << "\n";
        return 1;
    }
    f << text;
    std::cout << "wrote " << out << "\n";
    return 0;
}

int cmd_render(const util::Flags& flags) {
    const auto inst = io::load_instance(flags.get_string("instance", ""));
    const std::string out = flags.get_string("out", "");
    if (out.empty()) {
        std::cerr << "render: --out is required\n";
        return 1;
    }
    if (flags.has("plan")) {
        const auto plan = io::load_plan(flags.get_string("plan", ""));
        io::save_svg(out, inst, &plan);
    } else {
        io::save_svg(out, inst, nullptr);
    }
    std::cout << "wrote " << out << "\n";
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const util::Flags flags(argc, argv);
    if (flags.positional().empty()) return usage();
    const std::string& cmd = flags.positional()[0];
    try {
        if (cmd == "generate") return cmd_generate(flags);
        if (cmd == "plan") return cmd_plan(flags);
        if (cmd == "eval") return cmd_eval(flags);
        if (cmd == "sim") return cmd_sim(flags);
        if (cmd == "validate") return cmd_validate(flags);
        if (cmd == "compare") return cmd_compare(flags);
        if (cmd == "robustness") return cmd_robustness(flags);
        if (cmd == "conformance") return cmd_conformance(flags);
        if (cmd == "sensitivity") return cmd_sensitivity(flags);
        if (cmd == "render") return cmd_render(flags);
        if (cmd == "serve") return cmd_serve(flags);
        if (cmd == "route") return cmd_route(flags);
        if (cmd == "loadgen") return cmd_loadgen(flags);
        if (cmd == "serve-gen") return cmd_serve_gen(flags);
        std::cerr << "unknown command '" << cmd << "'\n";
        return usage();
    } catch (const std::exception& ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 2;
    }
}
