#include "uavdc/service/jsonl.hpp"

#include <istream>
#include <mutex>
#include <ostream>
#include <string>

namespace uavdc::service {

namespace {

bool blank(const std::string& line) {
    return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

JsonlSummary serve_jsonl(std::istream& in, std::ostream& out,
                         const JsonlConfig& cfg, util::ThreadPool* pool) {
    JsonlSummary summary;
    PlanService::Config svc_cfg = cfg.service;
    // Responses leave through response_line(); hits don't need the tree.
    svc_cfg.wire_only_hits = true;
    PlanService svc(svc_cfg, pool);

    std::mutex out_mu;
    const auto write_line = [&](const std::string& text) {
        std::lock_guard lock(out_mu);
        out << text << '\n';
        out.flush();
    };
    const auto write_response = [&](const PlanResponse& resp) {
        write_line(response_line(resp));
    };

    const auto stop_requested = [&] {
        return cfg.stop != nullptr &&
               cfg.stop->load(std::memory_order_acquire);
    };

    std::string line;
    while (!stop_requested() && std::getline(in, line)) {
        if (stop_requested()) {
            // The signal landed mid-read; this line was never submitted, so
            // drain semantics ("finish what was accepted") don't cover it.
            summary.stopped = true;
            break;
        }
        if (blank(line)) continue;
        ++summary.lines;

        Payload p = classify_payload(line);
        switch (p.kind) {
            case Payload::Kind::kBadRequest:
                ++summary.parse_errors;
                write_line(refusal_line(p.id, ResponseStatus::kBadRequest,
                                        p.error));
                break;
            case Payload::Kind::kDrain:
                svc.drain();
                [[fallthrough]];
            case Payload::Kind::kStats:
                ++summary.control;
                write_line(control_line(
                    p.id, p.kind == Payload::Kind::kDrain ? "drain" : "stats",
                    to_json(svc.stats())));
                break;
            case Payload::Kind::kPlan:
                ++summary.requests;
                svc.submit(std::move(p.request), write_response);
                break;
        }
    }

    if (stop_requested()) summary.stopped = true;
    svc.drain();
    summary.stats = svc.stats();
    if (cfg.final_stats) {
        write_line(control_line("", "stats", to_json(summary.stats)));
    }
    svc.shutdown();
    return summary;
}

}  // namespace uavdc::service
