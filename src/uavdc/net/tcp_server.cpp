#include "uavdc/net/tcp_server.hpp"

#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace uavdc::net {

TcpServer::RunResult TcpServer::run() {
    RunResult result;

    // Destruction order matters: the service's worker callbacks reference
    // the completion queue and wake pipe, so the service is declared after
    // them (destroyed first, after its own drain).
    std::unique_ptr<Repository> repo;
    service::PlanService::Config svc_cfg = cfg_.service;
    // Every response leaves through response_line(), which splices the
    // pre-serialized result — hits never need the tree copied.
    svc_cfg.wire_only_hits = true;
    if (!cfg_.repo_path.empty()) {
        repo = std::make_unique<Repository>(cfg_.repo_path);
        svc_cfg.store = repo->hooks();
    }

    std::mutex done_mu;
    std::vector<std::pair<std::uint64_t, std::string>> done;
    auto [wake_rd, wake_wr] = Socket::pipe_pair();
    wake_rd.set_nonblocking(true);
    wake_wr.set_nonblocking(true);

    service::PlanService svc(svc_cfg, nullptr);
    if (repo) result.preloaded = repo->load(svc);

    FrontEnd front(cfg_, [&svc] { return service::to_json(svc.stats()); });

    // Completion path: workers encode off the loop thread (the JSON dump of
    // a large plan is the expensive part), enqueue, and poke the pipe.
    const auto complete = [&](std::uint64_t conn, bool length_prefixed,
                              const service::PlanResponse& resp) {
        std::string frame =
            encode_frame(service::response_line(resp), length_prefixed);
        {
            std::lock_guard lock(done_mu);
            done.emplace_back(conn, std::move(frame));
        }
        const char byte = 1;
        (void)wake_wr.write_some(&byte, 1);
    };

    const auto pump_completions = [&] {
        std::vector<std::pair<std::uint64_t, std::string>> batch;
        {
            std::lock_guard lock(done_mu);
            batch.swap(done);
        }
        for (const auto& [conn, frame] : batch) front.deliver(conn, frame);
    };

    front.run(
        [&](std::uint64_t conn, bool lp, service::Payload&& p) {
            svc.submit(std::move(p.request),
                       [&complete, conn, lp](service::PlanResponse resp) {
                           complete(conn, lp, resp);
                       });
        },
        [&](std::vector<PollEntry>& entries) {
            entries.push_back(
                {wake_rd.fd(), true, false, false, false, false});
        },
        [&](const std::vector<PollEntry>& entries, std::size_t first) {
            if (entries[first].readable) drain_readable(wake_rd);
            pump_completions();
        },
        // Inline admission rejections may have completed on the loop
        // thread already; fold them in before the write pass.
        pump_completions);

    svc.drain();
    result.transport = front.counters();
    result.service = svc.stats();
    if (repo) result.repo_appends = repo->appended();
    return result;
}

}  // namespace uavdc::net
