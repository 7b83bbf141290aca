#include "uavdc/net/router.hpp"

#include <csignal>
#include <map>
#include <memory>
#include <utility>

#include "uavdc/core/planning_context.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/process.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/service/request.hpp"
#include "uavdc/util/check.hpp"

namespace uavdc::net {

namespace {

constexpr std::size_t kReadChunk = 64u * 1024;

/// One forwarded-but-unanswered request. Entries leave the table only when
/// their response is handed to the client (or the client is gone), which is
/// exactly the exactly-once bookkeeping the resend path relies on.
struct PendingReq {
    std::uint64_t client_id{0};
    std::size_t shard{0};
    bool client_lp{false};
    bool sent{false};   ///< appended to a live upstream at least once
    std::string wire;   ///< length-prefixed tagged request frame
};

struct Upstream {
    Socket sock;
    FrameDecoder decoder;
    std::string outbuf;
    bool up{false};
    pid_t pid{-1};        ///< managed mode only
    Socket child_out;     ///< managed mode: announce pipe / stdout noise
    int endpoint_port{-1};

    explicit Upstream(std::size_t max_frame) : decoder(max_frame) {}
};

}  // namespace

Router::RunResult Router::run() {
    RunResult result;

    const bool managed = cfg_.endpoints.empty();
    const std::size_t nshards =
        managed ? static_cast<std::size_t>(cfg_.shards)
                : cfg_.endpoints.size();
    UAVDC_REQUIRE(nshards > 0) << "router: need --shards or endpoints";

    std::vector<std::unique_ptr<Upstream>> shards;
    for (std::size_t i = 0; i < nshards; ++i) {
        shards.push_back(std::make_unique<Upstream>(cfg_.max_frame_bytes));
        if (!managed) {
            shards[i]->endpoint_port = cfg_.endpoints[i];
        }
    }

    std::map<std::uint64_t, PendingReq> pending;
    std::uint64_t next_seq = 1;

    FrontEnd front(cfg_, [&] {
        io::Json stats;
        stats["shards"] = nshards;
        stats["pending"] = pending.size();
        return stats;
    });
    TransportStats& t = front.counters();

    const auto shard_argv = [&](std::size_t i) {
        std::vector<std::string> argv{self_exe_path(), "serve", "--tcp",
                                      "--host=" + cfg_.host, "--port=0",
                                      "--announce"};
        if (cfg_.shard_workers > 0) {
            argv.push_back("--workers=" +
                           std::to_string(cfg_.shard_workers));
        }
        if (!cfg_.repo_dir.empty()) {
            argv.push_back("--repo=" + cfg_.repo_dir + "/shard-" +
                           std::to_string(i) + ".jsonl");
        }
        return argv;
    };

    /// (Re)connect shard `i`, resending everything still pending for it.
    /// Returns false (shard stays down) on any failure — the next loop
    /// iteration retries, paced by the poll timeout.
    const auto revive = [&](std::size_t i) {
        Upstream& u = *shards[i];
        if (managed && !child_alive(u.pid)) {
            const bool had_child = u.pid > 0;
            ChildProcess child;
            try {
                child = spawn_child(shard_argv(i));
            } catch (const std::exception&) {
                return false;
            }
            child.stdout_rd.set_nonblocking(true);
            const auto line =
                read_line(child.stdout_rd, cfg_.spawn_timeout_ms);
            if (!line.has_value() ||
                line->rfind("LISTENING ", 0) != 0) {
                signal_child(child.pid, SIGKILL);
                (void)wait_child(child.pid);
                return false;
            }
            u.pid = child.pid;
            u.child_out = std::move(child.stdout_rd);
            u.endpoint_port = std::stoi(line->substr(10));
            if (had_child) ++t.shard_respawns;
        }
        try {
            u.sock = Socket::connect_tcp(cfg_.host, u.endpoint_port);
        } catch (const std::exception&) {
            return false;
        }
        u.sock.set_nonblocking(true);
        u.sock.set_nodelay(true);
        u.decoder = FrameDecoder(cfg_.max_frame_bytes);
        u.outbuf.clear();
        u.up = true;
        for (auto& [seq, p] : pending) {
            if (p.shard != i) continue;
            if (p.sent) ++t.retried_after_shard_death;
            u.outbuf += p.wire;
            p.sent = true;
        }
        return true;
    };

    const auto mark_down = [&](std::size_t i) {
        Upstream& u = *shards[i];
        u.up = false;
        u.sock.close();
        u.outbuf.clear();
        u.decoder = FrameDecoder(cfg_.max_frame_bytes);
    };

    // Initial bring-up: every shard must come up before we take traffic.
    for (std::size_t i = 0; i < nshards; ++i) {
        int attempts = 0;
        while (!revive(i)) {
            if (++attempts > 50) {
                throw std::runtime_error(
                    "router: shard " + std::to_string(i) +
                    " failed to start");
            }
            std::vector<PollEntry> none;
            poll_wait(none, 100);  // plain sleep between attempts
        }
    }

    /// De-tag a shard response and hand it to its client. The id prefix
    /// (`"<seq>#"`) is stripped textually — object keys are sorted by the
    /// serializer, so the first `"id":"` in the payload is the top-level id
    /// (every earlier key holds a number/bool, and escaping prevents the
    /// sequence appearing inside an error string). Anything unexpected
    /// falls back to a full parse.
    const auto forward_response = [&](const std::string& payload) {
        std::uint64_t seq = 0;
        std::string out;
        bool parsed = false;
        const std::size_t pos = payload.find("\"id\":\"");
        if (pos != std::string::npos) {
            std::size_t i = pos + 6;
            std::uint64_t v = 0;
            bool digits = false;
            while (i < payload.size() && payload[i] >= '0' &&
                   payload[i] <= '9') {
                v = v * 10 + static_cast<std::uint64_t>(payload[i] - '0');
                digits = true;
                ++i;
            }
            if (digits && i < payload.size() && payload[i] == '#') {
                seq = v;
                out = payload;
                out.erase(pos + 6, i + 1 - (pos + 6));
                parsed = true;
            }
        }
        if (!parsed) {
            try {
                io::Json doc = io::Json::parse(payload);
                const std::string tagged = doc.string_or("id", "");
                const std::size_t hash = tagged.find('#');
                if (hash == std::string::npos) return;  // not ours; drop
                seq = std::stoull(tagged.substr(0, hash));
                doc["id"] = tagged.substr(hash + 1);
                out = doc.dump();
            } catch (const std::exception&) {
                return;  // undecodable response; drop
            }
        }
        auto it = pending.find(seq);
        if (it == pending.end()) return;  // duplicate after resend race
        const PendingReq p = std::move(it->second);
        pending.erase(it);
        front.deliver(p.client_id, encode_frame(out, p.client_lp));
    };

    /// Shard I/O: read and forward responses, flush queued requests.
    const auto serve_shard = [&](std::size_t i, const PollEntry& e) {
        Upstream& u = *shards[i];
        if (!u.up) return;
        if (e.error) {
            mark_down(i);
            return;
        }
        if (e.readable) {
            char buf[kReadChunk];
            while (true) {
                const IoResult r = u.sock.read_some(buf, sizeof(buf));
                if (r.status == IoStatus::kWouldBlock) break;
                if (r.status != IoStatus::kOk) {
                    mark_down(i);
                    return;
                }
                u.decoder.feed(buf, r.n);
                while (auto f = u.decoder.next()) {
                    if (f->malformed) {
                        ++t.frames_malformed;
                        continue;
                    }
                    forward_response(f->payload);
                }
            }
        }
        if (e.writable && !u.outbuf.empty()) {
            const IoResult r = u.sock.write_some(u.outbuf.data(),
                                                 u.outbuf.size());
            if (r.status == IoStatus::kOk) {
                u.outbuf.erase(0, r.n);
            } else if (r.status == IoStatus::kError) {
                mark_down(i);
            }
        }
    };

    /// Post-announce worker stdout (final summaries etc.): drain and discard
    /// so the child never blocks on a full pipe; close on EOF so a dead
    /// child's POLLHUP doesn't spin the loop until the respawn replaces the
    /// pipe.
    const auto drain_child_out = [&](std::size_t i) {
        Socket& out = shards[i]->child_out;
        char buf[256];
        while (true) {
            const IoResult r = out.read_some(buf, sizeof(buf));
            if (r.status == IoStatus::kOk) continue;
            if (r.status != IoStatus::kWouldBlock) out.close();
            break;
        }
    };

    // The poll slots this router adds: {shard index, child-stdout slot?}.
    std::vector<std::pair<std::size_t, bool>> slots;

    front.run(
        // Forward to the shard that owns the request's instance, re-tagged
        // `"<seq>#<id>"`.
        [&](std::uint64_t conn, bool lp, service::Payload&& p) {
            const service::PlanRequest& req = p.request;
            const std::uint64_t fp =
                req.instance_ref
                    ? *req.instance_ref
                    : core::PlanningContext::instance_fingerprint(
                          *req.instance);
            const std::size_t shard = static_cast<std::size_t>(fp % nshards);
            const std::uint64_t seq = next_seq++;
            p.doc["id"] = std::to_string(seq) + "#" + req.id;
            PendingReq pr;
            pr.client_id = conn;
            pr.shard = shard;
            pr.client_lp = lp;
            pr.wire = encode_frame(p.doc.dump(), /*length_prefixed=*/true);
            if (shards[shard]->up) {
                shards[shard]->outbuf += pr.wire;
                pr.sent = true;
            }
            pending.emplace(seq, std::move(pr));
        },
        [&](std::vector<PollEntry>& entries) {
            slots.clear();
            for (std::size_t i = 0; i < nshards; ++i) {
                Upstream& u = *shards[i];
                if (!u.up && !front.stopping()) (void)revive(i);
                if (u.up) {
                    PollEntry e;
                    e.fd = u.sock.fd();
                    e.want_read = true;
                    e.want_write = !u.outbuf.empty();
                    entries.push_back(e);
                    slots.emplace_back(i, false);
                }
                if (managed && u.child_out.valid()) {
                    entries.push_back(
                        {u.child_out.fd(), true, false, false, false, false});
                    slots.emplace_back(i, true);
                }
            }
        },
        [&](const std::vector<PollEntry>& entries, std::size_t first) {
            for (std::size_t k = 0; k < slots.size(); ++k) {
                const auto [i, child] = slots[k];
                const PollEntry& e = entries[first + k];
                if (!child) {
                    serve_shard(i, e);
                } else if (e.readable) {
                    drain_child_out(i);
                }
            }
        },
        [] {});

    result.transport = t;
    result.clean_shutdown = true;
    if (managed) {
        for (auto& u : shards) {
            if (u->pid > 0) signal_child(u->pid, SIGTERM);
        }
        for (auto& u : shards) {
            if (u->pid > 0 && wait_child(u->pid) != 0) {
                result.clean_shutdown = false;
            }
        }
    }
    return result;
}

}  // namespace uavdc::net
