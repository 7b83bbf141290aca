// Closed-loop TCP client: spawns `uavdc serve --tcp`, registers and primes
// the workload, then keeps every connection at its in-flight depth for the
// timed phase, sending the next request only when a reply comes back.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "e2e.hpp"
#include "uavdc/net/frame.hpp"
#include "uavdc/net/process.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/util/timer.hpp"

namespace e2e {

namespace net = uavdc::net;

namespace {

struct Server {
    net::ChildProcess child;
    int port{0};
};

Server spawn_server(const std::string& exe, int workers) {
    Server s;
    s.child = net::spawn_child({exe, "serve", "--tcp", "--port=0",
                                "--announce",
                                "--workers=" + std::to_string(workers)});
    s.child.stdout_rd.set_nonblocking(true);
    const auto line = net::read_line(s.child.stdout_rd, 30000);
    if (!line || line->rfind("LISTENING ", 0) != 0) {
        net::signal_child(s.child.pid, SIGKILL);
        (void)net::wait_child(s.child.pid);
        throw std::runtime_error("server did not announce a port");
    }
    s.port = std::stoi(line->substr(10));
    return s;
}

/// SIGTERM (graceful drain), escalating to SIGKILL after 30 s; always reaps.
void stop_server(Server& s) {
    if (!s.child.valid()) return;
    net::signal_child(s.child.pid, SIGTERM);
    for (int i = 0; i < 3000 && net::child_alive(s.child.pid); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (net::child_alive(s.child.pid)) {
        net::signal_child(s.child.pid, SIGKILL);
        (void)net::wait_child(s.child.pid);
    }
    s.child.pid = -1;
}

double process_cpu_s(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t paren = text.rfind(')');
    if (paren == std::string::npos) return 0.0;
    std::istringstream fields(text.substr(paren + 2));
    std::string field;
    double ticks = 0.0;
    for (int i = 3; i <= 15 && fields >> field; ++i) {
        if (i == 14 || i == 15) ticks += std::stod(field);  // utime, stime
    }
    return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
        }
    }
    return 0.0;
}

double self_cpu_s() {
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

struct Conn {
    net::Socket sock;
    net::FrameDecoder decoder;
    std::string out;
    std::size_t out_off{0};
    int in_flight{0};
};

/// A sent timed request awaiting its reply.
struct Pending {
    double sent_s{0.0};
    std::size_t key{0};
    bool answered{false};
};

class Client {
  public:
    Client(int port, int connections) {
        for (int i = 0; i < connections; ++i) {
            auto c = std::make_unique<Conn>();
            c->sock = net::Socket::connect_tcp("127.0.0.1", port);
            c->sock.set_nodelay(true);
            c->sock.set_nonblocking(true);
            conns_.push_back(std::move(c));
        }
    }

    Conn& conn(std::size_t i) { return *conns_[i]; }
    [[nodiscard]] std::size_t size() const { return conns_.size(); }

    void send(std::size_t ci, const std::string& payload) {
        Conn& c = *conns_[ci];
        const std::size_t before = c.out.size();
        c.out += net::encode_frame(payload, true);
        ++c.in_flight;
        bytes_out += c.out.size() - before;
        flush(c);
    }

    /// One poll round; hands each complete reply frame to `on_reply`.
    template <typename F>
    void pump(int timeout_ms, F&& on_reply) {
        std::vector<net::PollEntry> entries;
        entries.reserve(conns_.size());
        for (auto& c : conns_) {
            net::PollEntry e;
            e.fd = c->sock.fd();
            e.want_read = c->in_flight > 0;
            e.want_write = c->out_off < c->out.size();
            entries.push_back(e);
        }
        net::poll_wait(entries, timeout_ms);
        for (std::size_t ci = 0; ci < conns_.size(); ++ci) {
            Conn& c = *conns_[ci];
            if (entries[ci].error) throw std::runtime_error("connection error");
            if (entries[ci].writable) flush(c);
            if (!entries[ci].readable) continue;
            while (true) {
                const auto r = c.sock.read_some(buf_, sizeof(buf_));
                if (r.status == net::IoStatus::kWouldBlock) break;
                if (r.status != net::IoStatus::kOk) {
                    throw std::runtime_error("server closed a connection");
                }
                bytes_in += r.n;
                c.decoder.feed(buf_, r.n);
            }
            while (auto f = c.decoder.next()) {
                --c.in_flight;
                on_reply(ci, f->payload);
            }
        }
    }

    /// Send one control/plan document on connection 0 and wait for its reply.
    std::string round_trip(const std::string& payload, double timeout_s) {
        std::string reply;
        bool got = false;
        send(0, payload);
        uavdc::util::Timer t;
        while (!got) {
            if (t.seconds() > timeout_s) {
                throw std::runtime_error("no reply to " + payload);
            }
            pump(100, [&](std::size_t, const std::string& p) {
                reply = p;
                got = true;
            });
        }
        return reply;
    }

    std::uint64_t bytes_out{0};
    std::uint64_t bytes_in{0};

  private:
    void flush(Conn& c) {
        while (c.out_off < c.out.size()) {
            const auto r = c.sock.write_some(c.out.data() + c.out_off,
                                             c.out.size() - c.out_off);
            if (r.status == net::IoStatus::kWouldBlock) break;
            if (r.status != net::IoStatus::kOk) {
                throw std::runtime_error("write to server failed");
            }
            c.out_off += r.n;
        }
        if (c.out_off == c.out.size()) {
            c.out.clear();
            c.out_off = 0;
        }
    }

    std::vector<std::unique_ptr<Conn>> conns_;
    char buf_[1 << 16];
};

Json stats_of(Client& client, const std::string& id) {
    const Json doc = Json::parse(client.round_trip(
        R"({"op":"stats","id":")" + id + "\"}", 30.0));
    return doc.at("stats");
}

/// Register and prime: every set-up request pipelined on connection 0 (in
/// order, so inline registrations precede the references to them), then
/// wait for all replies. Any non-ok reply aborts the run.
void run_setup(Workload& w, Client& client, RunResult& out) {
    std::size_t answered = 0;
    for (const auto& r : w.setup) {
        client.send(0, r.payload);
    }
    uavdc::util::Timer t;
    while (answered < w.setup.size()) {
        if (t.seconds() > 300.0) throw std::runtime_error("set-up timed out");
        client.pump(100, [&](std::size_t, const std::string& line) {
            Envelope env;
            if (!parse_envelope(line, env) || env.status != "ok") {
                throw std::runtime_error("set-up request failed: " +
                                         line.substr(0, 300));
            }
            // Set-up ids are "s<key>".
            const std::size_t k = std::stoul(env.id.substr(1));
            out.replies[k].add(line, env);
            ++answered;
        });
    }
}

}  // namespace

RunResult run_timed(Workload& w, const RunConfig& cfg) {
    RunResult out;
    Server server;
    std::unique_ptr<Client> client;
    try {
        for (int s = 0; s < std::max(1, cfg.setups); ++s) {
            // Only the last set-up serves the timed phase; the earlier ones
            // exist to time set-up more than once.
            if (server.child.valid()) {
                client.reset();
                stop_server(server);
            }
            RunResult discarded;
            uavdc::util::Timer t;
            server = spawn_server(cfg.server, w.workers);
            client = std::make_unique<Client>(server.port, w.connections);
            run_setup(w, *client, s + 1 == cfg.setups ? out : discarded);
            (void)stats_of(*client, "setup");
            out.setup_s.push_back(t.seconds());
        }
        out.stats_before = stats_of(*client, "before");
        const std::uint64_t setup_bytes_out = client->bytes_out;
        const std::uint64_t setup_bytes_in = client->bytes_in;

        std::vector<Pending> pending;
        std::optional<Request> next;  // generated, waiting for a free slot
        std::size_t last_conn = 0;
        std::uint64_t in_flight = 0;
        uavdc::util::Timer clock;
        const double cpu0 = process_cpu_s(server.child.pid);
        const double self0 = self_cpu_s();
        const auto n_windows =
            static_cast<std::size_t>(std::max(1, cfg.windows));
        const double window_s = cfg.seconds / static_cast<double>(n_windows);
        out.windows.resize(n_windows);
        std::size_t window = 0;  // the slice the clock is in
        double window_cpu0 = cpu0;

        const auto on_reply = [&](std::size_t, const std::string& line) {
            const double now = clock.seconds();
            Envelope env;
            if (!parse_envelope(line, env) || env.id.empty() ||
                env.id[0] != 't') {
                ++out.failures["unparsable"];
                return;
            }
            Pending& p = pending.at(std::stoul(env.id.substr(1)));
            p.answered = true;
            --in_flight;
            const double rt = now - p.sent_s;
            Window* slice = now < cfg.seconds
                                ? &out.windows[std::min(
                                      n_windows - 1,
                                      static_cast<std::size_t>(now / window_s))]
                                : nullptr;
            if (slice != nullptr) ++slice->replies;
            if (env.status != "ok") {
                ++out.failures[env.status];
            } else if (rt > cfg.request_timeout_s) {
                ++out.failures["timed_out"];
            } else {
                ++out.ok;
                out.rt_ms.push_back(rt * 1e3);
                if (slice != nullptr) {
                    ++slice->ok;
                    slice->rt_ms.push_back(rt * 1e3);
                }
                out.queue_ms.push_back(env.queue_ms);
                out.exec_ms.push_back(env.exec_ms);
            }
            if (env.result_len > 0) out.replies[p.key].add(line, env);
        };

        // Fill every free slot; stop when none is left, or when the only
        // free one is barred to the next request (a duplicate's original
        // connection).
        const auto dispatch = [&] {
            while (true) {
                if (!next) next = w.next_request();
                const Request& r = *next;
                // First free connection after the last one used; a
                // duplicate must not share its original's connection.
                std::size_t pick = client->size();
                for (std::size_t d = 1; d <= client->size(); ++d) {
                    const std::size_t ci = (last_conn + d) % client->size();
                    if (client->conn(ci).in_flight >= w.depth) continue;
                    if (r.duplicate && ci == last_conn) continue;
                    pick = ci;
                    break;
                }
                if (pick == client->size()) return;
                pending.push_back({clock.seconds(), r.key, false});
                client->send(pick, r.payload);
                ++in_flight;
                ++out.attempted;
                last_conn = pick;
                next.reset();
            }
        };

        const auto close_windows = [&](std::size_t upto) {
            while (window < upto) {
                const double cpu = process_cpu_s(server.child.pid);
                out.windows[window++].server_cpu_s = cpu - window_cpu0;
                window_cpu0 = cpu;
            }
        };
        double in_flight_sum = 0.0;
        std::uint64_t in_flight_samples = 0;
        while (clock.seconds() < cfg.seconds) {
            dispatch();
            in_flight_sum += static_cast<double>(in_flight);
            ++in_flight_samples;
            client->pump(10, on_reply);
            close_windows(std::min(n_windows, static_cast<std::size_t>(
                                                  clock.seconds() / window_s)));
        }
        close_windows(n_windows);
        out.mean_in_flight =
            in_flight_samples
                ? in_flight_sum / static_cast<double>(in_flight_samples)
                : 0.0;
        // Closed loop ends: no new sends; collect what is in flight.
        const double drain_limit = cfg.seconds + cfg.request_timeout_s;
        while (in_flight > 0 && clock.seconds() < drain_limit) {
            client->pump(10, on_reply);
        }
        out.elapsed_s = clock.seconds();
        out.server_cpu_s = process_cpu_s(server.child.pid) - cpu0;
        out.client_cpu_s = self_cpu_s() - self0;
        for (const auto& p : pending) {
            if (!p.answered) ++out.failures["unanswered"];
        }
        out.bytes_out = client->bytes_out - setup_bytes_out;
        out.bytes_in = client->bytes_in - setup_bytes_in;
        if (in_flight == 0) out.stats_after = stats_of(*client, "after");
        out.server_peak_rss_mb = peak_rss_mb(server.child.pid);
    } catch (...) {
        client.reset();
        stop_server(server);
        throw;
    }
    client.reset();
    stop_server(server);
    return out;
}

}  // namespace e2e
