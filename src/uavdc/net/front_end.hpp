#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "uavdc/net/frame.hpp"
#include "uavdc/net/socket.hpp"
#include "uavdc/net/transport_stats.hpp"
#include "uavdc/service/request.hpp"

namespace uavdc::net {

/// Settings of a client-facing listener; `TcpServerConfig` and
/// `RouterConfig` extend it.
struct FrontEndConfig {
    std::string host = "127.0.0.1";
    int port = 0;  ///< 0 binds an ephemeral port (see `on_listening`)
    std::size_t max_frame_bytes = 16u << 20;
    /// Per-connection backpressure bound: once this many response bytes are
    /// queued for a slow reader, the front end stops *reading* that
    /// connection until the queue drains below the bound — pipelining cannot
    /// buffer unbounded output for a client that never consumes it.
    std::size_t write_queue_limit = 8u << 20;
    /// Graceful-drain request (`ShutdownSignal::flag()` in the CLI; a plain
    /// atomic in tests). Observed promptly via `wake_fd` when supplied,
    /// within the poll timeout otherwise.
    const std::atomic<bool>* stop = nullptr;
    int wake_fd = -1;  ///< optional readable-on-signal fd added to the poll set
    int poll_timeout_ms = 200;
    /// Called once, with the bound port, after listen succeeds (the
    /// `--announce` handshake that lets a parent spawn workers on port 0).
    std::function<void(int)> on_listening;
};

/// The client side of the wire protocol, shared by `TcpServer` and `Router`:
/// the listener, every client connection, and one single-threaded poll(2)
/// loop over them.
///
/// Every frame (see `FrameDecoder`) carries one JSON document, classified by
/// `service::classify_payload`. A plan request goes to the owner's `submit`;
/// `{"op":"stats"}` is answered at once with the owner's stats body plus the
/// transport counters under `"transport"`; `{"op":"drain"}` is a
/// per-connection barrier, answered only after every plan request submitted
/// earlier on that connection has been answered. Malformed frames and bad
/// requests are answered `bad_request` and the connection stays open. Each
/// reply is framed the way its request was.
///
/// Graceful drain (stop flag): the listener closes, no further bytes are
/// read, frames decoded but not yet submitted are answered `shutdown`,
/// submitted requests are answered as the owner delivers them, and `run`
/// returns once every connection has flushed and closed.
class FrontEnd {
  public:
    /// `stats_body` supplies the body of every `stats`/`drain` reply.
    FrontEnd(const FrontEndConfig& cfg, std::function<io::Json()> stats_body)
        : cfg_(cfg), stats_body_(std::move(stats_body)) {}

    /// Bind and listen, call `on_listening`, then serve until the stop flag
    /// has been seen and every connection has closed. Throws
    /// std::runtime_error when the bind fails. The owner's side of the loop:
    ///   submit(conn, length_prefixed, service::Payload&&)
    ///       a validated plan request; answer it later with `deliver`;
    ///   poll_entries(std::vector<PollEntry>&)
    ///       append the owner's own descriptors to the poll set;
    ///   on_poll(const std::vector<PollEntry>&, std::size_t first)
    ///       handle them (`first` indexes the first one); runs before any
    ///       client is read or written;
    ///   after_read()
    ///       runs between a client's read and its write.
    template <class Submit, class PollEntries, class OnPoll, class AfterRead>
    void run(Submit submit, PollEntries poll_entries, OnPoll on_poll,
             AfterRead after_read);

    /// Queue a plan response frame for connection `conn` (dropped when the
    /// connection is gone) and release the drain barriers it satisfies.
    void deliver(std::uint64_t conn, const std::string& frame);

    [[nodiscard]] bool stopping() const { return stopping_; }
    /// The running counters; the owner adds its own (resends, respawns).
    [[nodiscard]] TransportStats& counters() { return t_; }

  private:
    /// One client connection. `submitted`/`delivered` count plan requests
    /// only (control verbs are answered inline), which is exactly the pair
    /// the `drain` barrier compares.
    struct Conn {
        std::uint64_t id;
        Socket sock;
        FrameDecoder decoder;
        std::string outbuf;
        std::uint64_t submitted{0};
        std::uint64_t delivered{0};
        struct DrainWait {
            std::uint64_t threshold;  ///< release when delivered >= this
            std::string id;
            bool length_prefixed;
        };
        std::vector<DrainWait> drains;
        bool read_eof{false};
        bool dead{false};  ///< peer reset / write error: discard silently

        Conn(std::uint64_t conn_id, Socket s, std::size_t max_frame)
            : id(conn_id), sock(std::move(s)), decoder(max_frame) {}
    };

    template <class Submit>
    void dispatch(Conn& c, const Frame& f, Submit& submit, bool shed);
    template <class Submit>
    void pump(Conn& c, Submit& submit);
    template <class Submit>
    void read_from(Conn& c, Submit& submit);

    /// Answer a control verb or a bad request.
    void answer(Conn& c, service::Payload& p, bool length_prefixed);
    void control_reply(Conn& c, const std::string& id, const std::string& op,
                       bool length_prefixed);
    void refuse(Conn& c, const std::string& id,
                service::ResponseStatus status, const std::string& error,
                bool length_prefixed);
    void release_drains(Conn& c);
    void listen();
    void close_finished();
    /// Fill `entries_` with the wake fd, the listener and every client;
    /// returns the index of the first client.
    std::size_t fill_entries();
    void accept_all();
    void write_to(Conn& c);

    FrontEndConfig cfg_;
    std::function<io::Json()> stats_body_;
    Socket listener_;
    std::map<std::uint64_t, Conn> conns_;
    std::uint64_t next_conn_id_{1};
    std::size_t listener_slot_{0};  ///< npos while stopping
    bool stopping_{false};
    TransportStats t_;
    std::vector<PollEntry> entries_;

    static constexpr std::size_t kNoSlot =
        std::numeric_limits<std::size_t>::max();
    static constexpr std::size_t kReadChunk = 64u * 1024;
};

template <class Submit, class PollEntries, class OnPoll, class AfterRead>
void FrontEnd::run(Submit submit, PollEntries poll_entries, OnPoll on_poll,
                   AfterRead after_read) {
    listen();
    while (true) {
        if (!stopping_ && cfg_.stop != nullptr &&
            cfg_.stop->load(std::memory_order_acquire)) {
            // No new connections, no further reads. Frames already decoded
            // into the buffers but not yet submitted are answered
            // `shutdown`; everything submitted is delivered below.
            stopping_ = true;
            listener_.close();
            for (auto& [id, c] : conns_) {
                if (c.dead) continue;
                while (auto f = c.decoder.next()) {
                    dispatch(c, *f, submit, /*shed=*/true);
                }
            }
        }
        close_finished();
        if (stopping_ && conns_.empty()) return;

        std::size_t slot = fill_entries();
        const std::size_t first_own = entries_.size();
        poll_entries(entries_);
        poll_wait(entries_, cfg_.poll_timeout_ms);
        on_poll(entries_, first_own);

        // No connection is added or erased between fill_entries() and
        // here, so the map walks in step with its poll slots.
        for (auto& [id, c] : conns_) {
            const PollEntry& e = entries_[slot++];
            if (e.error) {
                c.dead = true;
                continue;
            }
            if (stopping_) {
                if (e.writable) write_to(c);
                continue;
            }
            // Resume frames parked behind the write-queue bound once the
            // client drained some output.
            pump(c, submit);
            if (e.readable && !c.read_eof && !c.dead) {
                read_from(c, submit);
                after_read();
            }
            if (e.writable) write_to(c);
        }
        if (listener_slot_ != kNoSlot && entries_[listener_slot_].readable) {
            accept_all();
        }
    }
}

/// Decode-side handling of one frame. `shed` (drain path): answer plan
/// requests `shutdown` instead of submitting them.
template <class Submit>
void FrontEnd::dispatch(Conn& c, const Frame& f, Submit& submit, bool shed) {
    if (f.malformed) {
        ++t_.frames_malformed;
        refuse(c, "", service::ResponseStatus::kBadRequest,
               "malformed frame: " + f.error, false);
        return;
    }
    ++t_.frames_decoded;
    if (f.payload.empty()) return;  // blank line, JSONL-style

    service::Payload p = service::classify_payload(f.payload);
    if (p.kind != service::Payload::Kind::kPlan) {
        answer(c, p, f.length_prefixed);
        return;
    }
    if (shed) {
        refuse(c, p.id, service::ResponseStatus::kShutdown,
               "server draining; request was not submitted",
               f.length_prefixed);
        ++t_.shed_on_shutdown;
        return;
    }
    ++t_.requests;
    ++c.submitted;
    submit(c.id, f.length_prefixed, std::move(p));
}

/// Decode and dispatch whatever is buffered for `c`, stopping at the
/// write-queue bound: a connection whose client stopped reading keeps its
/// complete-but-undispatched frames *in the decoder* (bounded by
/// max_frame_bytes per frame) instead of growing the output queue.
template <class Submit>
void FrontEnd::pump(Conn& c, Submit& submit) {
    while (!c.dead && c.outbuf.size() < cfg_.write_queue_limit) {
        auto f = c.decoder.next();
        if (!f) break;
        dispatch(c, *f, submit, /*shed=*/false);
    }
}

template <class Submit>
void FrontEnd::read_from(Conn& c, Submit& submit) {
    char buf[kReadChunk];
    while (c.outbuf.size() < cfg_.write_queue_limit) {
        const IoResult r = c.sock.read_some(buf, sizeof(buf));
        if (r.status == IoStatus::kOk) {
            t_.bytes_in += r.n;
            c.decoder.feed(buf, r.n);
            pump(c, submit);
            continue;
        }
        if (r.status == IoStatus::kEof) c.read_eof = true;
        if (r.status == IoStatus::kError) c.dead = true;
        break;
    }
}

}  // namespace uavdc::net
