#include "uavdc/net/front_end.hpp"

#include <utility>

namespace uavdc::net {

void FrontEnd::listen() {
    listener_ = Socket::listen_tcp(cfg_.host, cfg_.port, 256);
    listener_.set_nonblocking(true);
    if (cfg_.on_listening) cfg_.on_listening(listener_.local_port());
}

void FrontEnd::deliver(std::uint64_t conn, const std::string& frame) {
    auto it = conns_.find(conn);
    if (it == conns_.end() || it->second.dead) return;
    Conn& c = it->second;
    c.outbuf += frame;
    ++c.delivered;
    ++t_.responses;
    release_drains(c);
}

void FrontEnd::answer(Conn& c, service::Payload& p, bool length_prefixed) {
    switch (p.kind) {
        case service::Payload::Kind::kStats:
            control_reply(c, p.id, "stats", length_prefixed);
            break;
        case service::Payload::Kind::kDrain:
            if (c.delivered >= c.submitted) {
                control_reply(c, p.id, "drain", length_prefixed);
            } else {
                c.drains.push_back(
                    {c.submitted, std::move(p.id), length_prefixed});
            }
            break;
        case service::Payload::Kind::kBadRequest:
            refuse(c, p.id, service::ResponseStatus::kBadRequest, p.error,
                   length_prefixed);
            break;
        case service::Payload::Kind::kPlan:
            break;
    }
}

void FrontEnd::control_reply(Conn& c, const std::string& id,
                             const std::string& op, bool length_prefixed) {
    TransportStats snap = t_;
    snap.open_connections = conns_.size();
    for (const auto& [cid, cc] : conns_) {
        snap.write_queue_bytes += cc.outbuf.size();
    }
    io::Json stats = stats_body_();
    stats["transport"] = to_json(snap);
    c.outbuf += encode_frame(service::control_line(id, op, std::move(stats)),
                             length_prefixed);
    ++t_.control;
}

void FrontEnd::refuse(Conn& c, const std::string& id,
                      service::ResponseStatus status,
                      const std::string& error, bool length_prefixed) {
    c.outbuf += encode_frame(service::refusal_line(id, status, error),
                             length_prefixed);
}

void FrontEnd::release_drains(Conn& c) {
    for (std::size_t i = 0; i < c.drains.size();) {
        if (c.delivered >= c.drains[i].threshold) {
            control_reply(c, c.drains[i].id, "drain",
                          c.drains[i].length_prefixed);
            c.drains.erase(c.drains.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
}

/// Close whatever is finished: a dead peer at once; a drained connection
/// (EOF or stopping, nothing owed, nothing buffered) with an orderly FIN.
void FrontEnd::close_finished() {
    for (auto it = conns_.begin(); it != conns_.end();) {
        const Conn& c = it->second;
        const bool drained = c.submitted == c.delivered &&
                             c.outbuf.empty() && c.drains.empty();
        if (c.dead || ((c.read_eof || stopping_) && drained)) {
            ++t_.connections_closed;
            it = conns_.erase(it);
        } else {
            ++it;
        }
    }
}

std::size_t FrontEnd::fill_entries() {
    entries_.clear();
    if (cfg_.wake_fd >= 0) {
        entries_.push_back({cfg_.wake_fd, true, false, false, false, false});
    }
    listener_slot_ = kNoSlot;
    if (!stopping_) {
        listener_slot_ = entries_.size();
        entries_.push_back(
            {listener_.fd(), true, false, false, false, false});
    }
    const std::size_t first_conn = entries_.size();
    for (const auto& [id, c] : conns_) {
        PollEntry e;
        e.fd = c.sock.fd();
        e.want_read = !stopping_ && !c.read_eof && !c.dead &&
                      c.outbuf.size() < cfg_.write_queue_limit;
        e.want_write = !c.outbuf.empty() && !c.dead;
        entries_.push_back(e);
    }
    return first_conn;
}

void FrontEnd::accept_all() {
    while (auto accepted = listener_.accept_one()) {
        accepted->set_nonblocking(true);
        accepted->set_nodelay(true);
        conns_.try_emplace(next_conn_id_, next_conn_id_, std::move(*accepted),
                           cfg_.max_frame_bytes);
        ++next_conn_id_;
        ++t_.connections_opened;
    }
}

void FrontEnd::write_to(Conn& c) {
    if (c.outbuf.empty() || c.dead) return;
    const IoResult r = c.sock.write_some(c.outbuf.data(), c.outbuf.size());
    if (r.status == IoStatus::kOk) {
        t_.bytes_out += r.n;
        c.outbuf.erase(0, r.n);
    } else if (r.status == IoStatus::kError) {
        c.dead = true;
    }
}

}  // namespace uavdc::net
