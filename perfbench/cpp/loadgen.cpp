#include "loadgen.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "common.hpp"
#include "svc/protocol.hpp"

namespace pb {

using evs::runtime::SvcRequest;

namespace {

/// A blocking connect to a loopback port, then non-blocking; -1 on failure.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, O_NONBLOCK);
  return fd;
}

}  // namespace

LoadGen::LoadGen(const std::vector<std::uint16_t>& ports, std::size_t cap,
                 ReplyFn fn)
    : ports_(ports), cap_(cap), fn_(std::move(fn)) {
  for (std::size_t c = 0; c < ports_.size(); ++c) {
    current_.push_back(conns_.size());
    conns_.emplace_back();
    conns_.back().fd = connect_loopback(ports_[c]);
  }
}

LoadGen::~LoadGen() {
  for (Conn& c : conns_)
    if (c.fd >= 0) ::close(c.fd);
}

void LoadGen::reconnect(std::size_t c) {
  conns_[current_[c]].retired = true;
  current_[c] = conns_.size();
  conns_.emplace_back();
  conns_.back().fd = connect_loopback(ports_[c]);
}

bool LoadGen::all_connected() const {
  for (std::size_t i : current_)
    if (conns_[i].fd < 0) return false;
  return true;
}

std::size_t LoadGen::in_flight(std::size_t c) const {
  const Conn& conn = conns_[current_[c]];
  return conn.in_flight + conn.backlog.size();
}

void LoadGen::submit(std::size_t c, const SvcRequest& req, std::uint64_t due_us,
                     std::uint64_t tag) {
  const std::uint64_t id = next_id_++;
  pending_.emplace(id, Pending{tag, due_us, current_[c]});
  ++outstanding_;
  Conn& conn = conns_[current_[c]];
  if (conn.fd < 0) {
    finish(id, Reply{false, {}, due_us, now_us()});
    return;
  }
  std::string frame;
  evs::svc::append_frame(frame, evs::svc::encode_request(id, req));
  if (conn.in_flight < cap_ && conn.backlog.empty()) {
    conn.out += frame;
    ++conn.in_flight;
  } else {
    conn.backlog.push_back(std::move(frame));
  }
}

void LoadGen::flush(Conn& c) {
  while (c.fd >= 0 && c.sent < c.out.size()) {
    const ssize_t n = ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      c.sent += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return;  // the poll loop sees the error and fails the connection
    }
  }
  c.out.clear();
  c.sent = 0;
}

void LoadGen::finish(std::uint64_t id, Reply reply) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;
  const Pending p = it->second;
  pending_.erase(it);
  --outstanding_;
  reply.due_us = p.due_us;
  fn_(p.tag, reply);
}

void LoadGen::fail_conn(std::size_t ci) {
  Conn& c = conns_[ci];
  if (c.fd >= 0) ::close(c.fd);
  c.fd = -1;
  std::vector<std::uint64_t> ids;
  for (const auto& [id, p] : pending_)
    if (p.conn == ci) ids.push_back(id);
  c.backlog.clear();
  c.in_flight = 0;
  const std::uint64_t t = now_us();
  for (std::uint64_t id : ids) finish(id, Reply{false, {}, 0, t});
}

void LoadGen::read_replies(std::size_t ci) {
  Conn& c = conns_[ci];
  char buf[32 * 1024];
  bool dead = false;
  for (;;) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      dead = true;
      break;
    }
  }
  const std::uint64_t t = now_us();
  evs::Bytes body;
  while (!dead) {
    const auto st = evs::svc::next_frame(c.in, c.in_off, body);
    if (st == evs::svc::FrameStatus::NeedMore) break;
    if (st == evs::svc::FrameStatus::Malformed) {
      dead = true;
      break;
    }
    evs::svc::WireResponse wire;
    try {
      wire = evs::svc::decode_response(body);
    } catch (const evs::DecodeError&) {
      dead = true;
      break;
    }
    if (c.in_flight > 0) --c.in_flight;
    // A freed slot admits the oldest backlogged request.
    if (!c.backlog.empty() && c.in_flight < cap_) {
      c.out += c.backlog.front();
      c.backlog.pop_front();
      ++c.in_flight;
    }
    finish(wire.request_id, Reply{true, std::move(wire.resp), 0, t});
  }
  if (c.in_off > 0) {
    c.in.erase(0, c.in_off);
    c.in_off = 0;
  }
  if (dead) fail_conn(ci);
}

void LoadGen::poll_until(std::uint64_t wake_us) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    Conn& c = conns_[i];
    if (c.fd < 0) continue;
    if (c.retired && c.in_flight == 0 && c.backlog.empty() && c.out.empty()) {
      ::close(c.fd);  // replaced by reconnect() and drained
      c.fd = -1;
      continue;
    }
    flush(c);
    short ev = POLLIN;
    if (c.sent < c.out.size()) ev |= POLLOUT;
    fds.push_back({c.fd, ev, 0});
    idx.push_back(i);
  }
  const std::uint64_t now = now_us();
  const std::uint64_t wait = wake_us > now ? wake_us - now : 0;
  timespec ts{static_cast<time_t>(wait / 1'000'000),
              static_cast<long>((wait % 1'000'000) * 1'000)};
  if (fds.empty()) {
    ::nanosleep(&ts, nullptr);
    return;
  }
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    const std::size_t ci = idx[k];
    if (conns_[ci].fd < 0) continue;
    if (fds[k].revents & POLLIN) read_replies(ci);
    if (conns_[ci].fd < 0) continue;
    if (fds[k].revents & (POLLERR | POLLHUP | POLLNVAL)) {
      fail_conn(ci);
      continue;
    }
    flush(conns_[ci]);
  }
}

std::size_t LoadGen::drain(std::uint64_t deadline_us) {
  while (outstanding_ > 0 && now_us() < deadline_us)
    poll_until(std::min(deadline_us, now_us() + 10'000));
  std::vector<std::uint64_t> left;
  for (const auto& [id, p] : pending_) left.push_back(id);
  const std::uint64_t t = now_us();
  for (std::uint64_t id : left) finish(id, Reply{false, {}, 0, t});
  return left.size();
}

std::vector<Reply> run_batch(const std::vector<std::uint16_t>& ports,
                             const std::vector<SvcRequest>& reqs,
                             std::size_t window, std::uint64_t timeout_us) {
  std::vector<Reply> replies(reqs.size(), Reply{false, {}, 0, 0});
  LoadGen gen(ports, window, [&](std::uint64_t tag, const Reply& r) {
    replies[tag] = r;
  });
  const std::uint64_t deadline = now_us() + timeout_us;
  std::size_t next = 0;
  while (next < reqs.size() && now_us() < deadline) {
    // Keep each connection's window full, never more: the rest waits here
    // rather than in the generator's backlog.
    while (next < reqs.size()) {
      const std::size_t c = next % ports.size();
      if (gen.in_flight(c) >= window) break;
      gen.submit(c, reqs[next], now_us(), next);
      ++next;
    }
    gen.poll_until(now_us() + 10'000);
  }
  gen.drain(deadline);
  return replies;
}

Reply call_once(std::uint16_t port, const SvcRequest& req,
                std::uint64_t timeout_us) {
  return run_batch({port}, {req}, 1, timeout_us).front();
}

}  // namespace pb
