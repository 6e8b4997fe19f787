// The load generator: one thread, a few persistent TCP connections to
// svc front doors, pipelined requests matched to replies by id.
//
// Requests carry the time they were due. A request is written as soon as
// it is submitted unless its connection already has `cap` requests in
// flight (the front door's per-connection admission limit), in which case
// it waits in a local backlog; either way its latency is measured from
// the due time to the reply, so a stall is charged to every request it
// delays. A connection that fails, and every request still outstanding
// when the caller gives up, is reported as failed through the callback —
// the generator never aborts a run.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "runtime/svc.hpp"

namespace pb {

struct Reply {
  bool ok_io = true;  // false: connection failed or request abandoned
  evs::runtime::SvcResponse resp;
  std::uint64_t due_us = 0;
  std::uint64_t done_us = 0;
};

class LoadGen {
 public:
  using ReplyFn = std::function<void(std::uint64_t tag, const Reply&)>;

  /// One connection per entry of `ports` (loopback); `cap` bounds the
  /// requests in flight on each.
  LoadGen(const std::vector<std::uint16_t>& ports, std::size_t cap, ReplyFn fn);
  ~LoadGen();
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Opens a fresh connection to port `c` for the requests submitted on
  /// `c` from now on; the old one closes once its requests are answered.
  void reconnect(std::size_t c);
  /// Every current connection is open.
  bool all_connected() const;

  /// Queues `req` on current connection `c` (an index into the ports);
  /// `tag` comes back with the reply.
  void submit(std::size_t c, const evs::runtime::SvcRequest& req,
              std::uint64_t due_us, std::uint64_t tag);
  /// Writes what is queued, waits for I/O until `wake_us` at the latest
  /// (µs precision), reads and dispatches every complete reply.
  void poll_until(std::uint64_t wake_us);
  /// Requests submitted and not yet answered (backlog included).
  std::size_t outstanding() const { return outstanding_; }
  std::size_t in_flight(std::size_t c) const;
  /// Drives I/O until nothing is outstanding or `deadline_us` passes; what
  /// is left is failed through the callback. Returns the number failed.
  std::size_t drain(std::uint64_t deadline_us);

 private:
  struct Pending {
    std::uint64_t tag;
    std::uint64_t due_us;
    std::size_t conn;
  };
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t sent = 0;
    std::string in;
    std::size_t in_off = 0;
    std::size_t in_flight = 0;
    bool retired = false;  // replaced by reconnect()
    std::deque<std::string> backlog;  // frames waiting for a free slot
  };
  void flush(Conn& c);
  void read_replies(std::size_t ci);
  void fail_conn(std::size_t ci);
  void finish(std::uint64_t id, Reply reply);

  std::vector<std::uint16_t> ports_;
  std::vector<Conn> conns_;          // every connection opened
  std::vector<std::size_t> current_;  // port index -> its current connection
  std::size_t cap_;
  ReplyFn fn_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  std::uint64_t next_id_ = 1;
  std::size_t outstanding_ = 0;
};

/// Runs `reqs` over one connection per entry of `ports` (request i on
/// connection i % ports.size()), keeping at most `window` in flight on
/// each; gives up after `timeout_us`. Replies come back in request order.
std::vector<Reply> run_batch(const std::vector<std::uint16_t>& ports,
                             const std::vector<evs::runtime::SvcRequest>& reqs,
                             std::size_t window, std::uint64_t timeout_us);

/// One request on a fresh connection to `port`.
Reply call_once(std::uint16_t port, const evs::runtime::SvcRequest& req,
                std::uint64_t timeout_us);

}  // namespace pb
