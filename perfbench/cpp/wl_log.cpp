// Workload log_append: 3 evs_node processes hosting 4 log shard groups, no
// store. An open-loop phase sends LogAppends at a fixed rate well below
// the peak, then a closed-loop phase keeps a fixed window outstanding to
// find the peak. Every acked position is read back afterwards.
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "fleet.hpp"
#include "loadgen.hpp"
#include "spans.hpp"

namespace pb {
namespace {

using evs::runtime::SvcOp;
using evs::runtime::SvcRequest;
using evs::runtime::SvcStatus;

constexpr int kNodes = 3;
constexpr std::uint32_t kShards = 4;
constexpr double kOpenRate = 250;      // appends/s in the open-loop phase
constexpr double kOpenShare = 0.9;     // of --seconds; the rest is closed-loop
constexpr std::uint64_t kPeakWindowUs = 200'000;  // closed-loop rate windows
constexpr std::size_t kWindow = 32;    // closed-loop appends per connection
constexpr std::size_t kValueBytes = 64;
constexpr std::size_t kCap = 64;       // the front door's per-connection cap

struct Op {
  std::uint32_t shard = 0;
  std::string key;
  std::string payload;
  bool open_loop = true;
};

Op make_op(Rng& rng, std::uint64_t seed, std::uint64_t index, bool open_loop) {
  Op op;
  const std::uint64_t key = rng.below(1'000'000);
  op.key = std::to_string(key);
  op.shard = static_cast<std::uint32_t>(key % kShards);
  char head[40];
  std::snprintf(head, sizeof(head), "%08llx-%010llu-",
                static_cast<unsigned long long>(seed & 0xffffffffu),
                static_cast<unsigned long long>(index));
  op.payload = head;
  op.payload += rng.text(kValueBytes - op.payload.size());
  op.open_loop = open_loop;
  return op;
}

SvcRequest append_req(const Op& op) {
  SvcRequest req;
  req.op = SvcOp::LogAppend;
  req.key = op.key;
  req.value = op.payload;
  return req;
}

bool parse_u64(const std::string& s, std::uint64_t& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  out = std::strtoull(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

/// Count-weighted mean and the largest p99 of one histogram per group.
std::pair<double, double> group_hist(const MetricMap& m, const std::string& name) {
  double sum = 0, count = 0, p99 = 0;
  for (std::uint32_t g = 1; g <= kShards; ++g) {
    const std::string base = "histograms.node.g" + std::to_string(g) + "." + name;
    const auto c = m.find(base + ".count");
    if (c == m.end() || c->second <= 0) continue;
    count += c->second;
    sum += m.at(base + ".mean") * c->second;
    p99 = std::max(p99, m.at(base + ".p99"));
  }
  return {ratio(sum, count), p99};
}

}  // namespace

int run_log_append(const Args& args, Result& out) {
  Rng rng(args.seed);
  reserve_generator_cpu(kNodes);
  Fleet fleet({args.node_bin, args.work_dir, kNodes, kShards, "", false});
  if (!fleet.start()) {
    std::fprintf(stderr, "log_append: could not start the fleet\n");
    return 2;
  }
  if (!fleet.await(60'000, [&]() {
        for (int i = 0; i < kNodes; ++i)
          if (!fleet.full_view(i)) return false;
        return true;
      })) {
    std::fprintf(stderr, "log_append: the fleet never formed full views\n");
    return 2;
  }
  const int coord = fleet.coordinator(0);
  if (coord < 0 || coord >= kNodes) {
    std::fprintf(stderr, "log_append: no coordinator\n");
    return 2;
  }
  const std::uint16_t port = fleet.svc_port(coord);

  std::vector<Op> ops;
  std::vector<AckedAppend> acked;
  // Ready to serve: one append acked by every shard. These probes belong
  // to the log like any other append and are read back with the rest.
  for (std::uint32_t s = 0; s < kShards; ++s) {
    Op probe = make_op(rng, args.seed, ops.size(), false);
    probe.key = std::to_string(s);
    probe.shard = s;
    bool ok = false;
    for (std::uint64_t deadline = now_us() + 30'000'000; !ok && now_us() < deadline;) {
      const Reply r = call_once(port, append_req(probe), 5'000'000);
      std::uint64_t pos = 0;
      if (r.ok_io && r.resp.status == SvcStatus::Ok && parse_u64(r.resp.value, pos)) {
        acked.push_back({pos, s, probe.payload});
        ok = true;
      } else if (!r.ok_io || r.resp.status != SvcStatus::Unavailable) {
        break;  // anything but "not yet" is a harness failure
      } else {
        ::usleep(5'000);
      }
    }
    if (!ok) {
      std::fprintf(stderr, "log_append: shard %u never accepted an append\n", s);
      return 2;
    }
    ops.push_back(probe);
  }
  const double setup_s = static_cast<double>(now_us() - process_start_us()) / 1e6;

  const std::size_t conns =
      std::min<std::size_t>(4, static_cast<std::size_t>(::sysconf(_SC_NPROCESSORS_ONLN)));
  std::vector<MetricMap> before(kNodes), after(kNodes);
  std::vector<double> cpu_before(kNodes), cpu_after(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    before[i] = fleet.metrics(i);
    cpu_before[i] = fleet.cpu_seconds(i);
  }

  std::vector<double> lateness_ms;
  std::vector<Timed> open_timed;
  std::vector<double> all_lat_us;
  std::uint64_t ok_count = 0, failed = 0;
  std::uint64_t closed_start_us = 0, closed_end_us = 0;
  std::vector<double> closed_per_window;  // Ok replies per closed-loop window
  std::vector<std::string> failures;
  LoadGen gen(std::vector<std::uint16_t>(conns, port), kCap,
              [&](std::uint64_t tag, const Reply& r) {
                const Op& op = ops[tag];
                std::uint64_t pos = 0;
                if (r.ok_io && r.resp.status == SvcStatus::Ok &&
                    parse_u64(r.resp.value, pos)) {
                  ++ok_count;
                  acked.push_back({pos, op.shard, op.payload});
                  const double lat_us = static_cast<double>(r.done_us - r.due_us);
                  all_lat_us.push_back(lat_us);
                  if (op.open_loop)
                    open_timed.emplace_back(r.due_us, lat_us / 1e3);
                  else if (closed_start_us > 0 && r.done_us >= closed_start_us &&
                           r.done_us < closed_end_us)
                    ++closed_per_window[(r.done_us - closed_start_us) / kPeakWindowUs];
                } else {
                  ++failed;
                  if (failures.size() < 5)
                    failures.push_back(r.ok_io ? evs::runtime::to_string(r.resp.status)
                                               : "io/timeout");
                }
              });
  if (!gen.all_connected()) {
    std::fprintf(stderr, "log_append: could not connect\n");
    return 2;
  }

  // Open loop: Poisson arrivals at kOpenRate (independent clients), all on
  // one long-lived connection, sent when due whatever came back. Under the
  // front door's Nagle-delayed replies (see README) a reply waits for the
  // ACK the next request carries, so the latency a client sees follows the
  // gap to the next request; on one connection at a fixed rate that gap
  // has the same distribution in every run.
  const std::uint64_t n_open = static_cast<std::uint64_t>(
      kOpenRate * static_cast<double>(args.seconds) * kOpenShare);
  const std::size_t first_open = ops.size();
  std::vector<std::uint64_t> due_off(n_open);
  double t_off = 0;
  for (std::uint64_t i = 0; i < n_open; ++i) {
    t_off += rng.gap_us(kOpenRate);
    due_off[i] = static_cast<std::uint64_t>(t_off);
    ops.push_back(make_op(rng, args.seed, ops.size(), true));
  }
  const std::uint64_t t0 = now_us() + 1'000;
  for (std::uint64_t i = 0; i < n_open;) {
    const std::uint64_t now = now_us();
    for (; i < n_open && t0 + due_off[i] <= now; ++i) {
      lateness_ms.push_back(static_cast<double>(now - t0 - due_off[i]) / 1e3);
      gen.submit(0, append_req(ops[first_open + i]), t0 + due_off[i], first_open + i);
    }
    gen.poll_until(i < n_open ? t0 + due_off[i] : now_us());
  }
  gen.drain(now_us() + 30'000'000);

  // Closed loop: a fixed window per connection, refilled on every reply.
  const std::uint64_t windows = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(args.seconds) * (1 - kOpenShare) *
                                    1e6 / kPeakWindowUs));
  closed_per_window.assign(windows, 0);
  closed_start_us = now_us();
  closed_end_us = closed_start_us + windows * kPeakWindowUs;
  while (now_us() < closed_end_us) {
    for (std::size_t c = 0; c < conns; ++c)
      while (gen.all_connected() && gen.in_flight(c) < kWindow) {
        ops.push_back(make_op(rng, args.seed, ops.size(), false));
        gen.submit(c, append_req(ops.back()), now_us(), ops.size() - 1);
      }
    gen.poll_until(std::min(closed_end_us, now_us() + 1'000));
  }
  gen.drain(now_us() + 30'000'000);
  const std::uint64_t appends = ops.size() - kShards;

  for (int i = 0; i < kNodes; ++i) {
    after[i] = fleet.metrics(i);
    cpu_after[i] = fleet.cpu_seconds(i);
  }

  // ---- checks ----
  for (int i = 0; i < kNodes; ++i)
    absorb(out, check_no_views(
                    "log: node " + std::to_string(i),
                    sum_matching(before[i], "counters.node.g", ".views_installed"),
                    sum_matching(after[i], "counters.node.g", ".views_installed")));
  absorb(out, check_equal("log: coordinator svc.requests_ok delta",
                          metric(after[coord], "counters.svc.requests_ok") -
                              metric(before[coord], "counters.svc.requests_ok"),
                          static_cast<double>(ok_count)));
  absorb(out, check_unique_positions(acked));
  absorb(out, check_routing(acked, kShards));
  absorb(out, check_dense_per_shard(acked, kShards));
  SvcRequest tail_req;
  tail_req.op = SvcOp::LogTail;
  const Reply tail = call_once(port, tail_req, 10'000'000);
  std::uint64_t tail_pos = 0;
  if (!tail.ok_io || tail.resp.status != SvcStatus::Ok ||
      !parse_u64(tail.resp.value, tail_pos))
    out.violate("log: LogTail failed");
  else
    absorb(out, check_equal("log: LogTail", static_cast<double>(tail_pos),
                            static_cast<double>(expected_tail(acked, kShards))));
  std::vector<SvcRequest> reads(acked.size());
  for (std::size_t i = 0; i < acked.size(); ++i) {
    reads[i].op = SvcOp::LogRead;
    reads[i].key = std::to_string(acked[i].position);
  }
  const std::vector<Reply> got =
      run_batch(std::vector<std::uint16_t>(conns, port), reads, kCap, 60'000'000);
  std::vector<std::string> values(got.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    if (got[i].ok_io && got[i].resp.status == SvcStatus::Ok) values[i] = got[i].resp.value;
  absorb(out, check_readback(acked, values));
  for (const std::string& f : failures)
    std::fprintf(stderr, "log_append: failed append: %s\n", f.c_str());

  // ---- metrics ----
  out.attempted = appends;
  out.failed = failed;
  const double p50 = windowed_quantile(open_timed, 0.50);
  const double p99 = windowed_quantile(open_timed, 0.99);
  out.set("setup_s", setup_s, "s");
  out.set("write_p50_ms", p50, "ms");
  out.set("write_p99_ms", p99, "ms");
  if (!args.trace) {
    fleet.stop();
    return 0;
  }

  const double writes = static_cast<double>(ok_count);
  auto delta_all = [&](const std::string& prefix, const std::string& suffix) {
    double d = 0;
    for (int i = 0; i < kNodes; ++i)
      d += sum_matching(after[i], prefix, suffix) - sum_matching(before[i], prefix, suffix);
    return d;
  };
  const double datagrams = delta_all("counters.transport.datagrams_sent", "");
  out.set("net.sendmmsg_per_write",
          ratio(delta_all("counters.transport.syscalls.sendmsg_calls", ""), writes), "count");
  out.set("net.datagrams_per_write", ratio(datagrams, writes), "count");
  out.set("net.wire_bytes_per_write",
          ratio(delta_all("counters.transport.bytes_sent", ""), writes), "B");
  out.set("net.frames_per_datagram",
          ratio(delta_all("counters.transport.frames_sent", ""), datagrams), "count");
  out.set("vsync.frames_encoded_per_write",
          ratio(delta_all("counters.node.g", ".frames_encoded"), writes), "count");
  out.set("vsync.stability_msgs_per_write",
          ratio(delta_all("counters.node.g", ".stability_gc_messages"), writes), "count");
  double follower_cpu = 0;
  for (int i = 0; i < kNodes; ++i)
    if (i != coord) follower_cpu += cpu_after[i] - cpu_before[i];
  out.set("cpu.coord_us_per_write",
          ratio((cpu_after[coord] - cpu_before[coord]) * 1e6, writes), "us");
  out.set("cpu.follower_us_per_write",
          ratio(follower_cpu * 1e6 / (kNodes - 1), writes), "us");
  const MetricMap& m = after[coord];
  out.set("svc.admit_us_mean", metric(m, "histograms.svc.admit_us.mean"), "us");
  out.set("svc.admit_us_p99", metric(m, "histograms.svc.admit_us.p99"), "us");
  out.set("svc.reply_us_mean", metric(m, "histograms.svc.reply_us.mean"), "us");
  out.set("svc.reply_us_p99", metric(m, "histograms.svc.reply_us.p99"), "us");
  const auto order = group_hist(m, "svc.order_us");
  const auto apply = group_hist(m, "svc.apply_us");
  out.set("svc.order_us_mean", order.first, "us");
  out.set("svc.order_us_p99", order.second, "us");
  out.set("svc.apply_us_mean", apply.first, "us");
  out.set("svc.apply_us_p99", apply.second, "us");
  out.set("waterfall.outside_node_us",
          mean(all_lat_us) - metric(m, "histograms.svc.latency_us.mean"), "us");
  out.set("store.fsyncs_per_put",
          ratio(delta_all("counters.store.fsync_calls", ""), writes), "count");
  out.set("store.wal_bytes_per_put",
          ratio(delta_all("counters.store.wal_bytes", ""), writes), "B");
  const RequestPathSpans spans = measure_request_path(kValueBytes, kShards, args.seed);
  out.set("codec.frame_encode_ns", spans.frame_encode_ns, "ns");
  out.set("codec.frame_decode_ns", spans.frame_decode_ns, "ns");
  out.set("svc.request_decode_ns", spans.request_decode_ns, "ns");
  out.set("svc.response_encode_ns", spans.response_encode_ns, "ns");
  out.set("log.route_append_ns", spans.route_append_ns, "ns");
  // The median closed-loop window: one window the host preempted moves it
  // little.
  out.set("client.append_peak_per_s",
          quantile(closed_per_window, 0.5) * 1e6 / kPeakWindowUs, "1/s");
  out.set("client.lateness_p99_ms", quantile(lateness_ms, 0.99), "ms");
  fleet.stop();
  return 0;
}

}  // namespace pb
