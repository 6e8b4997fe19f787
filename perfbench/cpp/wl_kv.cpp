// Workload kv_durable: 3 evs_node processes hosting the MergeableKv, each
// with a WAL store directory. An open-loop mix sends Puts to the
// coordinator and Gets to all three nodes; then a fixed number of
// SIGKILL-and-restart cycles hit a non-coordinator while Puts continue.
#include <unistd.h>

#include <cstdio>
#include <map>
#include <set>
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
constexpr double kPutRate = 200;       // Puts/s, to the coordinator
constexpr double kGetRate = 400;       // Gets/s, over the three nodes
constexpr double kRate = kPutRate + kGetRate;
constexpr std::size_t kKeys = 32;      // key space
constexpr std::size_t kValueBytes = 64;
constexpr int kRestarts = 5;           // SIGKILL-and-restart cycles
constexpr std::size_t kDownPuts = 16;  // Puts acked while the victim is down
constexpr std::size_t kCap = 64;

std::string key_name(std::uint64_t k) { return "key" + std::to_string(k); }

std::string make_value(Rng& rng, std::uint64_t key, std::uint64_t index) {
  std::string v = key_name(key) + "-" + std::to_string(index) + "-";
  v += rng.text(kValueBytes > v.size() ? kValueBytes - v.size() : 1);
  return v;
}

SvcRequest put_req(const std::string& key, const std::string& value) {
  SvcRequest r;
  r.op = SvcOp::Put;
  r.key = key;
  r.value = value;
  return r;
}

SvcRequest get_req(const std::string& key) {
  SvcRequest r;
  r.op = SvcOp::Get;
  r.key = key;
  return r;
}

/// Reads every key of `expected` from `node`; absent keys stay absent.
KvImage read_image(const Fleet& fleet, int node, const KvImage& expected) {
  std::vector<SvcRequest> reqs;
  for (const auto& [k, v] : expected) reqs.push_back(get_req(k));
  const std::vector<Reply> got = run_batch({fleet.svc_port(node)}, reqs, 32, 10'000'000);
  KvImage img;
  std::size_t i = 0;
  for (const auto& [k, v] : expected) {
    const Reply& r = got[i++];
    if (r.ok_io && r.resp.status == SvcStatus::Ok && !r.resp.value.empty())
      img[k] = r.resp.value;
  }
  return img;
}

/// Polls until every node in `nodes` holds `expected`; returns the images
/// of the last poll.
std::vector<KvImage> await_images(const Fleet& fleet, const std::vector<int>& nodes,
                                  const KvImage& expected, std::uint64_t timeout_us) {
  const std::uint64_t deadline = now_us() + timeout_us;
  std::vector<KvImage> imgs;
  for (;;) {
    imgs.clear();
    for (int n : nodes) imgs.push_back(read_image(fleet, n, expected));
    if (check_replicas(expected, imgs).empty() || now_us() >= deadline) return imgs;
    ::usleep(5'000);
  }
}

}  // namespace

int run_kv_durable(const Args& args, Result& out) {
  Rng rng(args.seed);
  Fleet fleet({args.node_bin, args.work_dir, kNodes, 0, "kv", true});
  if (!fleet.start()) {
    std::fprintf(stderr, "kv_durable: could not start the fleet\n");
    return 2;
  }
  auto all_full = [&]() {
    for (int i = 0; i < kNodes; ++i)
      if (!fleet.full_view(i)) return false;
    return true;
  };
  if (!fleet.await(60'000, all_full)) {
    std::fprintf(stderr, "kv_durable: the fleet never formed a full view\n");
    return 2;
  }
  const int coord = fleet.coordinator(0);
  if (coord < 0 || coord >= kNodes) {
    std::fprintf(stderr, "kv_durable: no coordinator\n");
    return 2;
  }

  KvImage acked;  // key -> last acknowledged value
  std::uint64_t index = 0;
  // Ready to serve: a Put acked by the coordinator and visible everywhere.
  {
    const std::uint64_t k = rng.below(kKeys);
    const std::string v = make_value(rng, k, index++);
    bool ok = false;
    for (std::uint64_t deadline = now_us() + 30'000'000; !ok && now_us() < deadline;) {
      const Reply r = call_once(fleet.svc_port(coord), put_req(key_name(k), v), 5'000'000);
      ok = r.ok_io && r.resp.status == SvcStatus::Ok;
      if (!ok) ::usleep(5'000);
    }
    if (!ok) {
      std::fprintf(stderr, "kv_durable: the coordinator never acked a Put\n");
      return 2;
    }
    acked[key_name(k)] = v;
    std::vector<int> all{0, 1, 2};
    if (!check_replicas(acked, await_images(fleet, all, acked, 30'000'000)).empty()) {
      std::fprintf(stderr, "kv_durable: replicas never served the first Put\n");
      return 2;
    }
  }
  const double setup_s = static_cast<double>(now_us() - process_start_us()) / 1e6;

  std::vector<MetricMap> before(kNodes), after(kNodes);
  std::vector<double> cpu_before(kNodes), cpu_after(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    before[i] = fleet.metrics(i);
    cpu_before[i] = fleet.cpu_seconds(i);
  }

  // Connection 0 carries the Puts to the coordinator, connection 1+i the
  // Gets to node i: one kind of request per connection.
  struct Op {
    bool put;
    int node;
    std::string key;
    std::string value;
  };
  std::vector<Op> ops;
  std::vector<double> lateness_ms, coord_lat_us;
  std::vector<Timed> put_timed, get_timed;
  std::uint64_t failed = 0, puts_ok = 0;
  std::size_t foreign_reads = 0;
  std::vector<std::uint16_t> ports{fleet.svc_port(coord)};
  for (int i = 0; i < kNodes; ++i) ports.push_back(fleet.svc_port(i));
  LoadGen gen(ports, kCap, [&](std::uint64_t tag, const Reply& r) {
    const Op& op = ops[tag];
    if (!r.ok_io || r.resp.status != SvcStatus::Ok) {
      ++failed;
      return;
    }
    const double lat_us = static_cast<double>(r.done_us - r.due_us);
    if (op.node == coord) coord_lat_us.push_back(lat_us);
    if (op.put) {
      ++puts_ok;
      acked[op.key] = op.value;
      put_timed.emplace_back(r.due_us, lat_us / 1e3);
    } else {
      get_timed.emplace_back(r.due_us, lat_us / 1e3);
      // A Get returns nothing or a value once written to that key.
      if (!r.resp.value.empty() && r.resp.value.rfind(op.key + "-", 0) != 0)
        ++foreign_reads;
    }
  });
  if (!gen.all_connected()) {
    std::fprintf(stderr, "kv_durable: could not connect\n");
    return 2;
  }

  // Open loop: Poisson arrivals at kRate; each is a Put to the coordinator
  // with probability kPutRate / kRate, else a Get to a node drawn at random.
  // The Get connections are replaced every second, as in log_append. The
  // Put connection stays: all Puts share it and the coordinator answers
  // them in its total order, so the last Put acknowledged is the last
  // applied (across two connections, replies could cross).
  const std::uint64_t n_ops =
      static_cast<std::uint64_t>(kRate * static_cast<double>(args.seconds));
  const std::uint64_t t0 = now_us() + 1'000;
  double t_off = rng.gap_us(kRate);
  std::uint64_t window = 0;
  for (std::uint64_t i = 0; i < n_ops;) {
    const std::uint64_t now = now_us();
    for (; i < n_ops && t0 + static_cast<std::uint64_t>(t_off) <= now; ++i) {
      const std::uint64_t due = t0 + static_cast<std::uint64_t>(t_off);
      if ((due - t0) / 1'000'000 != window) {
        window = (due - t0) / 1'000'000;
        for (std::size_t c = 1; c <= kNodes; ++c) gen.reconnect(c);
      }
      lateness_ms.push_back(static_cast<double>(now - due) / 1e3);
      const std::uint64_t k = rng.below(kKeys);
      Op op;
      op.put = static_cast<double>(rng.below(1'000'000)) < 1e6 * kPutRate / kRate;
      if (op.put) {
        op.node = coord;
        op.key = key_name(k);
        op.value = make_value(rng, k, index++);
      } else {
        op.node = static_cast<int>(rng.below(kNodes));
        op.key = key_name(k);
      }
      ops.push_back(op);
      gen.submit(op.put ? 0 : static_cast<std::size_t>(op.node) + 1,
                 op.put ? put_req(op.key, op.value) : get_req(op.key), due,
                 ops.size() - 1);
      t_off += rng.gap_us(kRate);
    }
    gen.poll_until(i < n_ops ? t0 + static_cast<std::uint64_t>(t_off) : now_us());
  }
  gen.drain(now_us() + 30'000'000);
  out.attempted = n_ops;
  for (int i = 0; i < kNodes; ++i) {
    after[i] = fleet.metrics(i);
    cpu_after[i] = fleet.cpu_seconds(i);
  }

  // ---- checks after the load window ----
  for (int i = 0; i < kNodes; ++i)
    absorb(out, check_no_views("kv: node " + std::to_string(i),
                               metric(before[i], "counters.node.views_installed"),
                               metric(after[i], "counters.node.views_installed")));
  if (foreign_reads > 0)
    out.violate("kv: " + std::to_string(foreign_reads) +
                " Get(s) returned a value never written to that key");
  absorb(out, check_replicas(acked, await_images(fleet, {0, 1, 2}, acked, 10'000'000)));

  // ---- restart cycles ----
  // The cycles share one budget, so that a member that never catches up
  // fails the run's checks instead of outlasting the run's time limit.
  const std::uint64_t cycles_deadline = now_us() + 60'000'000;
  auto left_us = [&]() {
    const std::uint64_t now = now_us();
    return now < cycles_deadline ? cycles_deadline - now : 0;
  };
  std::vector<double> rejoin_ms, recover_ms, recovered, transfer_bytes;
  for (int c = 0; c < kRestarts; ++c) {
    const int victim = (coord + 1 + c % (kNodes - 1)) % kNodes;
    const std::uint32_t inc_before = fleet.incarnation(victim);
    const std::uint64_t t_kill = now_us();
    fleet.kill9(victim);
    if (args.trace) {
      const RecoverSpan span = measure_recover(
          args.work_dir + "/store" + std::to_string(victim), args.work_dir + "/recover");
      recover_ms.push_back(span.ms);
    }
    // Writes while the victim is down, so it has something to catch up on.
    std::vector<SvcRequest> puts;
    std::vector<std::pair<std::string, std::string>> kv;
    std::set<std::string> used;
    while (puts.size() < kDownPuts) {
      const std::uint64_t k = rng.below(kKeys);
      if (!used.insert(key_name(k)).second) continue;
      kv.emplace_back(key_name(k), make_value(rng, k, index++));
      puts.push_back(put_req(kv.back().first, kv.back().second));
    }
    const std::vector<Reply> put_replies =
        run_batch({fleet.svc_port(coord)}, puts, kCap, left_us());
    out.attempted += puts.size();
    for (std::size_t i = 0; i < puts.size(); ++i) {
      if (put_replies[i].ok_io && put_replies[i].resp.status == SvcStatus::Ok)
        acked[kv[i].first] = kv[i].second;
      else
        ++failed;
    }
    if (!fleet.spawn(victim)) {
      std::fprintf(stderr, "kv_durable: could not restart node %d\n", victim);
      return 2;
    }
    if (!fleet.await(static_cast<int>(left_us() / 1000),
                     [&]() { return fleet.incarnation(victim) != 0; })) {
      out.violate("kv: node " + std::to_string(victim) + " never came back up");
      break;
    }
    const std::vector<KvImage> img = await_images(fleet, {victim}, acked, left_us());
    rejoin_ms.push_back(static_cast<double>(now_us() - t_kill) / 1e3);
    absorb(out, check_replicas(acked, img));
    absorb(out, check_incarnation(victim, inc_before, fleet.incarnation(victim)));
    if (args.trace) {
      const MetricMap vm = fleet.metrics(victim);
      recovered.push_back(metric(vm, "counters.store.recovered_records"));
      // State shipped to the restarted member: offer snapshots or deltas.
      transfer_bytes.push_back(metric(vm, "counters.node.snapshot_bytes") +
                               metric(vm, "counters.node.delta_bytes_received"));
    }
    // The next cycle starts from a whole group again.
    if (!fleet.await(static_cast<int>(left_us() / 1000), all_full)) {
      out.violate("kv: node " + std::to_string(victim) + " never rejoined the view");
      break;
    }
  }
  absorb(out, check_replicas(acked, await_images(fleet, {0, 1, 2}, acked, 10'000'000)));
  out.failed = failed;

  out.set("setup_s", setup_s, "s");
  out.set("write_p50_ms", windowed_quantile(put_timed, 0.50), "ms");
  out.set("write_p99_ms", windowed_quantile(put_timed, 0.99), "ms");
  if (!args.trace) {
    fleet.stop();
    return 0;
  }

  const double writes = static_cast<double>(puts_ok);
  auto delta_all = [&](const std::string& key) {
    double d = 0;
    for (int i = 0; i < kNodes; ++i) d += metric(after[i], key) - metric(before[i], key);
    return d;
  };
  const double datagrams = delta_all("counters.transport.datagrams_sent");
  out.set("net.sendmmsg_per_write",
          ratio(delta_all("counters.transport.syscalls.sendmsg_calls"), writes), "count");
  out.set("net.datagrams_per_write", ratio(datagrams, writes), "count");
  out.set("net.wire_bytes_per_write",
          ratio(delta_all("counters.transport.bytes_sent"), writes), "B");
  out.set("net.frames_per_datagram",
          ratio(delta_all("counters.transport.frames_sent"), datagrams), "count");
  out.set("vsync.frames_encoded_per_write",
          ratio(delta_all("counters.node.frames_encoded"), writes), "count");
  out.set("vsync.stability_msgs_per_write",
          ratio(delta_all("counters.node.stability_gc_messages"), writes), "count");
  double follower_cpu = 0;
  for (int i = 0; i < kNodes; ++i)
    if (i != coord) follower_cpu += cpu_after[i] - cpu_before[i];
  out.set("cpu.coord_us_per_write",
          ratio((cpu_after[coord] - cpu_before[coord]) * 1e6, writes), "us");
  out.set("cpu.follower_us_per_write",
          ratio(follower_cpu * 1e6 / (kNodes - 1), writes), "us");
  const MetricMap& m = after[coord];
  for (const char* h : {"admit_us", "reply_us"}) {
    out.set(std::string("svc.") + h + "_mean", metric(m, std::string("histograms.svc.") + h + ".mean"), "us");
    out.set(std::string("svc.") + h + "_p99", metric(m, std::string("histograms.svc.") + h + ".p99"), "us");
  }
  for (const char* h : {"order_us", "apply_us"}) {
    out.set(std::string("svc.") + h + "_mean", metric(m, std::string("histograms.node.svc.") + h + ".mean"), "us");
    out.set(std::string("svc.") + h + "_p99", metric(m, std::string("histograms.node.svc.") + h + ".p99"), "us");
  }
  out.set("waterfall.outside_node_us",
          mean(coord_lat_us) - metric(m, "histograms.svc.latency_us.mean"), "us");
  out.set("store.fsyncs_per_put",
          ratio(delta_all("counters.store.fsync_calls") / kNodes, writes), "count");
  out.set("store.wal_bytes_per_put",
          ratio(delta_all("counters.store.wal_bytes") / kNodes, writes), "B");
  out.set("store.batch_records_mean", metric(m, "histograms.store.batch_records.mean"), "count");
  out.set("store.sync_us_p50", metric(m, "histograms.store.sync_us.p50"), "us");
  out.set("store.sync_us_p99", metric(m, "histograms.store.sync_us.p99"), "us");
  out.set("app.snapshot_us", measure_snapshot_us(kKeys, kValueBytes, args.seed), "us");
  const RequestPathSpans spans = measure_request_path(kValueBytes, 1, args.seed);
  out.set("codec.frame_encode_ns", spans.frame_encode_ns, "ns");
  out.set("codec.frame_decode_ns", spans.frame_decode_ns, "ns");
  out.set("svc.request_decode_ns", spans.request_decode_ns, "ns");
  out.set("svc.response_encode_ns", spans.response_encode_ns, "ns");
  out.set("store.recover_ms", quantile(recover_ms, 0.5), "ms");
  out.set("store.recovered_records", quantile(recovered, 0.5), "count");
  out.set("app.rejoin_transfer_bytes", quantile(transfer_bytes, 0.5), "B");
  out.set("client.get_p50_ms", windowed_quantile(get_timed, 0.50), "ms");
  out.set("client.get_p99_ms", windowed_quantile(get_timed, 0.99), "ms");
  out.set("client.rejoin_ms", quantile(rejoin_ms, 0.50), "ms");
  out.set("client.lateness_p99_ms", quantile(lateness_ms, 0.99), "ms");
  fleet.stop();
  return 0;
}

}  // namespace pb
