// evs_perfbench: runs one benchmark workload against the program and
// prints one JSON result line (see perfbench/README.md).
//
//   evs_perfbench --workload log_append|kv_durable|sim_churn --seed N
//                 --seconds S --trace 0|1 --node-bin PATH --work-dir DIR
//   evs_perfbench --self-test
//
// --trace 0 reports the end-to-end metrics; --trace 1 repeats the run with
// the per-layer instrumentation on and reports the per-layer metrics. Every
// workload reports every metric of the set its mode prints.
// Exit status: 0 when the run completed and its checks passed, 1 when a
// check failed, 2 on a usage or harness error.
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>

#include "common.hpp"

namespace pb {

std::uint64_t process_start_us() {
  static const std::uint64_t start = now_us();
  return start;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics a run with tracing off reports (the end-to-end set); every
/// workload measures each of them. Keep in step with BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"write_p50_ms", "ms"}, {"write_p99_ms", "ms"}};

/// Metrics a run with tracing on reports. A workload in which a layer does
/// no work reports that layer's figures as 0 (see README).
const MetricSpec kPerLayer[] = {
    {"net.sendmmsg_per_write", "count"},
    {"net.datagrams_per_write", "count"},
    {"net.wire_bytes_per_write", "B"},
    {"net.frames_per_datagram", "count"},
    {"vsync.frames_encoded_per_write", "count"},
    {"vsync.stability_msgs_per_write", "count"},
    {"cpu.coord_us_per_write", "us"},
    {"cpu.follower_us_per_write", "us"},
    {"svc.admit_us_mean", "us"},
    {"svc.admit_us_p99", "us"},
    {"svc.order_us_mean", "us"},
    {"svc.order_us_p99", "us"},
    {"svc.apply_us_mean", "us"},
    {"svc.apply_us_p99", "us"},
    {"svc.reply_us_mean", "us"},
    {"svc.reply_us_p99", "us"},
    {"waterfall.outside_node_us", "us"},
    {"store.fsyncs_per_put", "count"},
    {"store.wal_bytes_per_put", "B"},
    {"store.batch_records_mean", "count"},
    {"store.sync_us_p50", "us"},
    {"store.sync_us_p99", "us"},
    {"app.snapshot_us", "us"},
    {"store.recover_ms", "ms"},
    {"store.recovered_records", "count"},
    {"app.rejoin_transfer_bytes", "B"},
    {"codec.frame_encode_ns", "ns"},
    {"codec.frame_decode_ns", "ns"},
    {"svc.request_decode_ns", "ns"},
    {"svc.response_encode_ns", "ns"},
    {"log.route_append_ns", "ns"},
    {"gms.msgs_per_view_change", "count"},
    {"gms.bytes_per_view_change", "B"},
    {"gms.view_change_ms", "ms"},
    {"detector.heartbeats_per_member_s", "1/s"},
    {"evs.eview_changes_per_view_change", "count"},
    {"evs.settle_ms", "ms"},
    {"app.transfer_bytes_per_settle", "B"},
    {"sim.view_changes_per_s", "1/s"},
    {"client.append_peak_per_s", "1/s"},
    {"client.get_p50_ms", "ms"},
    {"client.get_p99_ms", "ms"},
    {"client.rejoin_ms", "ms"},
    {"client.lateness_p99_ms", "ms"}};

int usage() {
  std::fprintf(stderr,
               "usage: evs_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --node-bin PATH --work-dir DIR\n"
               "       evs_perfbench --self-test\n");
  return 2;
}

/// Prints the result line: the end-to-end set, or with `trace` the
/// per-layer set. Returns false, printing nothing, when the workload left
/// an end-to-end metric out or set a metric of neither set.
bool print_result(const Result& r, bool trace) {
  std::set<std::string> known;
  for (const MetricSpec& m : kEndToEnd) known.insert(m.name);
  for (const MetricSpec& m : kPerLayer) known.insert(m.name);
  for (const auto& [name, vu] : r.metrics)
    if (known.count(name) == 0) {
      std::fprintf(stderr, "evs_perfbench: unlisted metric %s\n", name.c_str());
      return false;
    }
  std::string metrics;
  auto emit = [&](const MetricSpec& m, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + buf +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  for (const MetricSpec& m : kEndToEnd) {
    const auto it = r.metrics.find(m.name);
    if (it == r.metrics.end() || it->second.second != m.unit) {
      std::fprintf(stderr, "evs_perfbench: %s missing or in another unit\n", m.name);
      return false;
    }
    if (trace) {
      std::fprintf(stderr, "traced run: %s=%.6g\n", m.name, it->second.first);
    } else {
      emit(m, it->second.first);
    }
  }
  if (trace)
    for (const MetricSpec& m : kPerLayer) {
      const auto it = r.metrics.find(m.name);
      if (it != r.metrics.end() && it->second.second != m.unit) {
        std::fprintf(stderr, "evs_perfbench: %s in another unit\n", m.name);
        return false;
      }
      emit(m, it == r.metrics.end() ? 0.0 : it->second.first);
    }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::process_start_us();
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return pb::run_self_test();
    if (i + 1 >= argc) return pb::usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--node-bin") {
      args.node_bin = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return pb::usage();
    }
  }
  if (args.seconds == 0 || args.work_dir.empty()) return pb::usage();

  pb::Result result;
  int rc = 2;
  if (args.workload == "log_append") {
    rc = pb::run_log_append(args, result);
  } else if (args.workload == "kv_durable") {
    rc = pb::run_kv_durable(args, result);
  } else if (args.workload == "sim_churn") {
    rc = pb::run_sim_churn(args, result);
  } else {
    return pb::usage();
  }
  for (const std::string& why : result.problems)
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  if (rc != 0) return rc;
  if (!pb::print_result(result, args.trace)) return 2;
  return result.correct ? 0 : 1;
}
