// Self-test of the correctness checks: each check must pass on clean
// inputs and fail once a fault is planted into them — a duplicated
// position, a payload with one byte changed, a replica holding a stale
// value, a trace event removed, and the like. Prints one line per case
// and exits 0 only when every check behaved.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "fleet.hpp"
#include "sim_churn.hpp"

namespace pb {
namespace {

int g_bad = 0;

void expect(const std::string& name, bool should_fail, const Finding& f) {
  const bool failed = !f.empty();
  const bool good = failed == should_fail;
  if (!good) ++g_bad;
  std::printf("%-44s %s (%s)\n", name.c_str(), good ? "ok" : "WRONG",
              failed ? ("fails: " + f.front()).c_str() : "passes");
}

std::vector<AckedAppend> clean_log(std::uint32_t g) {
  // Shard s holds local positions 0..s+2, so shards have different tails
  // and global positions above a lagging shard's tail exist.
  std::vector<AckedAppend> acked;
  Rng rng(11);
  for (std::uint32_t s = 0; s < g; ++s)
    for (std::uint64_t local = 0; local < s + 3; ++local)
      acked.push_back({local * g + s, s, rng.text(64)});
  return acked;
}

std::vector<std::string> reads_of(const std::vector<AckedAppend>& acked) {
  std::vector<std::string> r;
  for (const AckedAppend& a : acked) r.push_back("D" + a.payload);
  return r;
}

}  // namespace

int run_self_test() {
  constexpr std::uint32_t g = 4;
  const std::vector<AckedAppend> log = clean_log(g);

  expect("log unique positions, clean", false, check_unique_positions(log));
  auto dup = log;
  dup.push_back(dup[3]);
  expect("log unique positions, duplicated position", true, check_unique_positions(dup));

  expect("log per-shard density, clean", false, check_dense_per_shard(log, g));
  auto hole = log;
  hole.erase(hole.begin() + 1);  // shard 0 loses local position 1
  expect("log per-shard density, hole in a shard", true, check_dense_per_shard(hole, g));
  expect("log per-shard density, duplicated position", true, check_dense_per_shard(dup, g));

  expect("log routing, clean", false, check_routing(log, g));
  auto misrouted = log;
  misrouted[0].shard = 1;
  expect("log routing, append in the wrong shard", true, check_routing(misrouted, g));

  // Shard 3 has local positions 0..5, so the tail is 6*4+3 = 27.
  expect("log tail, clean", false,
         check_equal("tail", 27, static_cast<double>(expected_tail(log, g))));
  expect("log tail, one position short", true,
         check_equal("tail", 26, static_cast<double>(expected_tail(log, g))));

  expect("log read-back, clean", false, check_readback(log, reads_of(log)));
  auto flipped = reads_of(log);
  flipped[5][10] ^= 0x01;
  expect("log read-back, payload with one byte changed", true, check_readback(log, flipped));
  auto filled = reads_of(log);
  filled[2] = "F";
  expect("log read-back, junk where data was acked", true, check_readback(log, filled));

  expect("svc ok count, equal", false, check_equal("requests_ok", 1000, 1000));
  expect("svc ok count, one short", true, check_equal("requests_ok", 999, 1000));
  expect("no views, none installed", false, check_no_views("node", 4, 4));
  expect("no views, one installed", true, check_no_views("node", 4, 5));

  const KvImage kv{{"a", "1"}, {"b", "2"}, {"c", "3"}};
  expect("kv replicas, clean", false, check_replicas(kv, {kv, kv, kv}));
  KvImage stale = kv;
  stale["b"] = "1";
  expect("kv replicas, one stale value", true, check_replicas(kv, {kv, stale, kv}));
  KvImage missing = kv;
  missing.erase("c");
  expect("kv replicas, one key missing", true, check_replicas(kv, {kv, kv, missing}));
  expect("kv incarnation, bumped", false, check_incarnation(1, 1, 2));
  expect("kv incarnation, reused", true, check_incarnation(1, 2, 2));

  const MetricMap m = parse_metrics(
      "{\"counters\":{\"node.g1.views_installed\":2,\"node.g2.views_installed\":3},"
      "\"histograms\":{\"svc.admit_us\":{\"count\":4,\"p99\":12.5}}}");
  expect("metrics parser reads counters", false,
         check_equal("sum", sum_matching(m, "counters.node.g", ".views_installed"), 5));
  expect("metrics parser reads histograms", false,
         check_equal("p99", m.count("histograms.svc.admit_us.p99") ? 12.5 : 0, 12.5));

  // The simulator's trace: a real round must pass, and removing one
  // Figure-1 mode transition must break the mode chain it belonged to.
  RoundOutcome r = run_round(7, 16, 0, nullptr);
  if (!r.harness_error.empty()) {
    std::printf("sim round failed to run: %s\n", r.harness_error.c_str());
    return 1;
  }
  expect("sim trace, clean round", false, check_trace(r.events));
  expect("sim replicas, clean round", false, r.findings);
  // Remove a transition that changed the mode and was followed by another
  // one of the same process: the next one then starts from the wrong mode.
  auto trace = r.events;
  for (auto it = trace.begin(); it != trace.end(); ++it) {
    if (it->kind != evs::obs::EventKind::ModeTransition || it->value == it->aux) continue;
    const auto later = std::find_if(it + 1, trace.end(), [&](const auto& e) {
      return e.kind == evs::obs::EventKind::ModeTransition && e.proc == it->proc;
    });
    if (later == trace.end()) continue;
    trace.erase(it);
    break;
  }
  expect("sim trace, one mode transition removed", true, check_trace(trace));
  trace = r.events;
  for (auto it = trace.begin(); it != trace.end(); ++it)
    if (it->kind == evs::obs::EventKind::MessageSent) {
      trace.erase(it);
      break;
    }
  expect("sim trace, one send removed", true, check_trace(trace));

  std::printf("%s\n", g_bad == 0 ? "self-test passed" : "self-test FAILED");
  return g_bad == 0 ? 0 : 1;
}

}  // namespace pb
