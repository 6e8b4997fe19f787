// Workload sim_churn: the protocol stack inside the deterministic
// simulator, n=16 members hosting a MergeableKv on one thread. Each round
// builds a fresh seeded world and runs a fixed fault schedule: partition,
// writes on both sides, crash, heal, recovery, merge-all, writes on the
// whole group. Rounds repeat until --seconds of wall time have passed.
#include "sim_churn.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <unordered_map>

#include "checks.hpp"
#include "common.hpp"
#include "objects/mergeable_kv.hpp"
#include "obs/metrics.hpp"
#include "sim/world.hpp"
#include "spans.hpp"

namespace pb {
namespace {

using evs::ProcessId;
using evs::SiteId;
using evs::SimTime;
using evs::kMillisecond;
using evs::kSecond;
using evs::objects::MergeableKv;

constexpr std::size_t kMembers = 16;
constexpr std::size_t kWrites = 8;  // keys each writing side puts per step
constexpr std::size_t kValueBytes = 24;
constexpr std::size_t kTraceCapacity = 1u << 19;

class ChurnWorld {
 public:
  ChurnWorld(std::uint64_t seed, std::size_t n) : world_(seed) {
    world_.trace_bus().set_capacity(kTraceCapacity);
    world_.trace_bus().set_enabled(true);
    sites_ = world_.add_sites(n);
    world_.set_default_spawner([this](evs::sim::World&, SiteId s) { spawn(s); });
    for (SiteId s : sites_) spawn(s);
  }

  evs::sim::World& world() { return world_; }
  const std::vector<SiteId>& sites() const { return sites_; }
  MergeableKv& at(SiteId s) { return *live_.at(s); }
  const std::vector<MergeableKv*>& all_incarnations() const { return every_; }
  SimTime now() { return world_.scheduler().now(); }

  /// Runs the simulation in 1 ms steps until `pred` holds.
  bool await(const std::function<bool()>& pred, evs::SimDuration timeout = 120 * kSecond) {
    const SimTime deadline = now() + timeout;
    while (!pred()) {
      if (now() >= deadline) return false;
      world_.run_for(kMillisecond);
    }
    return true;
  }

  /// Every member of `group` is alive and has installed a view whose
  /// membership is exactly the group's live processes.
  bool installed(const std::vector<SiteId>& group) {
    std::vector<ProcessId> expected;
    for (SiteId s : group) {
      if (!world_.site_alive(s)) return false;
      expected.push_back(world_.live_process(s));
    }
    std::sort(expected.begin(), expected.end());
    const evs::ViewId first = at(group.front()).view().id;
    for (SiteId s : group) {
      const MergeableKv& o = at(s);
      if (o.view().members != expected || o.view().id != first) return false;
    }
    return true;
  }

  /// installed(), and every member unblocked, in N-mode, with one sv-set.
  bool settled(const std::vector<SiteId>& group) {
    if (!installed(group)) return false;
    for (SiteId s : group) {
      const MergeableKv& o = at(s);
      if (o.blocked() || o.mode() != evs::app::Mode::Normal ||
          o.eview().structure.svsets().size() != 1)
        return false;
    }
    return true;
  }

 private:
  void spawn(SiteId s) {
    evs::app::GroupObjectConfig cfg;
    cfg.endpoint.universe = sites_;
    MergeableKv& o = world_.spawn<MergeableKv>(s, cfg);
    live_[s] = &o;
    every_.push_back(&o);
  }

  evs::sim::World world_;
  std::vector<SiteId> sites_;
  std::unordered_map<SiteId, MergeableKv*> live_;
  std::vector<MergeableKv*> every_;
};

/// One fault step: time to the last install of the resulting views, then
/// to N-mode everywhere. Groups are the connected components expected.
bool time_step(ChurnWorld& w, const std::vector<std::vector<SiteId>>& groups,
               SimTime t_fault, RoundOutcome& out) {
  auto all = [&](bool (ChurnWorld::*pred)(const std::vector<SiteId>&)) {
    return [&w, &groups, pred]() {
      for (const auto& g : groups)
        if (!(w.*pred)(g)) return false;
      return true;
    };
  };
  if (!w.await(all(&ChurnWorld::installed))) return false;
  const SimTime t_view = w.now();
  if (!w.await(all(&ChurnWorld::settled))) return false;
  out.view_change_ms.push_back(static_cast<double>(t_view - t_fault) / kMillisecond);
  out.settle_ms.push_back(static_cast<double>(w.now() - t_view) / kMillisecond);
  return true;
}

/// `writer` puts kWrites fresh keys; runs the simulation event by event
/// until every member of `side` applied them, recording each put's time to
/// that point in `write_ms`, and adds them to `expected`.
bool write_side(ChurnWorld& w, SiteId writer, const std::vector<SiteId>& side,
                const std::string& prefix, Rng& rng, KvImage& expected,
                std::vector<double>& write_ms) {
  KvImage batch;
  for (std::size_t i = 0; i < kWrites; ++i) {
    const std::string key = prefix + "-" + std::to_string(i);
    const std::string value = rng.text(kValueBytes);
    if (!w.at(writer).put(key, value)) return false;
    batch[key] = value;
  }
  const SimTime t_put = w.now();
  const SimTime deadline = t_put + 60 * kSecond;
  KvImage pending = batch;
  while (!pending.empty()) {
    for (auto it = pending.begin(); it != pending.end();) {
      bool everywhere = true;
      for (SiteId s : side)
        if (w.at(s).get(it->first) != it->second) {
          everywhere = false;
          break;
        }
      if (!everywhere) {
        ++it;
        continue;
      }
      write_ms.push_back(static_cast<double>(w.now() - t_put) / kMillisecond);
      it = pending.erase(it);
    }
    if (pending.empty()) break;
    if (w.now() >= deadline || !w.world().scheduler().step()) return false;
  }
  expected.insert(batch.begin(), batch.end());
  return true;
}

KvImage image_of(const MergeableKv& o, const KvImage& expected) {
  KvImage img;
  for (const auto& [k, v] : expected)
    if (const auto got = o.get(k)) img[k] = *got;
  // Keys the replica holds beyond `expected` show up as a size mismatch.
  for (std::size_t extra = img.size(); extra < o.size(); ++extra)
    img["<unexpected-" + std::to_string(extra) + ">"] = "";
  return img;
}

double counter(const MergeableKv& o, const std::string& name) {
  evs::obs::MetricsRegistry reg;
  o.export_metrics(reg, "p");
  return static_cast<double>(reg.counter("p." + name).value());
}

}  // namespace

RoundOutcome run_round(std::uint64_t seed, std::size_t n, std::uint64_t round,
                       double* setup_s) {
  RoundOutcome out;
  Rng rng(seed * 1'000'003 + round);
  ChurnWorld w(rng.next(), n);
  auto fail = [&](const std::string& why) {
    out.harness_error = why;
    return out;
  };
  if (!w.await([&]() { return w.settled(w.sites()); }))
    return fail("initial group never settled");
  if (setup_s != nullptr)
    *setup_s = static_cast<double>(now_us() - process_start_us()) / 1e6;

  const std::uint64_t wall0 = now_ns();
  const SimTime sim0 = w.now();
  std::vector<double> hb0;
  for (const MergeableKv* o : w.all_incarnations()) hb0.push_back(counter(*o, "detector.heartbeats_sent"));

  // The fault schedule; every choice comes from the round's seed.
  std::vector<SiteId> order = w.sites();
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  const std::size_t split = n / 2 - 2 + rng.below(5);  // side A: n/2-2..n/2+2
  std::vector<SiteId> a(order.begin(), order.begin() + split);
  std::vector<SiteId> b(order.begin() + split, order.end());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const std::string tag = std::to_string(round);
  KvImage expected;

  // 1. partition
  SimTime t = w.now();
  w.world().network().set_partition({a, b});
  if (!time_step(w, {a, b}, t, out)) return fail("partition never settled");
  // 2. writes on both sides, disjoint keys
  if (!write_side(w, a[rng.below(a.size())], a, "a" + tag, rng, expected, out.write_ms) ||
      !write_side(w, b[rng.below(b.size())], b, "b" + tag, rng, expected, out.write_ms))
    return fail("side writes were not applied");
  // 3. crash one member of side A
  const SiteId victim = a[rng.below(a.size())];
  std::vector<SiteId> a_left;
  for (SiteId s : a)
    if (s != victim) a_left.push_back(s);
  t = w.now();
  w.world().crash_site(victim);
  if (!time_step(w, {a_left, b}, t, out)) return fail("crash never settled");
  // 4. heal
  std::vector<SiteId> alive;
  for (SiteId s : w.sites())
    if (s != victim) alive.push_back(s);
  t = w.now();
  w.world().network().heal();
  if (!time_step(w, {alive}, t, out)) return fail("heal never settled");
  // 5. recovery of the crashed site (a new incarnation)
  t = w.now();
  w.world().respawn(victim);
  if (!time_step(w, {w.sites()}, t, out)) return fail("recovery never settled");
  // 6. merge-all from a random member, then writes on the whole group
  w.at(w.sites()[rng.below(n)]).request_merge_all();
  if (!w.await([&]() { return w.settled(w.sites()); }))
    return fail("merge-all never settled");
  if (!write_side(w, w.sites()[rng.below(n)], w.sites(), "c" + tag, rng, expected,
                  out.write_ms))
    return fail("group writes were not applied");
  out.wall_s = static_cast<double>(now_ns() - wall0) / 1e9;
  out.sim_s = static_cast<double>(w.now() - sim0) / kSecond;

  // ---- checks ----
  std::vector<KvImage> replicas;
  for (SiteId s : w.sites()) replicas.push_back(image_of(w.at(s), expected));
  absorb_into(out.findings, check_replicas(expected, replicas));
  const auto& bus = w.world().trace_bus();
  if (bus.dropped() > 0)
    out.findings.push_back("sim: trace ring overflowed; the check would be partial");
  out.events = bus.events();
  absorb_into(out.findings, check_trace(out.events));

  // ---- counts ----
  std::set<evs::ViewId> views;
  for (const evs::obs::TraceEvent& e : out.events) {
    if (e.time < sim0) continue;
    if (e.kind == evs::obs::EventKind::ViewInstalled) {
      views.insert(e.view);
      ++out.installs;
    } else if (e.kind == evs::obs::EventKind::ViewAcked) {
      ++out.acks;
    }
  }
  out.view_changes = views.size();
  for (std::size_t i = 0; i < w.all_incarnations().size(); ++i) {
    const MergeableKv& o = *w.all_incarnations()[i];
    out.heartbeats += counter(o, "detector.heartbeats_sent") - (i < hb0.size() ? hb0[i] : 0);
    out.gms_bytes += static_cast<double>(o.stats().install_bytes + o.stats().ack_bytes);
    out.member_views += static_cast<double>(o.stats().views_installed);
    out.eview_changes += static_cast<double>(o.evs_stats().ev_changes_applied);
    out.settles += static_cast<double>(o.object_stats().settles_completed);
    out.transfer_bytes += static_cast<double>(o.object_stats().snapshot_bytes);
  }
  return out;
}

int run_sim_churn(const Args& args, Result& res) {
  std::vector<double> write_ms, vc_ms, settle_ms, rates;
  double setup_s = 0, sim_s = 0, views = 0, installs = 0, acks = 0;
  double heartbeats = 0, gms_bytes = 0, member_views = 0, eview_changes = 0;
  double settles = 0, transfer_bytes = 0;
  const std::uint64_t deadline = now_us() + args.seconds * 1'000'000;
  std::uint64_t rounds = 0;
  do {
    RoundOutcome r = run_round(args.seed, kMembers, rounds, rounds == 0 ? &setup_s : nullptr);
    if (!r.harness_error.empty()) {
      std::fprintf(stderr, "sim_churn: round %llu: %s\n",
                   static_cast<unsigned long long>(rounds), r.harness_error.c_str());
      return 2;
    }
    for (const std::string& f : r.findings) res.violate(f);
    write_ms.insert(write_ms.end(), r.write_ms.begin(), r.write_ms.end());
    vc_ms.insert(vc_ms.end(), r.view_change_ms.begin(), r.view_change_ms.end());
    settle_ms.insert(settle_ms.end(), r.settle_ms.begin(), r.settle_ms.end());
    rates.push_back(ratio(static_cast<double>(r.view_changes), r.wall_s));
    sim_s += r.sim_s;
    views += static_cast<double>(r.view_changes);
    installs += static_cast<double>(r.installs);
    acks += static_cast<double>(r.acks);
    heartbeats += r.heartbeats;
    gms_bytes += r.gms_bytes;
    member_views += r.member_views;
    eview_changes += r.eview_changes;
    settles += r.settles;
    transfer_bytes += r.transfer_bytes;
    ++rounds;
  } while (now_us() < deadline);

  // Each round attempts the same five fault steps and three write batches.
  res.attempted = rounds * (5 + 3 * kWrites);
  res.failed = 0;
  res.set("setup_s", setup_s, "s");
  // Simulated time: the host's load cannot move these, so plain quantiles
  // over the run serve.
  res.set("write_p50_ms", quantile(write_ms, 0.50), "ms");
  res.set("write_p99_ms", quantile(write_ms, 0.99), "ms");
  if (!args.trace) return 0;
  res.set("gms.view_change_ms", mean(vc_ms), "ms");
  res.set("evs.settle_ms", mean(settle_ms), "ms");
  // The median round's rate: a round the scheduler preempted moves it little.
  res.set("sim.view_changes_per_s", quantile(rates, 0.5), "1/s");
  res.set("gms.msgs_per_view_change", ratio(2 * acks + installs, views), "count");
  res.set("gms.bytes_per_view_change", ratio(gms_bytes, views), "B");
  res.set("detector.heartbeats_per_member_s",
          ratio(heartbeats, static_cast<double>(kMembers) * sim_s), "1/s");
  res.set("evs.eview_changes_per_view_change", ratio(eview_changes, member_views), "count");
  res.set("app.transfer_bytes_per_settle", ratio(transfer_bytes, settles), "B");
  const RequestPathSpans spans = measure_request_path(kValueBytes, 1, args.seed);
  res.set("codec.frame_encode_ns", spans.frame_encode_ns, "ns");
  res.set("codec.frame_decode_ns", spans.frame_decode_ns, "ns");
  res.set("app.snapshot_us",
          measure_snapshot_us(3 * kWrites, kValueBytes, args.seed), "us");
  return 0;
}

}  // namespace pb
