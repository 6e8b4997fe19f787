#include "spans.hpp"

#include <fstream>
#include <vector>

#include "common.hpp"
#include "fleet.hpp"
#include "gms/wire.hpp"
#include "log/shard_router.hpp"
#include "objects/mergeable_kv.hpp"
#include "store/wal_store.hpp"
#include "svc/protocol.hpp"

namespace pb {
namespace {

using evs::runtime::SvcRequest;
using evs::runtime::SvcResponse;

/// Median over `batches` of the mean ns per call of `fn` over `calls`.
template <typename Fn>
double span_ns(int batches, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) fn(i);
    per_call.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return quantile(per_call, 0.5);
}

/// A log shard stand-in that answers at once, so a span around
/// ShardRouter::route times the router alone.
class EchoNode final : public evs::runtime::Node {
 public:
  void on_message(evs::ProcessId, const evs::Bytes&) override {}
  void svc_request(SvcRequest, evs::runtime::SvcRespondFn respond) override {
    respond(SvcResponse::ok(1));
  }
};

/// Exposes the protected state hooks of the KV for timing.
class KvProbe final : public evs::objects::MergeableKv {
 public:
  KvProbe() : MergeableKv(evs::app::GroupObjectConfig{}) {}
  void apply(const std::string& key, const std::string& value,
             std::uint64_t stamp) {
    evs::Encoder enc;
    enc.put_string(key);
    enc.put_string(value);
    enc.put_varint(stamp);
    on_object_deliver(evs::ProcessId{}, std::move(enc).take());
  }
  evs::Bytes snapshot() const { return snapshot_state(); }
};

volatile std::size_t g_sink = 0;

}  // namespace

RequestPathSpans measure_request_path(std::size_t value_bytes,
                                      std::uint32_t shards, std::uint64_t seed) {
  Rng rng(seed ^ 0x5eedULL);
  constexpr int kBatches = 7, kCalls = 4000;
  RequestPathSpans out;

  evs::gms::DataMsg msg;
  msg.view = evs::ViewId{};
  msg.seq = 1;
  const std::string text = rng.text(value_bytes);
  msg.payload.assign(text.begin(), text.end());
  out.frame_encode_ns = span_ns(kBatches, kCalls, [&](int i) {
    msg.seq = static_cast<std::uint64_t>(i);
    evs::Encoder enc;
    msg.encode(enc);
    g_sink = g_sink + evs::gms::frame(evs::gms::Channel::Data, std::move(enc)).size();
  });
  evs::Encoder enc;
  msg.encode(enc);
  const evs::Bytes framed = evs::gms::frame(evs::gms::Channel::Data, std::move(enc));
  out.frame_decode_ns = span_ns(kBatches, kCalls, [&](int) {
    evs::Decoder dec(framed);
    evs::gms::peek_channel(dec);
    g_sink = g_sink + evs::gms::DataMsg::decode(dec).payload.size();
  });

  SvcRequest req;
  req.op = evs::runtime::SvcOp::LogAppend;
  req.key = std::to_string(rng.below(1'000'000));
  req.value = text;
  const evs::Bytes body = evs::svc::encode_request(7, req);
  out.request_decode_ns = span_ns(kBatches, kCalls, [&](int) {
    g_sink = g_sink + evs::svc::decode_request(body).req.value.size();
  });
  const SvcResponse resp = SvcResponse::ok(3, std::to_string(rng.below(1u << 30)));
  out.response_encode_ns = span_ns(kBatches, kCalls, [&](int i) {
    g_sink = g_sink + evs::svc::encode_response(static_cast<std::uint64_t>(i), resp).size();
  });

  std::vector<EchoNode> nodes(shards);
  evs::log::ShardRouter router;
  for (std::uint32_t s = 0; s < shards; ++s) router.add_shard(s, nodes[s]);
  std::vector<SvcRequest> reqs(256, req);
  for (SvcRequest& r : reqs) r.key = std::to_string(rng.below(1'000'000));
  out.route_append_ns = span_ns(kBatches, kCalls, [&](int i) {
    router.route(reqs[static_cast<std::size_t>(i) & 255],
                 [](SvcResponse r) { g_sink = g_sink + r.value.size(); });
  });
  return out;
}

double measure_snapshot_us(std::size_t keys, std::size_t value_bytes,
                           std::uint64_t seed) {
  Rng rng(seed ^ 0xabcdULL);
  KvProbe kv;
  for (std::size_t k = 0; k < keys; ++k)
    kv.apply("k" + std::to_string(k), rng.text(value_bytes), k + 1);
  return span_ns(7, 200, [&](int) { g_sink = g_sink + kv.snapshot().size(); }) /
         1'000.0;
}

RecoverSpan measure_recover(const std::string& store_dir,
                            const std::string& scratch) {
  remove_tree(scratch);
  make_dir(scratch);
  for (const char* name : {"wal.log", "snapshot.db"}) {
    std::ifstream in(store_dir + "/" + name, std::ios::binary);
    if (!in) continue;
    std::ofstream out(scratch + "/" + name, std::ios::binary);
    out << in.rdbuf();
  }
  RecoverSpan span;
  try {
    const std::uint64_t t0 = now_ns();
    evs::store::WalStore store(evs::store::WalStoreConfig{scratch, 0, false});
    span.ms = static_cast<double>(now_ns() - t0) / 1e6;
    span.records = static_cast<double>(store.stats().recovered_records);
  } catch (const std::exception&) {
  }
  remove_tree(scratch);
  return span;
}

}  // namespace pb
