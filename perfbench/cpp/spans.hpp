// The benchmark's own spans around calls into single layers' public
// functions, fed with the workload's input sizes. Each figure is the
// median over several timed batches of the mean time per call.
#pragma once

#include <cstdint>
#include <string>

namespace pb {

struct RequestPathSpans {
  double frame_encode_ns = 0;     // codec: one data frame (gms::DataMsg)
  double frame_decode_ns = 0;
  double request_decode_ns = 0;   // svc::decode_request
  double response_encode_ns = 0;  // svc::encode_response
  double route_append_ns = 0;     // log::ShardRouter::route of a LogAppend
};

/// Spans of the ordered-write path for a `value_bytes` payload over
/// `shards` log shards.
RequestPathSpans measure_request_path(std::size_t value_bytes,
                                      std::uint32_t shards, std::uint64_t seed);

/// app: MergeableKv snapshot of `keys` entries of `value_bytes` each, in µs.
double measure_snapshot_us(std::size_t keys, std::size_t value_bytes,
                           std::uint64_t seed);

struct RecoverSpan {
  double ms = 0;
  double records = 0;
};
/// store: WalStore recovery of a copy of `store_dir` made under `scratch`.
RecoverSpan measure_recover(const std::string& store_dir,
                            const std::string& scratch);

}  // namespace pb
