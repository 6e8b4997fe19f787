// Correctness checks, written as properties of what the generator saw and
// what the program answered — never as a comparison with saved output.
// Each returns the violations it found; an empty Finding means the
// property holds. They are pure functions so the self-test can feed them
// planted faults.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace pb {

// ----- sharded log ------------------------------------------------------

struct AckedAppend {
  std::uint64_t position = 0;  // global position from the Ok reply
  std::uint32_t shard = 0;     // shard the routing key names (key % G)
  std::string payload;
};

/// No global position was acked twice.
Finding check_unique_positions(const std::vector<AckedAppend>& acked);
/// Each append landed in its routing key's shard (position % G).
Finding check_routing(const std::vector<AckedAppend>& acked, std::uint32_t g);
/// Per shard, the acked local positions (position / G) are exactly
/// 0..n-1. Density holds per shard and below that shard's own tail: a
/// global position above a lagging shard's tail is not a hole.
Finding check_dense_per_shard(const std::vector<AckedAppend>& acked,
                              std::uint32_t g);
/// The global tail the acked appends imply: max over shards s of
/// (highest local position + 1) * G + s, with an empty shard at s.
std::uint64_t expected_tail(const std::vector<AckedAppend>& acked,
                            std::uint32_t g);
/// LogRead of each acked position returned 'D' + the appended bytes.
/// `read[i]` is the Ok value for acked[i] ("" when the read failed).
Finding check_readback(const std::vector<AckedAppend>& acked,
                       const std::vector<std::string>& read);

// ----- generic ------------------------------------------------------------

Finding check_equal(const std::string& what, double program, double generator);
/// No view was installed between two readings of a view counter.
Finding check_no_views(const std::string& who, double before, double after);

// ----- key-value ----------------------------------------------------------

using KvImage = std::map<std::string, std::string>;

/// Every replica holds exactly `expected` (the last acknowledged Put per
/// key, or the union of the writes seen applied); reports per replica.
Finding check_replicas(const KvImage& expected,
                       const std::vector<KvImage>& replicas);
/// A restarted node came back as a newer incarnation.
Finding check_incarnation(int node, std::uint32_t before, std::uint32_t after);

// ----- simulator ----------------------------------------------------------

/// obs::RunChecker over a recorded trace: P2.1-P2.3, P6.3 and Figure 1.
Finding check_trace(const std::vector<evs::obs::TraceEvent>& events);

}  // namespace pb
