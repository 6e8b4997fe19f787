#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "obs/check.hpp"

namespace pb {

Finding check_unique_positions(const std::vector<AckedAppend>& acked) {
  Finding f;
  std::unordered_set<std::uint64_t> seen;
  for (const AckedAppend& a : acked)
    if (!seen.insert(a.position).second)
      f.push_back("log: position " + std::to_string(a.position) +
                  " acked twice");
  return f;
}

Finding check_routing(const std::vector<AckedAppend>& acked, std::uint32_t g) {
  Finding f;
  for (const AckedAppend& a : acked)
    if (a.position % g != a.shard) {
      f.push_back("log: append for shard " + std::to_string(a.shard) +
                  " acked at position " + std::to_string(a.position));
      break;
    }
  return f;
}

Finding check_dense_per_shard(const std::vector<AckedAppend>& acked,
                              std::uint32_t g) {
  Finding f;
  std::vector<std::vector<std::uint64_t>> local(g);
  for (const AckedAppend& a : acked) local[a.position % g].push_back(a.position / g);
  for (std::uint32_t s = 0; s < g; ++s) {
    std::vector<std::uint64_t>& v = local[s];
    std::sort(v.begin(), v.end());
    for (std::size_t i = 0; i < v.size(); ++i)
      if (v[i] != i) {
        f.push_back("log: shard " + std::to_string(s) + " local positions " +
                    "not dense: expected " + std::to_string(i) + ", got " +
                    std::to_string(v[i]));
        break;
      }
  }
  return f;
}

std::uint64_t expected_tail(const std::vector<AckedAppend>& acked,
                            std::uint32_t g) {
  std::vector<std::uint64_t> next(g, 0);
  for (const AckedAppend& a : acked) {
    std::uint64_t& n = next[a.position % g];
    n = std::max(n, a.position / g + 1);
  }
  std::uint64_t tail = 0;
  for (std::uint32_t s = 0; s < g; ++s) tail = std::max(tail, next[s] * g + s);
  return tail;
}

Finding check_readback(const std::vector<AckedAppend>& acked,
                       const std::vector<std::string>& read) {
  Finding f;
  if (read.size() != acked.size()) {
    f.push_back("log: read back " + std::to_string(read.size()) + " of " +
                std::to_string(acked.size()) + " positions");
    return f;
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < acked.size(); ++i)
    if (read[i].size() != acked[i].payload.size() + 1 || read[i][0] != 'D' ||
        read[i].compare(1, std::string::npos, acked[i].payload) != 0) {
      if (bad++ == 0)
        f.push_back("log: position " + std::to_string(acked[i].position) +
                    " reads back other bytes than were appended");
    }
  if (bad > 1)
    f.push_back("log: " + std::to_string(bad) + " positions read back wrong");
  return f;
}

Finding check_equal(const std::string& what, double program, double generator) {
  if (std::fabs(program - generator) < 0.5) return {};
  return {what + ": program says " + std::to_string(program) +
          ", generator counted " + std::to_string(generator)};
}

Finding check_no_views(const std::string& who, double before, double after) {
  if (after == before) return {};
  return {who + ": " + std::to_string(after - before) +
          " view(s) installed during the measured window"};
}

Finding check_replicas(const KvImage& expected,
                       const std::vector<KvImage>& replicas) {
  Finding f;
  for (std::size_t r = 0; r < replicas.size(); ++r) {
    const KvImage& img = replicas[r];
    std::size_t wrong = 0;
    std::string first;
    for (const auto& [k, v] : expected) {
      const auto it = img.find(k);
      if (it == img.end() || it->second != v) {
        if (wrong++ == 0) first = k;
      }
    }
    for (const auto& [k, v] : img)
      if (!expected.count(k) && wrong++ == 0) first = k;
    if (wrong > 0)
      f.push_back("kv: replica " + std::to_string(r) + " differs on " +
                  std::to_string(wrong) + " key(s), first '" + first + "'");
  }
  return f;
}

Finding check_incarnation(int node, std::uint32_t before, std::uint32_t after) {
  if (after > before) return {};
  return {"kv: node " + std::to_string(node) + " restarted as incarnation " +
          std::to_string(after) + " after " + std::to_string(before)};
}

Finding check_trace(const std::vector<evs::obs::TraceEvent>& events) {
  Finding f;
  for (const evs::obs::Violation& v : evs::obs::RunChecker::check(events))
    f.push_back("sim: " + v.str());
  return f;
}

}  // namespace pb
