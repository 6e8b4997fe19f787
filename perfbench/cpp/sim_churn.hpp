// One round of the sim_churn workload, shared with the self-test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/trace.hpp"

namespace pb {

struct RoundOutcome {
  std::string harness_error;        // non-empty: the schedule could not run
  Finding findings;                 // failed correctness properties
  std::vector<evs::obs::TraceEvent> events;  // the round's whole trace
  std::vector<double> view_change_ms;  // per fault step, simulated time
  std::vector<double> settle_ms;
  std::vector<double> write_ms;     // per put: until its side applied it
  double wall_s = 0;                // wall time of the fault schedule
  double sim_s = 0;                 // simulated time of the fault schedule
  std::uint64_t view_changes = 0;   // distinct views installed
  std::uint64_t installs = 0;       // ViewInstalled events (per member)
  std::uint64_t acks = 0;           // ViewAcked events
  double heartbeats = 0, gms_bytes = 0, member_views = 0;
  double eview_changes = 0, settles = 0, transfer_bytes = 0;
};

inline void absorb_into(Finding& into, const Finding& f) {
  into.insert(into.end(), f.begin(), f.end());
}

/// Builds a fresh world of `n` members from (seed, round), lets it settle,
/// runs the fault schedule and checks the result. `setup_s`, when given,
/// receives the time from process start until the first group settled.
RoundOutcome run_round(std::uint64_t seed, std::size_t n, std::uint64_t round,
                       double* setup_s);

}  // namespace pb
