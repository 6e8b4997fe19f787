// Shared plumbing of the benchmark program: clocks, the seeded generator,
// quantiles and the run result every workload fills in.
#pragma once

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pb {

inline std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}
inline std::uint64_t now_us() { return now_ns() / 1'000; }

/// Monotonic time at which the process started; setup_s counts from here.
std::uint64_t process_start_us();

/// splitmix64: every input of a run derives from --seed through this.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
  /// Exponentially distributed gap of mean 1/rate, in µs: the arrivals of
  /// a Poisson stream, i.e. of independent users.
  double gap_us(double rate) {
    const double u = static_cast<double>(next() >> 11) * 0x1.0p-53;
    return -std::log1p(-u) / rate * 1e6;
  }
  /// `len` printable bytes.
  std::string text(std::size_t len) {
    static const char kAlphabet[] =
        "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    std::string s(len, ' ');
    for (char& c : s) c = kAlphabet[below(sizeof(kAlphabet) - 1)];
    return s;
  }

 private:
  std::uint64_t state_;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
inline double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

/// A latency sample: (due time in µs, latency).
using Timed = std::pair<std::uint64_t, double>;

/// Lower quartile over consecutive one-second windows (by due time) of each
/// window's `q` quantile: the quantile of the run's quieter seconds. On a
/// shared host some seconds lose the CPU to other tenants and their tail
/// says more about the host than about the program; a program that is
/// slower in every second still moves this figure.
inline double windowed_quantile(std::vector<Timed> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  constexpr std::uint64_t kWindowUs = 1'000'000;
  const std::uint64_t t0 = samples.front().first;
  std::vector<double> per_window, cur;
  std::uint64_t window = 0;
  for (const auto& [t, v] : samples) {
    if ((t - t0) / kWindowUs != window) {
      per_window.push_back(quantile(cur, q));
      cur.clear();
      window = (t - t0) / kWindowUs;
    }
    cur.push_back(v);
  }
  per_window.push_back(quantile(cur, q));
  return quantile(per_window, 0.25);
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  bool trace = false;
  std::string node_bin;  // path to evs_node
  std::string work_dir;  // per-run scratch directory (inside the checkout)
};

/// What one run reports: the last stdout line is built from this.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> (value, unit), printed in name order.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Human-readable reasons `correct` went false (stderr only).
  std::vector<std::string> problems;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a failed correctness property.
  void violate(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// A failed property check: empty = the property holds.
using Finding = std::vector<std::string>;

inline void absorb(Result& r, const Finding& f) {
  for (const std::string& why : f) r.violate(why);
}

int run_log_append(const Args& args, Result& out);
int run_kv_durable(const Args& args, Result& out);
int run_sim_churn(const Args& args, Result& out);
int run_self_test();

}  // namespace pb
