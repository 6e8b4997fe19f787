// The fleet harness: real evs_node processes on loopback, one temporary
// directory per run, ports taken from the kernel, every child reaped on
// every exit path (the destructor SIGKILLs and waits for whatever is
// still running; children also die with this process via
// PR_SET_PDEATHSIG).
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pb {

struct FleetOptions {
  std::string node_bin;
  std::string dir;          // configs, stores and logs live below this
  int nodes = 3;
  int log_shards = 0;       // >0: `group 1..G log` lines (multi-group)
  std::string object;       // --object for single-group nodes ("kv")
  bool store = false;       // `store <dir>/store<i>` line per node
};

/// Flat view of a node's /metrics JSON: "counters.x", "gauges.x",
/// "histograms.x.p99", ... -> number.
using MetricMap = std::map<std::string, double>;

class Fleet {
 public:
  explicit Fleet(FleetOptions options);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int size() const { return options_.nodes; }
  /// Writes the configs and starts every node.
  bool start();
  /// Starts node `i` (a fresh incarnation when it ran before).
  bool spawn(int i);
  /// SIGKILL + reap; returns once the process is gone.
  void kill9(int i);
  /// SIGTERM everything, reap (SIGKILL after a grace period).
  void stop();

  /// Reads pending stdout of every node for up to `timeout_ms`.
  void drain(int timeout_ms);
  /// Drains until `pred` holds or `timeout_ms` passes.
  bool await(int timeout_ms, const std::function<bool()>& pred);

  /// Stdout of node `i`'s current incarnation.
  const std::string& out(int i) const { return nodes_[i].out; }
  std::uint16_t svc_port(int i) const { return nodes_[i].svc_port; }

  /// Every hosted group of node `i` has installed a view of all nodes.
  bool full_view(int i) const;
  /// Coordinator site named by node `i`'s last full view line; -1 if none.
  int coordinator(int i) const;
  /// `incarnation=` of node `i`'s up line; 0 if not printed yet.
  std::uint32_t incarnation(int i) const;

  /// GET `path` on node `i`'s admin port; empty on failure.
  std::string http_get(int i, const std::string& path) const;
  /// Parsed /metrics of node `i`; empty on failure.
  MetricMap metrics(int i) const;
  /// utime+stime of node `i` in seconds, from /proc/<pid>/stat.
  double cpu_seconds(int i) const;

 private:
  struct Node {
    pid_t pid = -1;
    int out_fd = -1;
    std::string out;
    std::uint16_t svc_port = 0;
    std::uint16_t admin_port = 0;
    std::string config;
  };
  void reap(Node& node);

  FleetOptions options_;
  std::vector<Node> nodes_;
};

/// Flattens a /metrics body; exposed for the self-test.
MetricMap parse_metrics(const std::string& json);
/// The value of `key`, 0 when the node did not report it.
inline double metric(const MetricMap& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0 : it->second;
}
/// Sum of `prefix<anything>suffix` entries, e.g. all per-group counters.
double sum_matching(const MetricMap& m, const std::string& prefix,
                    const std::string& suffix);

/// With at least nodes+1 CPUs, keeps the calling process (the generator)
/// on the last CPU and the nodes it spawns afterwards off it, so that the
/// scheduler cannot stack the generator and a busy node on one CPU in
/// some runs and not in others. Does nothing on smaller hosts.
void reserve_generator_cpu(int nodes);

/// Creates `path` (one level); removes a directory tree.
bool make_dir(const std::string& path);
void remove_tree(const std::string& path);

}  // namespace pb
