#include "fleet.hpp"

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.hpp"

namespace pb {
namespace {

/// A port the kernel picked for a throwaway socket of `type`.
std::uint16_t kernel_port(int type) {
  const int fd = ::socket(AF_INET, type, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

/// Last line of `text` starting with `prefix`, or "".
std::string last_line_with(const std::string& text, const std::string& prefix) {
  std::size_t at = std::string::npos;
  for (std::size_t pos = 0; (pos = text.find(prefix, pos)) != std::string::npos;
       pos += prefix.size())
    if (pos == 0 || text[pos - 1] == '\n') at = pos;
  if (at == std::string::npos) return {};
  const std::size_t end = text.find('\n', at);
  return text.substr(at, end == std::string::npos ? std::string::npos : end - at);
}

long field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key + "=");
  if (at == std::string::npos) return -1;
  return std::strtol(line.c_str() + at + key.size() + 1, nullptr, 10);
}

// --- a minimal reader for the /metrics JSON (objects and numbers only).
struct JsonReader {
  const std::string& s;
  std::size_t i = 0;
  MetricMap& out;
  bool ok = true;

  void ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  std::string str() {
    ws();
    if (i >= s.size() || s[i] != '"') {
      ok = false;
      return {};
    }
    const std::size_t end = s.find('"', i + 1);
    if (end == std::string::npos) {
      ok = false;
      return {};
    }
    std::string r = s.substr(i + 1, end - i - 1);
    i = end + 1;
    return r;
  }
  void value(const std::string& path) {
    ws();
    if (i >= s.size()) {
      ok = false;
      return;
    }
    if (s[i] == '{') {
      ++i;
      ws();
      if (i < s.size() && s[i] == '}') {
        ++i;
        return;
      }
      while (ok) {
        const std::string key = str();
        ws();
        if (i >= s.size() || s[i] != ':') {
          ok = false;
          return;
        }
        ++i;
        value(path.empty() ? key : path + "." + key);
        ws();
        if (i < s.size() && s[i] == ',') {
          ++i;
          continue;
        }
        if (i < s.size() && s[i] == '}') {
          ++i;
          return;
        }
        ok = false;
      }
      return;
    }
    char* end = nullptr;
    const double v = std::strtod(s.c_str() + i, &end);
    if (end == s.c_str() + i) {
      ok = false;
      return;
    }
    i = static_cast<std::size_t>(end - s.c_str());
    out[path] = v;
  }
};

}  // namespace

MetricMap parse_metrics(const std::string& json) {
  MetricMap out;
  JsonReader r{json, 0, out};
  r.value("");
  if (!r.ok) out.clear();
  return out;
}

double sum_matching(const MetricMap& m, const std::string& prefix,
                    const std::string& suffix) {
  double total = 0;
  for (auto it = m.lower_bound(prefix); it != m.end(); ++it) {
    const std::string& k = it->first;
    if (k.compare(0, prefix.size(), prefix) != 0) break;
    if (k.size() >= prefix.size() + suffix.size() &&
        k.compare(k.size() - suffix.size(), suffix.size(), suffix) == 0)
      total += it->second;
  }
  return total;
}

namespace {
int cpu_count() { return static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN)); }
bool g_generator_cpu_reserved = false;

/// Restricts the calling process to CPUs [first, last].
void pin_to(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}
}  // namespace

void reserve_generator_cpu(int nodes) {
  if (cpu_count() < nodes + 1) return;
  pin_to(cpu_count() - 1, cpu_count() - 1);
  g_generator_cpu_reserved = true;
}

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

void remove_tree(const std::string& path) {
  DIR* d = ::opendir(path.c_str());
  if (d != nullptr) {
    while (dirent* e = ::readdir(d)) {
      const std::string name = e->d_name;
      if (name == "." || name == "..") continue;
      const std::string child = path + "/" + name;
      struct stat st {};
      if (::lstat(child.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        remove_tree(child);
      else
        ::unlink(child.c_str());
    }
    ::closedir(d);
  }
  ::rmdir(path.c_str());
}

Fleet::Fleet(FleetOptions options)
    : options_(std::move(options)), nodes_(options_.nodes) {}

Fleet::~Fleet() {
  for (Node& n : nodes_) {
    if (n.pid > 0) ::kill(n.pid, SIGKILL);
    reap(n);
  }
}

bool Fleet::start() {
  const int n = options_.nodes;
  std::vector<std::uint16_t> udp(n), admin(n);
  for (int i = 0; i < n; ++i) {
    udp[i] = kernel_port(SOCK_DGRAM);
    admin[i] = kernel_port(SOCK_STREAM);
    nodes_[i].admin_port = admin[i];
    nodes_[i].svc_port = kernel_port(SOCK_STREAM);
    if (udp[i] == 0 || admin[i] == 0 || nodes_[i].svc_port == 0) return false;
  }
  for (int i = 0; i < n; ++i) {
    std::ostringstream os;
    os << "self " << i << "\n";
    for (int j = 0; j < n; ++j) {
      os << "peer " << j << " 127.0.0.1:" << udp[j] << "\n";
      os << "admin " << j << " 127.0.0.1:" << admin[j] << "\n";
      os << "svc " << j << " 127.0.0.1:" << nodes_[j].svc_port << "\n";
    }
    if (options_.store) os << "store " << options_.dir << "/store" << i << "\n";
    for (int g = 1; g <= options_.log_shards; ++g)
      os << "group " << g << " log\n";
    nodes_[i].config = options_.dir + "/node" + std::to_string(i) + ".conf";
    std::ofstream f(nodes_[i].config);
    f << os.str();
    if (!f) return false;
  }
  for (int i = 0; i < n; ++i)
    if (!spawn(i)) return false;
  return true;
}

bool Fleet::spawn(int i) {
  Node& node = nodes_[i];
  if (node.pid > 0) return false;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return false;
  const std::string log = options_.dir + "/node" + std::to_string(i) + ".err";
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return false;
  }
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(127);
    // A child inherits the generator's CPU; give it all the others.
    if (g_generator_cpu_reserved) pin_to(0, cpu_count() - 2);
    ::dup2(fds[1], STDOUT_FILENO);
    const int err = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (err >= 0) ::dup2(err, STDERR_FILENO);
    std::vector<const char*> argv{options_.node_bin.c_str(), "--config",
                                  node.config.c_str()};
    if (!options_.object.empty()) {
      argv.push_back("--object");
      argv.push_back(options_.object.c_str());
    }
    argv.push_back(nullptr);
    ::execv(argv[0], const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ::close(fds[1]);
  ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
  node.pid = pid;
  node.out_fd = fds[0];
  node.out.clear();
  return true;
}

void Fleet::reap(Node& node) {
  if (node.pid > 0) {
    int status = 0;
    while (::waitpid(node.pid, &status, 0) < 0 && errno == EINTR) {
    }
    node.pid = -1;
  }
  if (node.out_fd >= 0) {
    ::close(node.out_fd);
    node.out_fd = -1;
  }
}

void Fleet::kill9(int i) {
  Node& node = nodes_[i];
  if (node.pid > 0) ::kill(node.pid, SIGKILL);
  reap(node);
}

void Fleet::stop() {
  for (Node& n : nodes_)
    if (n.pid > 0) ::kill(n.pid, SIGTERM);
  const std::uint64_t deadline = now_us() + 5'000'000;
  for (Node& n : nodes_) {
    while (n.pid > 0 && now_us() < deadline) {
      int status = 0;
      if (::waitpid(n.pid, &status, WNOHANG) == n.pid) {
        n.pid = -1;
        break;
      }
      ::usleep(10'000);
    }
    if (n.pid > 0) ::kill(n.pid, SIGKILL);
    reap(n);
  }
}

void Fleet::drain(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<Node*> owners;
  for (Node& n : nodes_) {
    if (n.out_fd < 0) continue;
    fds.push_back({n.out_fd, POLLIN, 0});
    owners.push_back(&n);
  }
  if (fds.empty()) {
    ::usleep(static_cast<useconds_t>(timeout_ms) * 1000);
    return;
  }
  if (::poll(fds.data(), fds.size(), timeout_ms) <= 0) return;
  for (std::size_t k = 0; k < fds.size(); ++k) {
    Node& n = *owners[k];
    char buf[8192];
    for (;;) {
      const ssize_t r = ::read(n.out_fd, buf, sizeof(buf));
      if (r > 0) {
        n.out.append(buf, static_cast<std::size_t>(r));
        // Every incarnation's stdout, kept for post-mortems of a run.
        std::ofstream(n.config + ".out", std::ios::app)
            .write(buf, static_cast<std::streamsize>(r));
      } else {
        if (r == 0) {  // the node exited; keep its pid until reaped
          ::close(n.out_fd);
          n.out_fd = -1;
        }
        break;
      }
    }
  }
}

bool Fleet::await(int timeout_ms, const std::function<bool()>& pred) {
  const std::uint64_t deadline = now_us() + static_cast<std::uint64_t>(timeout_ms) * 1000;
  while (now_us() < deadline) {
    if (pred()) return true;
    drain(5);
  }
  return pred();
}

bool Fleet::full_view(int i) const {
  const std::string& out = nodes_[i].out;
  const std::string size = "size=" + std::to_string(options_.nodes) + " ";
  if (options_.log_shards == 0) {
    const std::string line = last_line_with(out, "view ");
    return !line.empty() && line.find(size) != std::string::npos;
  }
  for (int g = 1; g <= options_.log_shards; ++g) {
    const std::string line =
        last_line_with(out, "view group=" + std::to_string(g) + " ");
    if (line.empty() || line.find(size) == std::string::npos) return false;
  }
  return true;
}

int Fleet::coordinator(int i) const {
  const std::string prefix =
      options_.log_shards > 0 ? "view group=1 " : "view ";
  const std::string line = last_line_with(nodes_[i].out, prefix);
  return static_cast<int>(field(line, "coordinator"));
}

std::uint32_t Fleet::incarnation(int i) const {
  const long v = field(last_line_with(nodes_[i].out, "up "), "incarnation");
  return v < 0 ? 0 : static_cast<std::uint32_t>(v);
}

std::string Fleet::http_get(int i, const std::string& path) const {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return {};
  timeval tv{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(nodes_[i].admin_port);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[16384];
      ssize_t n;
      while ((n = ::read(fd, buf, sizeof(buf))) > 0)
        response.append(buf, static_cast<std::size_t>(n));
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : response.substr(body + 4);
}

MetricMap Fleet::metrics(int i) const { return parse_metrics(http_get(i, "/metrics")); }

double Fleet::cpu_seconds(int i) const {
  if (nodes_[i].pid <= 0) return 0;
  std::ifstream f("/proc/" + std::to_string(nodes_[i].pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(f)), {});
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream is(stat.substr(close + 2));
  std::string tok;
  double utime = 0, stime = 0;
  for (int k = 3; k <= 15 && is >> tok; ++k) {
    if (k == 14) utime = std::atof(tok.c_str());
    if (k == 15) stime = std::atof(tok.c_str());
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace pb
