#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "perf.h"
#include "util/stats.h"

namespace perf {

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

double Report::value(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return m.value;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

bool Report::expect(bool ok, const std::string& what) {
  if (!ok) {
    // Print the first few in full; a systematic failure would otherwise
    // flood stderr with one line per cell.
    if (failures_ < 20) std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++failures_;
  }
  return ok;
}

double volumetric_bound(const tb::Network& net, const tb::TrafficMatrix& tm) {
  const tb::Graph& g = net.graph;
  const int n = g.num_nodes();
  std::vector<std::vector<int>> adj(static_cast<std::size_t>(n));
  double capacity = 0.0;
  for (int e = 0; e < g.num_edges(); ++e) {
    adj[static_cast<std::size_t>(g.edge_u(e))].push_back(g.edge_v(e));
    adj[static_cast<std::size_t>(g.edge_v(e))].push_back(g.edge_u(e));
    capacity += 2.0 * g.edge_cap(e);  // both arc directions
  }
  std::map<int, std::vector<int>> hops;  // BFS hop counts per demand source
  double weighted = 0.0;
  for (const tb::Demand& d : tm.demands) {
    auto it = hops.find(d.src);
    if (it == hops.end()) {
      std::vector<int> dist(static_cast<std::size_t>(n), -1);
      std::deque<int> queue{d.src};
      dist[static_cast<std::size_t>(d.src)] = 0;
      while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        const int next = dist[static_cast<std::size_t>(u)] + 1;
        for (const int v : adj[static_cast<std::size_t>(u)]) {
          if (dist[static_cast<std::size_t>(v)] < 0) {
            dist[static_cast<std::size_t>(v)] = next;
            queue.push_back(v);
          }
        }
      }
      it = hops.emplace(d.src, std::move(dist)).first;
    }
    const int h = it->second[static_cast<std::size_t>(d.dst)];
    if (h < 0) return std::numeric_limits<double>::infinity();
    weighted += d.amount * h;
  }
  return weighted > 0.0 ? capacity / weighted
                        : std::numeric_limits<double>::infinity();
}

double hose_scale(const tb::TrafficMatrix& tm) {
  std::map<int, double> out;
  std::map<int, double> in;
  for (const tb::Demand& d : tm.demands) {
    out[d.src] += d.amount;
    in[d.dst] += d.amount;
  }
  double scale = 0.0;
  for (const auto& [node, sum] : out) scale = std::max(scale, sum);
  for (const auto& [node, sum] : in) scale = std::max(scale, sum);
  return scale;
}

bool theorem2_holds(double throughput, double hose, double a2a, double eps) {
  // `throughput * hose` is the throughput of the TM rescaled to hose caps.
  return throughput * hose >= (1.0 - eps) * (a2a / 2.0) * (1.0 - 1e-9);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, hash);
  return buf;
}

double median(std::vector<double> xs) {
  return tb::percentile(std::move(xs), 50.0);
}

void end_to_end(Report& report, const std::vector<double>& setup_s,
                const std::vector<double>& ops_per_s,
                const std::vector<double>& latency_s, double rss_mb) {
  report.metric("setup_s", median(setup_s), "s");
  report.metric("ops_per_s", median(ops_per_s), "1/s");
  report.metric("op_p50_ms", tb::percentile(latency_s, 50.0) * 1e3, "ms");
  report.metric("op_p99_ms", tb::percentile(latency_s, 99.0) * 1e3, "ms");
  report.metric("peak_rss_mb", rss_mb, "MB");
}

double peak_rss_mb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/" + pid + "/status");
}

}  // namespace perf
