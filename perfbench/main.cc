// perfbench: the repository benchmark's load generator. run.py builds and
// invokes it; see README.md for the workloads and metrics.
//
//   perfbench --workload <wire-dashboard|retailer-grow|durable-paged>
//             --seed N --seconds S --trace 0|1
//             --work-dir DIR --server PATH
//
// The last line of standard output is the JSON result.
#include <sys/vfs.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common.h"

namespace perfbench {

void Report::Fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
}

void Report::NoteUpdateP99(const std::vector<double>& update_us) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "update_p99_us (ungated): %.3f over %zu",
                Percentile(update_us, 99), update_us.size());
  notes.push_back(buf);
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"serve.ping_us", "us"},
      {"serve.engine_update_us", "us"},
      {"serve.engine_enumerate_us", "us"},
      {"serve.overhead_us", "us"},
      {"sql.compile_us", "us"},
      {"engines.merge_us", "us"},
      {"core.apply_us", "us"},
      {"core.first_tenth_ns_per_delta", "ns"},
      {"core.last_tenth_ns_per_delta", "ns"},
      {"core.enum_delay_ns", "ns"},
      {"core.state_mb", "MiB"},
      {"core.snapshot_clones", "1/batch"},
      {"core.snapshot_replays", "1/batch"},
      {"data.alloc_bytes_per_delta", "B"},
      {"data.allocs_per_delta", "count"},
      {"data.rehashes", "1/kdelta"},
      {"data.pager_hit_ratio", "ratio"},
      {"data.pager_evictions_per_delta", "count"},
      {"data.pager_writebacks_per_delta", "count"},
      {"store.append_us", "us"},
      {"store.wal_bytes_per_delta", "B"},
      {"store.checkpoint_s", "s"},
      {"store.snapshot_mb", "MiB"},
      {"store.snapshot_load_s", "s"},
      {"store.replay_s", "s"},
      {"obs.off_on_ratio", "ratio"},
      {"util.pool_speedup", "ratio"},
  };
  return kNames;
}

void FillBypassedLayers(Report* r) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    bool have = false;
    for (const Metric& m : r->metrics) have = have || m.name == name;
    if (!have) r->Add(name, 0, unit);
  }
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void PrintReport(const Report& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", e.c_str());
  }
  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": " + JsonString(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double SecondsSince(uint64_t t0_ns) {
  return static_cast<double>(NowNs() - t0_ns) * 1e-9;
}

uint64_t SelfCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

uint64_t ProcCpuNs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  size_t close = line.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  const long tick = sysconf(_SC_CLK_TCK);
  return (utime + stime) * (1000000000ull / static_cast<uint64_t>(tick));
}

double PeakRssMb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) +
                                           "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

std::string FsKind(const std::string& path) {
  struct statfs s {};
  if (statfs(path.c_str(), &s) != 0) return "unknown";
  return s.f_type == 0x01021994 ? "tmpfs" : "disk";  // TMPFS_MAGIC
}

double Median(std::vector<double> v) {
  return incr::Percentile(std::move(v), 50);
}

double InterquartileMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t lo = v.size() / 4, hi = v.size() - v.size() / 4;
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

void AddTenths(const std::vector<double>& series, std::vector<double>* first,
               std::vector<double>* last) {
  const size_t tenth = series.size() / 10;
  if (tenth == 0) return;
  double head = 0, tail = 0;
  for (size_t i = 0; i < tenth; ++i) {
    head += series[i];
    tail += series[series.size() - 1 - i];
  }
  first->push_back(head / static_cast<double>(tenth));
  last->push_back(tail / static_cast<double>(tenth));
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--server") {
      a.server_path = v;
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (a.work_dir.empty() || !(a.seconds > 0)) {
    std::fprintf(stderr, "perfbench: need --work-dir and --seconds > 0\n");
    return 2;
  }
  perfbench::Report r;
  if (a.workload == "wire-dashboard") {
    r = perfbench::RunWire(a);
  } else if (a.workload == "retailer-grow") {
    r = perfbench::RunRetailer(a);
  } else if (a.workload == "durable-paged") {
    r = perfbench::RunDurable(a);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  if (a.trace) perfbench::FillBypassedLayers(&r);
  perfbench::PrintReport(r);
  return 0;
}
