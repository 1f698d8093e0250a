// Shared plumbing of the repository benchmark: run arguments, the result
// line, latency summaries, process counters read from /proc, and the
// counting allocator's switches. See README.md for what each workload does.
#ifndef INCR_PERFBENCH_COMMON_H_
#define INCR_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "incr/util/stats.h"

namespace perfbench {

/// Nearest-rank percentile, p in [0, 100].
using incr::Percentile;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout for WAL, snapshot and spill
  /// files; created by the caller, removed by run.py.
  std::string work_dir;
  /// Path of the ivm_server executable built next to this binary.
  std::string server_path;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one run reports. `failed` counts operations that failed because of
/// the known server fault (see wire.cc); any other wrong output clears
/// `correct` and is described in `errors`.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;
  /// Free-form "key: value" lines printed before the result line.
  std::vector<std::string> notes;

  /// Notes the ungated update p99 (README.md, "Why update_p99_us is not
  /// gated").
  void NoteUpdateP99(const std::vector<double>& update_us);

  void Fail(const std::string& why);
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

/// The per-layer metric names every traced run prints; a layer that the
/// workload bypasses reads 0 (README.md, "Per-layer metrics").
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Fills every per-layer metric the workload did not measure with 0.
void FillBypassedLayers(Report* r);

/// Prints notes, errors (stderr) and the one-line JSON result (stdout).
void PrintReport(const Report& r);

Report RunWire(const Args& a);
Report RunRetailer(const Args& a);
Report RunDurable(const Args& a);

// ---- measurement helpers ------------------------------------------------

uint64_t NowNs();
double SecondsSince(uint64_t t0_ns);

/// CPU time (user + system) of this process, in ns.
uint64_t SelfCpuNs();

/// CPU time (user + system) of process `pid` from /proc, in ns (10 ms
/// resolution: the kernel counts in clock ticks).
uint64_t ProcCpuNs(pid_t pid);

/// Peak resident set (VmHWM) of `pid`, in MiB; 0 = this process.
double PeakRssMb(pid_t pid = 0);

/// "tmpfs" or "disk", for the file system holding `path`.
std::string FsKind(const std::string& path);

/// Nearest-rank median.
double Median(std::vector<double> v);
/// Interquartile mean: the mean of the middle half of `v`. Robust to a few
/// outliers like the median, but not stepped by coarse clock ticks.
double InterquartileMean(std::vector<double> v);
/// Appends the mean of the first and of the last tenth of `series` (one
/// episode's apply ns/delta, in order) to `first` and `last`.
void AddTenths(const std::vector<double>& series, std::vector<double>* first,
               std::vector<double>* last);

/// Deterministic 64-bit mix for deriving sub-seeds from the run seed.
uint64_t Mix(uint64_t a, uint64_t b);

// ---- counting allocator (alloc_count.cc) ---------------------------------

struct AllocCounts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

/// Starts or stops counting operator new calls in this process.
void CountAllocs(bool on);
AllocCounts ReadAllocCounts();

}  // namespace perfbench

#endif  // INCR_PERFBENCH_COMMON_H_
