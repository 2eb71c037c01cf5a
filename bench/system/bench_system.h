#ifndef TILESPMV_BENCH_SYSTEM_BENCH_SYSTEM_H_
#define TILESPMV_BENCH_SYSTEM_BENCH_SYSTEM_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "sparse/csr.h"
#include "util/status.h"

namespace tilespmv::bench_system {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Command line of one bench_system process (see README.md).
struct Args {
  std::string workload;  ///< A workload name, or "host" for the ceiling probe.
  uint64_t seed = 1;
  double seconds = 15.0;  ///< Measured load time of one pass.
  std::string trace_dir;  ///< Non-empty: traced pass + layer probes.
  std::string data_dir = "bench_system_data";  ///< Generated graph files.
  std::string host_json = "host.json";  ///< Written by host, read by traces.
  bool smoke = false;  ///< n <= 2000, 0.5 s passes, every answer checked.
};

/// Parses `--name=value` flags strictly: an unknown flag or a malformed
/// number is an error.
Result<Args> ParseArgs(int argc, char** argv);

/// `v` as a JSON number with ten significant digits.
std::string JsonNumber(double v);

/// Named measurements of one run, printed as a JSON object.
class Report {
 public:
  /// `samples` < 0 omits the count.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = -1);
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    int64_t samples = -1;
  };
  std::vector<Metric> metrics_;
};

/// Adds `<name>` as the q-th percentile of `ms` with its sample count, but
/// only when at least ten samples lie beyond it (q = 50 qualifies from 20
/// samples).
void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& ms, double q);

/// Chrome trace_event recorder for spans placed in the benchmark's own code.
/// Disabled logs record nothing; events stay in memory until Write.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  /// Records a complete event; `args` is a JSON object body without braces.
  void Add(const std::string& name, const char* cat, Clock::time_point begin,
           Clock::time_point end, int tid, const std::string& args = "");
  Status Write(const std::string& path) const;

 private:
  /// Microseconds of `t` on the trace clock (origin: log construction).
  double Micros(Clock::time_point t) const;

  struct Event {
    std::string name;
    const char* cat;
    double ts_us;
    double dur_us;
    int tid;
    std::string args;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;  // Guarded by mu_.
};

/// Records a span around its own lifetime.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, const char* cat, int tid = 0)
      : log_(log), name_(std::move(name)), cat_(cat), tid_(tid) {}
  ~ScopedSpan() { log_->Add(name_, cat_, begin_, Clock::now(), tid_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  std::string name_;
  const char* cat_;
  int tid_;
  Clock::time_point begin_ = Clock::now();
};

/// What a result was measured on.
struct HostIdentity {
  int nproc = 1;
  std::string simd_tier;  ///< Best tier from simd::DetectCaps().
  int64_t llc_bytes = 0;  ///< Last-level cache size the OS reports.
};
HostIdentity DetectHost();
std::string HostJson(const HostIdentity& host);

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// The memory-bandwidth ceiling written by `--workload=host`.
struct HostCeiling {
  double triad_gbps = 0.0;     ///< At nproc threads.
  double triad_gbps_1t = 0.0;  ///< At one thread.
};
Result<HostCeiling> ReadHostCeiling(const std::string& path);

/// `--workload=host`: STREAM triad at 1 and nproc threads, written to
/// args.host_json. Returns the process exit code.
int RunHostProbe(const Args& args);

/// What the layer probes run on: the workload's served kernel, set up on
/// the matrix its dominant query kind iterates.
struct LayerTarget {
  const CsrMatrix* adjacency = nullptr;
  bool pagerank = false;  ///< PageRank matrix and loop; otherwise RWR's.
  std::string kernel;     ///< SpMV kernel name as the engine serves it.
  int panel_width = 1;    ///< The engine's RWR plan panel width.
  float tolerance = 1e-4f;
  int32_t rwr_node = 0;   ///< Query node of the RWR iteration probe.
};

/// Times the public layer functions on `target` at 1..nproc threads:
/// adds the io-independent per-layer metrics (core, kernels, spmm, graph,
/// par, host) to `report`, records one span per probe, and returns the
/// per-thread-count table as a JSON object.
Result<std::string> ProbeLayers(const LayerTarget& target,
                                const HostCeiling& ceiling, SpanLog* spans,
                                Report* report);

/// Runs one workload (untraced pass, then with --trace the traced pass and
/// layer probes) and prints its JSON line. Returns the process exit code.
int RunWorkload(const Args& args);

}  // namespace tilespmv::bench_system

#endif  // TILESPMV_BENCH_SYSTEM_BENCH_SYSTEM_H_
