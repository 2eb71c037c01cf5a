#include <sys/resource.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench_system.h"
#include "obs/trace.h"
#include "par/pool.h"
#include "simd/caps.h"
#include "util/stats.h"

namespace tilespmv::bench_system {
namespace {

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text.c_str(), &end);
  return errno == 0 && end == text.c_str() + text.size();
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text.c_str(), &end, 10);
  return errno == 0 && end == text.c_str() + text.size();
}

/// Size of the highest-level cache sysfs lists for cpu0, e.g. "300M".
int64_t SysfsLlcBytes() {
  int64_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    int64_t scale = 1;
    const char suffix = text.back();
    if (suffix == 'K') scale = 1LL << 10;
    if (suffix == 'M') scale = 1LL << 20;
    if (suffix == 'G') scale = 1LL << 30;
    const int64_t bytes = std::atoll(text.c_str()) * scale;
    if (bytes > best) best = bytes;
  }
  return best;
}

}  // namespace

std::string JsonNumber(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

Result<Args> ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    auto bad = [&] {
      return Status::InvalidArgument("bad flag " + arg +
                                     " (see bench/system/README.md)");
    };
    if (key == "--workload" && !value.empty()) {
      args.workload = value;
    } else if (key == "--seed") {
      if (!ParseU64(value, &args.seed)) return bad();
    } else if (key == "--seconds") {
      if (!ParseDouble(value, &args.seconds) || args.seconds <= 0 ||
          args.seconds > 3600) {
        return bad();
      }
    } else if (key == "--trace" && !value.empty()) {
      args.trace_dir = value;
    } else if (key == "--data" && !value.empty()) {
      args.data_dir = value;
    } else if (key == "--host" && !value.empty()) {
      args.host_json = value;
    } else if (arg == "--smoke") {
      args.smoke = true;
    } else {
      return bad();
    }
  }
  if (args.workload.empty()) {
    return Status::InvalidArgument("--workload=<name> is required");
  }
  return args;
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples) {
  metrics_.push_back(Metric{name, value, unit, samples});
}

std::string Report::ToJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"";
    if (m.samples >= 0) out += ", \"samples\": " + std::to_string(m.samples);
    out += "}";
  }
  return out + "}";
}

void AddPercentile(Report* report, const std::string& name,
                   const std::vector<double>& ms, double q) {
  const double beyond = static_cast<double>(ms.size()) * (100.0 - q) / 100.0;
  if (beyond < 10.0) return;
  report->Add(name, Percentile(ms, q), "ms",
              static_cast<int64_t>(ms.size()));
}

double SpanLog::Micros(Clock::time_point t) const {
  return std::chrono::duration<double, std::micro>(t - origin_).count();
}

void SpanLog::Add(const std::string& name, const char* cat,
                  Clock::time_point begin, Clock::time_point end, int tid,
                  const std::string& args) {
  if (!enabled_) return;
  Event e{name, cat, Micros(begin), Micros(end) - Micros(begin), tid, args};
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

Status SpanLog::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\": [\n";
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out << (i > 0 ? ",\n" : "") << "{\"name\": \"" << obs::JsonEscape(e.name)
        << "\", \"cat\": \"" << e.cat << "\", \"ph\": \"X\", \"pid\": 1"
        << ", \"tid\": " << e.tid << ", \"ts\": " << JsonNumber(e.ts_us)
        << ", \"dur\": " << JsonNumber(e.dur_us) << ", \"args\": {" << e.args
        << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
  out.close();
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

HostIdentity DetectHost() {
  HostIdentity host;
  host.nproc = par::ThreadPool::DefaultThreadCount();
  host.simd_tier = simd::TierName(simd::DetectCaps().best());
  host.llc_bytes = SysfsLlcBytes();
  if (host.llc_bytes <= 0) {
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    host.llc_bytes = l3 > 0 ? l3 : 0;
  }
  return host;
}

std::string HostJson(const HostIdentity& host) {
  return "{\"nproc\": " + std::to_string(host.nproc) + ", \"simd_tier\": \"" +
         host.simd_tier + "\", \"llc_bytes\": " +
         std::to_string(host.llc_bytes) + "}";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Result<HostCeiling> ReadHostCeiling(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot read " + path +
                           "; run bench_system --workload=host first");
  }
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  // host.json is written by RunHostProbe; read back its two numbers.
  auto field = [&](const std::string& key, double* out) {
    const size_t at = json.find("\"" + key + "\":");
    if (at == std::string::npos) return false;
    *out = std::strtod(json.c_str() + at + key.size() + 3, nullptr);
    return *out > 0;
  };
  HostCeiling ceiling;
  if (!field("triad_gbps", &ceiling.triad_gbps) ||
      !field("triad_gbps_1t", &ceiling.triad_gbps_1t)) {
    return Status::InvalidArgument(path + " lacks triad_gbps/triad_gbps_1t");
  }
  return ceiling;
}

}  // namespace tilespmv::bench_system
