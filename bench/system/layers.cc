// Layer probes: the public layer functions timed on the workload's own graph
// at 1..nproc threads, and the STREAM-triad ceiling they are measured
// against. Bytes are computed from array sizes (an algorithmic lower bound
// that ignores cache misses), not measured.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <vector>

#include "bench_system.h"
#include "core/preprocess.h"
#include "graph/pagerank.h"
#include "graph/rwr.h"
#include "par/pool.h"
#include "sparse/convert.h"
#include "spmm/spmm.h"
#include "util/stats.h"
#include "util/timer.h"

namespace tilespmv::bench_system {
namespace {

constexpr double kProbeSeconds = 0.25;  // Timed work per probe.
constexpr int kMinReps = 5;
constexpr int kMaxReps = 200;
constexpr int kFixedIterations = 20;  // graph.iter_ms solves at tolerance 0.
constexpr int kMaxIterations = 100;   // QueryParams default.
constexpr int kTriadReps = 5;
constexpr int64_t kMiB = 1LL << 20;
// Each triad array is 4x the reported LLC, capped: on the 4-core reference
// host (300 MiB L3 reported) 256 MiB and 1.2 GiB arrays measured the same
// bandwidth, so the cap keeps 1.5 GiB resident instead of 3.6 GiB.
constexpr int64_t kTriadMinBytes = 64 * kMiB;
constexpr int64_t kTriadMaxBytes = 512 * kMiB;
constexpr int64_t kTriadSmokeBytes = 8 * kMiB;

/// Median wall ms of `fn` after one warm-up call, over enough repetitions
/// to fill kProbeSeconds.
template <typename Fn>
double MedianMs(const Fn& fn) {
  fn();
  WallTimer once;
  fn();
  const double first = once.Seconds();
  const int reps = std::clamp(static_cast<int>(kProbeSeconds / std::max(first, 1e-6)),
                              kMinReps, kMaxReps);
  std::vector<double> ms;
  ms.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    WallTimer t;
    fn();
    ms.push_back(t.Seconds() * 1e3);
  }
  return Percentile(ms, 50);
}

/// Computed bytes of one sweep over a CSR-sized matrix feeding `vectors`
/// input/output vectors: values + column indices + row pointers, x read
/// once and y written once per vector.
double SweepBytes(const CsrMatrix& m, int vectors) {
  return static_cast<double>(m.nnz()) * (sizeof(float) + sizeof(int32_t)) +
         static_cast<double>(m.rows + 1) * sizeof(int64_t) +
         static_cast<double>(vectors) * (m.rows + m.cols) * sizeof(float);
}

}  // namespace

Result<std::string> ProbeLayers(const LayerTarget& target,
                                const HostCeiling& ceiling, SpanLog* spans,
                                Report* report) {
  const gpusim::DeviceSpec spec;
  const int nproc = par::ThreadPool::DefaultThreadCount();
  const std::string spmm_name = spmm::SpmmKernelNameForSpmv(target.kernel);
  std::unique_ptr<SpMVKernel> kernel = CreateKernel(target.kernel, spec);
  std::unique_ptr<spmm::SpMMKernel> blocked = spmm::CreateSpMMKernel(spmm_name, spec);
  if (kernel == nullptr || blocked == nullptr) {
    return Status::InvalidArgument("no SpMV/SpMM pair for " + target.kernel);
  }

  // The matrix the workload's dominant kind iterates, with both kernels set
  // up on it exactly as an engine plan would.
  CsrMatrix m;
  std::unique_ptr<RwrEngine> rwr;
  {
    ScopedSpan span(spans, "layer/setup " + target.kernel, "layer");
    if (target.pagerank) {
      m = PageRankMatrix(*target.adjacency);
      TILESPMV_RETURN_IF_ERROR(kernel->Setup(m));
      TILESPMV_RETURN_IF_ERROR(blocked->Setup(m, target.panel_width));
    } else {
      m = ColNormalize(Symmetrize(*target.adjacency));
      rwr = std::make_unique<RwrEngine>(kernel.get(), blocked.get());
      RwrOptions options;
      options.block_cols = target.panel_width;
      TILESPMV_RETURN_IF_ERROR(rwr->Init(*target.adjacency, options));
    }
  }

  std::vector<float> x(static_cast<size_t>(m.cols));
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = 0.25f + static_cast<float>(i % 17) * 0.0625f;
  }
  std::vector<float> y;
  spmm::DenseBlock xb(m.cols, target.panel_width);
  for (size_t i = 0; i < xb.data.size(); ++i) {
    xb.data[i] = 0.25f + static_cast<float>(i % 13) * 0.0625f;
  }
  spmm::DenseBlock yb;

  const double spmv_bytes = SweepBytes(m, 1);
  const double spmm_bytes = SweepBytes(m, target.panel_width);
  std::vector<double> spmv_ms(nproc + 1), spmm_ms(nproc + 1);
  std::string threads_json;
  for (int t = 1; t <= nproc; ++t) {
    par::ThreadPool::SetGlobalThreadCount(t);
    {
      ScopedSpan span(spans, "layer/spmv threads=" + std::to_string(t), "layer");
      spmv_ms[t] = MedianMs([&] { kernel->Multiply(x, &y); });
    }
    {
      ScopedSpan span(spans, "layer/spmm threads=" + std::to_string(t), "layer");
      spmm_ms[t] = MedianMs([&] { blocked->Multiply(xb, &yb); });
    }
    threads_json += std::string(t > 1 ? ", " : "") + "{\"threads\": " +
                    std::to_string(t) + ", \"spmv_ms\": " + JsonNumber(spmv_ms[t]) +
                    ", \"spmv_gbps\": " + JsonNumber(spmv_bytes / spmv_ms[t] * 1e-6) +
                    ", \"spmm_sweep_ms\": " + JsonNumber(spmm_ms[t]) +
                    ", \"spmm_gbps\": " + JsonNumber(spmm_bytes / spmm_ms[t] * 1e-6) +
                    "}";
  }
  par::ThreadPool::SetGlobalThreadCount(0);

  // The iteration loop at nproc threads: a fixed iteration count for the
  // per-iteration cost, then one solve at the workload's tolerance for the
  // iteration count.
  double iter_ms = 0.0;
  int iterations = 0;
  {
    ScopedSpan span(spans, "layer/iteration", "layer");
    if (target.pagerank) {
      PageRankOptions options;
      options.tolerance = 0.0f;
      options.max_iterations = kFixedIterations;
      iter_ms = MedianMs([&] { (void)RunPageRankPrepared(*kernel, options); }) /
                kFixedIterations;
      options.tolerance = target.tolerance;
      options.max_iterations = kMaxIterations;
      Result<IterativeResult> solved = RunPageRankPrepared(*kernel, options);
      if (!solved.ok()) return solved.status();
      iterations = solved.value().iterations;
    } else {
      RwrOptions options;
      options.tolerance = 0.0f;
      options.max_iterations = kFixedIterations;
      iter_ms = MedianMs([&] { (void)rwr->Query(target.rwr_node, options); }) /
                kFixedIterations;
      options.tolerance = target.tolerance;
      options.max_iterations = kMaxIterations;
      Result<RwrResult> solved = rwr->Query(target.rwr_node, options);
      if (!solved.ok()) return solved.status();
      iterations = solved.value().stats.iterations;
    }
  }

  Result<PreprocessReport> pre = [&] {
    ScopedSpan span(spans, "layer/preprocess", "layer");
    return MeasurePreprocessing(m, spec);
  }();
  if (!pre.ok()) return pre.status();

  const double spmv_s = spmv_ms[nproc] * 1e-3;
  const double spmv_gbps = spmv_bytes / spmv_s * 1e-9;
  const double spmm_gbps = spmm_bytes / (spmm_ms[nproc] * 1e-3) * 1e-9;
  report->Add("core.sort_columns_ms", pre.value().sort_columns_seconds * 1e3, "ms");
  report->Add("core.relabel_ms", pre.value().relabel_seconds * 1e3, "ms");
  report->Add("core.tiling_ms", pre.value().tiling_seconds * 1e3, "ms");
  report->Add("core.composite_ms", pre.value().composite_seconds * 1e3, "ms");
  report->Add("kernels.spmv_ms", spmv_ms[nproc], "ms");
  report->Add("kernels.spmv_ms_1t", spmv_ms[1], "ms");
  report->Add("kernels.spmv_bytes", spmv_bytes, "bytes_computed");
  report->Add("kernels.spmv_gbps", spmv_gbps, "GB/s");
  report->Add("kernels.spmv_gflops", 2.0 * m.nnz() / spmv_s * 1e-9, "GFLOP/s");
  report->Add("kernels.spmv_roofline", spmv_gbps / ceiling.triad_gbps, "ratio");
  report->Add("spmm.sweep_ms", spmm_ms[nproc], "ms");
  report->Add("spmm.ms_per_vector", spmm_ms[nproc] / target.panel_width, "ms");
  report->Add("spmm.gbps", spmm_gbps, "GB/s");
  report->Add("spmm.roofline", spmm_gbps / ceiling.triad_gbps, "ratio");
  report->Add("graph.iter_ms", iter_ms, "ms");
  report->Add("graph.update_ms", iter_ms - spmv_ms[nproc], "ms");
  report->Add("graph.iterations", iterations, "count");
  report->Add("par.scaling_eff", spmv_ms[1] / (nproc * spmv_ms[nproc]), "ratio");
  report->Add("host.triad_gbps", ceiling.triad_gbps, "GB/s");
  report->Add("host.triad_gbps_1t", ceiling.triad_gbps_1t, "GB/s");

  return "{\"kernel\": \"" + target.kernel + "\", \"spmm_kernel\": \"" +
         spmm_name + "\", \"panel_width\": " +
         std::to_string(target.panel_width) + ", \"rows\": " +
         std::to_string(m.rows) + ", \"nnz\": " + std::to_string(m.nnz()) +
         ", \"spmv_bytes_computed\": " + JsonNumber(spmv_bytes) +
         ", \"spmm_bytes_computed\": " + JsonNumber(spmm_bytes) +
         ", \"iter_ms\": " + JsonNumber(iter_ms) +
         ", \"iterations\": " + std::to_string(iterations) +
         ", \"threads\": [" + threads_json + "]}";
}

int RunHostProbe(const Args& args) {
  const HostIdentity host = DetectHost();
  const int64_t wanted = 4 * host.llc_bytes;
  const int64_t array_bytes =
      args.smoke ? kTriadSmokeBytes
                 : std::clamp(wanted, kTriadMinBytes, kTriadMaxBytes);
  const auto n = static_cast<size_t>(array_bytes / sizeof(double));
  std::vector<double> a(n, 0.0), b(n, 1.0), c(n, 2.0);
  auto triad_gbps = [&](int threads) {
    par::ThreadPool::SetGlobalThreadCount(threads);
    par::LoopOptions options;
    options.grain = 1 << 16;
    double best = 1e300;
    for (int r = 0; r < kTriadReps; ++r) {
      WallTimer t;
      par::ParallelFor(0, static_cast<int64_t>(n), options,
                       [&](int64_t lo, int64_t hi) {
                         for (int64_t i = lo; i < hi; ++i) a[i] = b[i] + 3.0 * c[i];
                       });
      best = std::min(best, t.Seconds());
    }
    return 3.0 * static_cast<double>(array_bytes) / best * 1e-9;
  };
  const double gbps_1t = triad_gbps(1);
  const double gbps = triad_gbps(host.nproc);
  par::ThreadPool::SetGlobalThreadCount(0);
  if (a[n / 2] != 7.0) {
    std::fprintf(stderr, "bench_system: triad produced wrong values\n");
    return 1;
  }
  const std::string json =
      "{\"host\": " + HostJson(host) + ", \"array_bytes\": " +
      std::to_string(array_bytes) + ", \"array_bytes_wanted\": " +
      std::to_string(wanted) + ", \"triad_gbps\": " + JsonNumber(gbps) +
      ", \"triad_gbps_1t\": " + JsonNumber(gbps_1t) + "}";
  std::ofstream out(args.host_json);
  out << json << "\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "bench_system: cannot write %s\n", args.host_json.c_str());
    return 1;
  }
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace tilespmv::bench_system
