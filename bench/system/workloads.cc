// The four served workloads. Each run generates its graphs from --seed in a
// child process (so generation stays out of peak_rss_mb), times set-up from
// ReadBinaryMatrix on, drives the engine through its public entry points
// only, and checks a seeded sample of answers against the float64
// references. See README.md for why each workload exists.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <thread>
#include <tuple>

#include "bench_system.h"
#include "gen/power_law.h"
#include "graph/hits.h"
#include "graph/pagerank.h"
#include "graph/rwr.h"
#include "io/binary_cache.h"
#include "kernels/spmv.h"
#include "par/pool.h"
#include "serve/engine.h"
#include "simd/caps.h"
#include "util/random.h"
#include "util/stats.h"

namespace tilespmv::bench_system {
namespace {

using serve::Engine;
using serve::EngineOptions;
using serve::QueryKind;
using serve::QueryParams;
using serve::QueryResponse;
using serve::ServerStatsSnapshot;

enum class Load {
  kOpenLoop,  ///< Poisson arrivals from one generator thread.
  kRankJobs,  ///< One client running PageRank-then-HITS jobs.
  kClosedLoop, ///< Closed-loop clients drawing from a query mix.
};

struct WorkloadSpec {
  const char* name;
  Load load;
  int32_t n;
  int64_t nnz;
  const char* kernel;  ///< QueryParams::kernel; "" = engine default.
  float tolerance;
  int clients;         ///< Closed-loop client threads (capped at nproc).
  double rwr_share;    ///< Query mix; HITS takes 1 - rwr - pagerank.
  double pagerank_share;
  bool churn;          ///< Updater thread re-registers fresh graphs.
};

constexpr WorkloadSpec kWorkloads[] = {
    {"rwr-interactive", Load::kOpenLoop, 100000, 1300000, "", 1e-4f, 4, 1.0,
     0.0, false},
    {"rank-global", Load::kRankJobs, 400000, 5700000, "cpu-csr", 1e-6f, 1, 0.0,
     0.5, false},
    {"mixed-small", Load::kClosedLoop, 8000, 64000, "", 1e-4f, 4, 0.8, 0.1,
     false},
    {"graph-churn", Load::kClosedLoop, 50000, 400000, "", 1e-4f, 2, 0.9, 0.1,
     true},
};

// rwr-interactive: the open-loop `low` phase takes this share of the run;
// a closed-loop saturation phase takes the rest. (A 75 q/s open-loop phase
// sat at the capacity of the 4-core reference host, where goodput spread
// 26% run to run.)
constexpr double kLowShare = 0.7;
constexpr double kLowRate = 25.0;  // q/s
// Above the observed tail: a healthy run sheds nothing, a stalled one sheds
// instead of queueing without bound. (At 0.25 s, about one request in 700
// missed it: a coalesced panel runs until its slowest member converges.)
constexpr double kDeadlineSeconds = 1.0;
constexpr double kMaxGeneratorLateMs = 10.0;
constexpr double kUpdatePeriodSeconds = 1.0;  // graph-churn.
constexpr int kMinRankJobs = 100;             // rank-global.
// Set-up repeats at least kMinSetupReps times and until kSetupSeconds have
// been timed (at most kMaxSetupReps), so fast set-ups get a steady median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 15;
constexpr double kSetupSeconds = 1.0;
constexpr size_t kSamplesPerKind = 20;
// max|y - y_ref| <= kOracleBound * max|y_ref|, the tolerance-class constant.
constexpr double kOracleBound = 2e-4;

// Smoke runs shrink graphs to n <= kSmokeNodes (same mean degree), run
// ~0.5 s passes, and raise the open-loop rate and update frequency so the
// short phases still carry enough samples for every percentile.
constexpr int32_t kSmokeNodes = 2000;
constexpr double kSmokeSeconds = 0.5;
constexpr double kSmokeRateScale = 20.0;
constexpr double kSmokeUpdatePeriodSeconds = 0.1;

constexpr int kNumKinds = 3;

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t NameSalt(const char* name) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a.
  for (const char* c = name; *c != '\0'; ++c) {
    h = (h ^ static_cast<unsigned char>(*c)) * 1099511628211ULL;
  }
  return h;
}

double HitsShare(const WorkloadSpec& w) {
  return std::max(0.0, 1.0 - w.rwr_share - w.pagerank_share);
}

/// Kinds the workload issues, in the order set-up answers them cold.
std::vector<QueryKind> KindsOf(const WorkloadSpec& w) {
  std::vector<QueryKind> kinds;
  if (w.pagerank_share > 0) kinds.push_back(QueryKind::kPageRank);
  if (HitsShare(w) > 1e-9) kinds.push_back(QueryKind::kHits);
  if (w.rwr_share > 0) kinds.push_back(QueryKind::kRwr);
  return kinds;
}

std::string KindName(QueryKind kind) {
  return std::string(serve::QueryKindName(kind));
}

/// The generated graph files of one run; removed when the run ends.
struct Inputs {
  int32_t n = 0;
  std::vector<std::string> paths;  ///< [0] is served; [v] is churn update v.
  uint64_t served_file_bytes = 0;

  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;
  ~Inputs() {
    std::error_code ec;
    for (const std::string& p : paths) std::filesystem::remove(p, ec);
  }
};

/// Writes every graph version of the run from a child process, so the
/// generator's memory never counts toward this process's peak RSS.
Status GenerateInputs(const WorkloadSpec& w, const Args& args, int versions,
                      Inputs* inputs) {
  std::error_code ec;
  std::filesystem::create_directories(args.data_dir, ec);
  if (ec) return Status::IoError("cannot create " + args.data_dir);
  const double shrink =
      args.smoke ? std::min(1.0, static_cast<double>(kSmokeNodes) / w.n) : 1.0;
  inputs->n = static_cast<int32_t>(std::lround(w.n * shrink));
  const int64_t nnz = std::llround(static_cast<double>(w.nnz) * shrink);
  for (int v = 0; v < versions; ++v) {
    inputs->paths.push_back(args.data_dir + "/" + w.name + "-" +
                            std::to_string(args.seed) + "-v" +
                            std::to_string(v) + ".bin");
  }
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) return Status::Internal("fork failed");
  if (pid == 0) {
    for (int v = 0; v < versions; ++v) {
      RmatOptions options;
      options.seed = MixSeed(args.seed, NameSalt(w.name) + v);
      const CsrMatrix g = GenerateRmat(inputs->n, nnz, options);
      if (!WriteBinaryMatrix(g, inputs->paths[v]).ok()) _exit(1);
    }
    _exit(0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return Status::Internal("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("graph generation failed");
  }
  inputs->served_file_bytes = std::filesystem::file_size(inputs->paths[0], ec);
  return Status::OK();
}

/// Answers attempted, failed (non-OK status) and checked by the oracle.
struct Counts {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, int64_t> failed_by_code;
  int64_t checked = 0;
  int64_t wrong = 0;
};

/// One answer kept for the correctness check.
struct Sample {
  QueryKind kind = QueryKind::kRwr;
  int32_t node = 0;
  int version = 0;  ///< Graph version it was computed on.
  int iterations = 0;
  std::vector<float> scores, authority, hub;
};

/// Thread-safe sink for the answers of one pass: counts, latencies, stage
/// breakdowns, and a seeded reservoir sample per query kind for the oracle
/// (every answer in smoke runs).
class Recorder {
 public:
  Recorder(uint64_t seed, bool keep_all) : rng_(seed, 0x2545f491), keep_all_(keep_all) {}

  /// `version` < 0: the graph version is unknown (an update raced the
  /// submit), so the answer is counted but not sampled. `latency_ms` NaN:
  /// not a latency sample of the workload's distribution.
  void Record(QueryKind kind, int32_t node, int version, QueryResponse r,
              double latency_ms) {
    std::lock_guard<std::mutex> lock(mu_);
    ++attempted_;
    if (!r.status.ok()) {
      ++failed_;
      ++failed_by_code_[obs::StatusCodeName(r.status.code())];
      return;
    }
    if (!std::isnan(latency_ms)) latency_ms_.push_back(latency_ms);
    for (int s = 0; s < obs::kNumQueryStages; ++s) {
      stage_ms_[s].push_back(r.stages.seconds[s] * 1e3);
    }
    wait_ms_.push_back((r.stages[obs::QueryStage::kQueue] +
                        r.stages[obs::QueryStage::kCoalesce]) *
                       1e3);
    if (!r.plan_cache_hit && r.plan_build_seconds > 0) {
      plan_build_ms_.push_back(r.plan_build_seconds * 1e3);
    }
    if (version < 0) return;
    const int k = static_cast<int>(kind);
    const uint64_t seen = ++offered_[k];
    size_t slot = samples_[k].size();
    if (!keep_all_ && slot >= kSamplesPerKind) {
      slot = rng_.NextBounded(static_cast<uint32_t>(
          std::min<uint64_t>(seen, UINT32_MAX)));
      if (slot >= kSamplesPerKind) return;
    }
    Sample s;
    s.kind = kind;
    s.node = node;
    s.version = version;
    s.iterations = r.stats.iterations;
    s.scores = std::move(r.scores);
    s.authority = std::move(r.authority);
    s.hub = std::move(r.hub);
    if (slot == samples_[k].size()) {
      samples_[k].push_back(std::move(s));
    } else {
      samples_[k][slot] = std::move(s);
    }
  }

  void AddLatency(double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    latency_ms_.push_back(ms);
  }

  // Read only after every recording thread has been joined.
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  int64_t ok() const { return attempted_ - failed_; }
  const std::map<std::string, int64_t>& failed_by_code() const {
    return failed_by_code_;
  }
  const std::vector<double>& latency_ms() const { return latency_ms_; }
  const std::vector<double>& stage_ms(int s) const { return stage_ms_[s]; }
  const std::vector<double>& wait_ms() const { return wait_ms_; }
  const std::vector<double>& plan_build_ms() const { return plan_build_ms_; }
  std::vector<Sample> TakeSamples() {
    std::vector<Sample> all;
    for (auto& per_kind : samples_) {
      for (Sample& s : per_kind) all.push_back(std::move(s));
    }
    return all;
  }

 private:
  std::mutex mu_;
  Pcg32 rng_;
  bool keep_all_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::map<std::string, int64_t> failed_by_code_;
  std::vector<double> latency_ms_;
  std::vector<double> stage_ms_[obs::kNumQueryStages];
  std::vector<double> wait_ms_;
  std::vector<double> plan_build_ms_;
  uint64_t offered_[kNumKinds] = {};
  std::vector<Sample> samples_[kNumKinds];
};

double MaxAbs(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::fabs(x));
  return m;
}

bool WithinBound(const std::vector<float>& y, const std::vector<double>& ref) {
  if (y.size() != ref.size()) return false;
  double err = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    err = std::max(err, std::fabs(static_cast<double>(y[i]) - ref[i]));
  }
  return err <= kOracleBound * MaxAbs(ref);
}

/// Checks every sample against the float64 reference run for the iteration
/// count the answer reports. References depend only on (kind, version,
/// node, iterations), so repeated PageRank/HITS answers share one.
Status CheckSamples(const Inputs& inputs, std::vector<Sample> samples,
                    Counts* counts) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.version < b.version; });
  int loaded_version = -1;
  CsrMatrix adjacency;
  std::map<std::tuple<int, int32_t, int>, std::vector<double>> refs;
  std::map<int, std::vector<double>> hub_refs;
  for (const Sample& s : samples) {
    if (s.version != loaded_version) {
      Result<CsrMatrix> m = ReadBinaryMatrix(inputs.paths[s.version]);
      if (!m.ok()) return m.status();
      adjacency = m.take();
      loaded_version = s.version;
      refs.clear();
      hub_refs.clear();
    }
    const int32_t node = s.kind == QueryKind::kRwr ? s.node : -1;
    const auto key = std::make_tuple(static_cast<int>(s.kind), node, s.iterations);
    auto it = refs.find(key);
    if (it == refs.end()) {
      std::vector<double> ref;
      switch (s.kind) {
        case QueryKind::kPageRank:
          ref = PageRankReference(adjacency, 0.85, s.iterations);
          break;
        case QueryKind::kHits:
          HitsReference(adjacency, s.iterations, &ref, &hub_refs[s.iterations]);
          break;
        case QueryKind::kRwr:
          ref = RwrReference(adjacency, s.node, 0.9, s.iterations);
          break;
      }
      it = refs.emplace(key, std::move(ref)).first;
    }
    bool ok = false;
    if (s.kind == QueryKind::kHits) {
      ok = WithinBound(s.authority, it->second) &&
           WithinBound(s.hub, hub_refs[s.iterations]);
    } else {
      ok = WithinBound(s.scores, it->second);
    }
    ++counts->checked;
    if (!ok) {
      ++counts->wrong;
      std::fprintf(stderr, "wrong answer: %s node=%d version=%d iterations=%d\n",
                   KindName(s.kind).c_str(), s.node, s.version, s.iterations);
    }
  }
  return Status::OK();
}

std::string StageArgs(const QueryResponse& r) {
  char buf[96];
  std::string args = "\"query_id\": " + std::to_string(r.query_id) +
                     ", \"status\": \"" +
                     obs::StatusCodeName(r.status.code()) + "\"";
  for (int s = 0; s < obs::kNumQueryStages; ++s) {
    std::snprintf(buf, sizeof(buf), ", \"%s_ms\": %.4f", obs::QueryStageName(s),
                  r.stages.seconds[s] * 1e3);
    args += buf;
  }
  return args;
}

/// One pass over a workload: set-up, then the measured load, recording into
/// its own engine, recorder and (when tracing) span log.
class Pass {
 public:
  Pass(const WorkloadSpec& w, const Args& args, const Inputs& inputs,
       SpanLog* spans)
      : w_(w),
        args_(args),
        inputs_(inputs),
        spans_(spans),
        seconds_(args.smoke ? kSmokeSeconds : args.seconds),
        rec_(MixSeed(args.seed, 77), args.smoke),
        rng_(MixSeed(args.seed, 11)) {}

  Status Run() {
    TILESPMV_RETURN_IF_ERROR(SetUp());
    before_ = engine_->stats();
    const int clients = std::min(w_.clients, par::ThreadPool::DefaultThreadCount());
    switch (w_.load) {
      case Load::kOpenLoop:
        OpenLoop(seconds_ * kLowShare);
        TILESPMV_RETURN_IF_ERROR(
            ClosedLoop(seconds_ * (1.0 - kLowShare), clients, false));
        break;
      case Load::kRankJobs:
        RankJobs();
        break;
      case Load::kClosedLoop:
        TILESPMV_RETURN_IF_ERROR(ClosedLoop(seconds_, clients, true));
        break;
    }
    after_ = engine_->stats();
    panel_width_ = engine_->options().spmm_block_cols;
    engine_.reset();
    peak_rss_mb_ = PeakRssMb();
    return Status::OK();
  }

  /// The metrics a user of the engine sees (untraced pass).
  void AddEndToEnd(Report* report) const {
    report->Add("setup_s", Percentile(setup_s_, 50), "s",
                static_cast<int64_t>(setup_s_.size()));
    const std::vector<double>& lat = rec_.latency_ms();
    for (double q : {50.0, 90.0, 95.0, 99.0}) {
      char name[32];
      std::snprintf(name, sizeof(name), "latency_p%.0f_ms", q);
      AddPercentile(report, name, lat, q);
    }
    report->Add("throughput_qps", throughput_answers_ / throughput_seconds_,
                "1/s", throughput_answers_);
    if (!refresh_ms_.empty()) {
      report->Add("refresh_ms", Percentile(refresh_ms_, 50), "ms",
                  static_cast<int64_t>(refresh_ms_.size()));
    }
    report->Add("error_rate",
                static_cast<double>(rec_.failed()) /
                    std::max<int64_t>(1, rec_.attempted()),
                "ratio", rec_.attempted());
    report->Add("peak_rss_mb", peak_rss_mb_, "MiB");
  }

  /// io and serve per-layer metrics (traced pass).
  void AddServeLayers(Report* report) const {
    report->Add("io.load_ms", Percentile(load_s_, 50) * 1e3, "ms",
                static_cast<int64_t>(load_s_.size()));
    report->Add("io.load_gbps",
                static_cast<double>(inputs_.served_file_bytes) /
                    Percentile(load_s_, 50) * 1e-9,
                "GB/s");
    static const char* kStageMetric[obs::kNumQueryStages] = {
        "serve.admission_ms", "serve.queue_ms",       "serve.coalesce_ms",
        "serve.plan_ms",      "serve.execute_ms",     "serve.postprocess_ms",
        "serve.reply_ms"};
    for (int s = 0; s < obs::kNumQueryStages; ++s) {
      report->Add(kStageMetric[s], Percentile(rec_.stage_ms(s), 50), "ms",
                  static_cast<int64_t>(rec_.stage_ms(s).size()));
    }
    report->Add("serve.wait_ms", Percentile(rec_.wait_ms(), 50), "ms",
                static_cast<int64_t>(rec_.wait_ms().size()));
    std::vector<double> builds = setup_plan_build_ms_;
    builds.insert(builds.end(), rec_.plan_build_ms().begin(),
                  rec_.plan_build_ms().end());
    report->Add("serve.plan_build_ms", Percentile(builds, 50), "ms",
                static_cast<int64_t>(builds.size()));
    const double hits = static_cast<double>(after_.plan_hits - before_.plan_hits);
    const double misses =
        static_cast<double>(after_.plan_misses - before_.plan_misses);
    report->Add("serve.plan_hit_ratio", hits / std::max(1.0, hits + misses),
                "ratio");
    report->Add("serve.dedup_ratio",
                static_cast<double>(after_.dedup_hits - before_.dedup_hits) /
                    std::max<int64_t>(1, rec_.attempted()),
                "ratio");
    const double batches =
        static_cast<double>(after_.rwr_batches - before_.rwr_batches);
    const double batched = static_cast<double>(after_.rwr_batched_queries -
                                               before_.rwr_batched_queries);
    report->Add("serve.batch_width_mean", batched / std::max(1.0, batches),
                "count");
    const double sweeps =
        static_cast<double>(after_.spmm_sweeps - before_.spmm_sweeps);
    const double vectors =
        static_cast<double>(after_.spmm_vectors - before_.spmm_vectors);
    report->Add("serve.panel_fill",
                vectors / std::max(1.0, sweeps) / panel_width_, "ratio");
  }

  double LatencyP50() const { return Percentile(rec_.latency_ms(), 50); }
  int panel_width() const { return panel_width_; }
  void AddCounts(Counts* counts) const {
    counts->attempted += rec_.attempted();
    counts->failed += rec_.failed();
    for (const auto& [code, n] : rec_.failed_by_code()) {
      counts->failed_by_code[code] += n;
    }
  }
  double gen_late_p99_ms() const { return Percentile(late_ms_, 99); }
  std::vector<Sample> TakeSamples() { return rec_.TakeSamples(); }

 private:
  /// Set-up's cold answers carry no deadline: they pay the plan build.
  QueryParams Params(QueryKind kind, int32_t node, bool cold = false) const {
    QueryParams p;
    p.kernel = w_.kernel;
    p.tolerance = w_.tolerance;
    p.node = kind == QueryKind::kRwr ? node : -1;
    if (w_.load == Load::kOpenLoop && !cold) p.deadline_seconds = kDeadlineSeconds;
    return p;
  }

  /// Uniform over all nodes. About a third of an R-MAT graph's nodes are
  /// isolated and answered trivially; drawing only nodes with edges was
  /// tried and made the low phase's p50 bimodal (solo vs batched answers),
  /// spreading it 23% across seeds against 7% with all nodes.
  int32_t NextNode(Pcg32* rng) const {
    return static_cast<int32_t>(rng->NextBounded(static_cast<uint32_t>(inputs_.n)));
  }

  QueryKind NextKind(Pcg32* rng) const {
    const double u = rng->NextDouble();
    if (u < w_.rwr_share) return QueryKind::kRwr;
    if (u < w_.rwr_share + w_.pagerank_share) return QueryKind::kPageRank;
    return QueryKind::kHits;
  }

  void Span(const std::string& name, Clock::time_point begin,
            Clock::time_point end, int tid, const QueryResponse& r,
            const std::string& extra = "") {
    if (!spans_->enabled()) return;
    spans_->Add(name, "request", begin, end, tid, StageArgs(r) + extra);
  }

  /// Read + AddGraph + the first OK answer of every kind, each time on a
  /// fresh engine; the last engine (plans warm) serves the load.
  Status SetUp() {
    double timed = 0.0;
    for (int rep = 0; args_.smoke ? rep < 1
                                  : rep < kMaxSetupReps &&
                                        (rep < kMinSetupReps || timed < kSetupSeconds);
         ++rep) {
      engine_.reset();
      ScopedSpan setup_span(spans_, "setup", "setup");
      const Clock::time_point t0 = Clock::now();
      Result<CsrMatrix> graph = [&] {
        ScopedSpan span(spans_, "io/ReadBinaryMatrix", "setup");
        return ReadBinaryMatrix(inputs_.paths[0]);
      }();
      if (!graph.ok()) return graph.status();
      load_s_.push_back(SecondsBetween(t0, Clock::now()));
      EngineOptions options;
      options.num_threads = 2;
      engine_ = std::make_unique<Engine>(options);
      {
        ScopedSpan span(spans_, "serve/AddGraph", "setup");
        TILESPMV_RETURN_IF_ERROR(engine_->AddGraph("g", graph.take()));
      }
      for (QueryKind kind : KindsOf(w_)) {
        ScopedSpan span(spans_, "serve/cold/" + KindName(kind), "setup");
        QueryResponse r =
            engine_->Query("g", kind, Params(kind, NextNode(&rng_), true));
        if (!r.status.ok()) return r.status;
        if (!r.plan_cache_hit) setup_plan_build_ms_.push_back(r.plan_build_seconds * 1e3);
      }
      setup_s_.push_back(SecondsBetween(t0, Clock::now()));
      timed += setup_s_.back();
    }
    return Status::OK();
  }

  /// rwr-interactive's `low` phase: arrivals of a Poisson process
  /// conditioned on its count (uniform times, sorted) from one generator
  /// thread; latency counts from each request's due time.
  void OpenLoop(double seconds) {
    const double rate = kLowRate * (args_.smoke ? kSmokeRateScale : 1.0);
    std::vector<double> due_s(static_cast<size_t>(std::lround(rate * seconds)));
    for (double& t : due_s) t = rng_.NextDouble() * seconds;
    std::sort(due_s.begin(), due_s.end());

    struct InFlight {
      int32_t node = 0;
      Clock::time_point due, submit;
      std::future<QueryResponse> future;
    };
    std::mutex mu;
    std::condition_variable cv;
    std::deque<InFlight> queue;  // Guarded by mu.
    bool done = false;           // Guarded by mu.
    std::jthread collector([&] {
      for (;;) {
        InFlight f;
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return done || !queue.empty(); });
          if (queue.empty()) return;
          f = std::move(queue.front());
          queue.pop_front();
        }
        QueryResponse r = f.future.get();
        const double ms =
            SecondsBetween(f.due, f.submit) * 1e3 + r.latency_seconds * 1e3;
        char delay[64];
        std::snprintf(delay, sizeof(delay), ", \"submit_delay_ms\": %.4f",
                      SecondsBetween(f.due, f.submit) * 1e3);
        Span("request/rwr", f.due,
             f.due + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(ms)),
             0, r, delay);
        rec_.Record(QueryKind::kRwr, f.node, 0, std::move(r), ms);
      }
    });
    const Clock::time_point start = Clock::now();
    for (double t : due_s) {
      const int32_t node = NextNode(&rng_);
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(t));
      std::this_thread::sleep_until(due);
      const Clock::time_point submit = Clock::now();
      late_ms_.push_back(SecondsBetween(due, submit) * 1e3);
      std::future<QueryResponse> future =
          engine_->Submit("g", QueryKind::kRwr, Params(QueryKind::kRwr, node));
      {
        std::lock_guard<std::mutex> lock(mu);
        queue.push_back(InFlight{node, due, submit, std::move(future)});
      }
      cv.notify_one();
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
    }
    cv.notify_one();
  }

  /// rank-global: one client; a job is a PageRank solve then a HITS solve,
  /// and the job is the latency sample. The load lasts at least the pass
  /// length and at least kMinRankJobs jobs, so p90 always has ten samples
  /// beyond it.
  void RankJobs() {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds_));
    for (int jobs = 0; jobs < kMinRankJobs || Clock::now() < end; ++jobs) {
      const Clock::time_point t0 = Clock::now();
      for (QueryKind kind : {QueryKind::kPageRank, QueryKind::kHits}) {
        const Clock::time_point q0 = Clock::now();
        QueryResponse r = engine_->Query("g", kind, Params(kind, -1));
        Span("request/" + KindName(kind), q0, Clock::now(), 1, r);
        rec_.Record(kind, -1, 0, std::move(r), NAN);
      }
      const Clock::time_point t1 = Clock::now();
      if (spans_->enabled()) spans_->Add("job", "request", t0, t1, 0);
      rec_.AddLatency(SecondsBetween(t0, t1) * 1e3);
    }
    throughput_answers_ = rec_.ok();
    throughput_seconds_ = SecondsBetween(start, Clock::now());
  }

  /// `clients` closed-loop clients drawing from the workload's mix for
  /// `seconds`; their OK answers per second are the throughput. graph-churn
  /// adds an updater that re-registers fresh content every period and times
  /// the refresh to its first OK answer.
  Status ClosedLoop(double seconds, int clients, bool latency_samples) {
    std::vector<CsrMatrix> updates;
    for (size_t v = 1; v < inputs_.paths.size(); ++v) {
      Result<CsrMatrix> m = ReadBinaryMatrix(inputs_.paths[v]);
      if (!m.ok()) return m.status();
      updates.push_back(m.take());
    }
    // Even: version/2 is registered; odd: an AddGraph is in progress.
    std::atomic<int> version_seq{0};
    const int64_t ok_before = rec_.ok();
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
      std::vector<std::jthread> threads;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          Pcg32 rng(MixSeed(args_.seed, 100 + c));
          while (Clock::now() < end) {
            const QueryKind kind = NextKind(&rng);
            const int32_t node = NextNode(&rng);
            const int seq0 = version_seq.load();
            const Clock::time_point t0 = Clock::now();
            std::future<QueryResponse> future =
                engine_->Submit("g", kind, Params(kind, node));
            const int seq1 = version_seq.load();
            QueryResponse r = future.get();
            const Clock::time_point t1 = Clock::now();
            Span("request/" + KindName(kind), t0, t1, 1 + c, r);
            const int version = seq0 == seq1 && seq0 % 2 == 0 ? seq0 / 2 : -1;
            rec_.Record(kind, node, version, std::move(r),
                        latency_samples ? SecondsBetween(t0, t1) * 1e3 : NAN);
          }
        });
      }
      if (w_.churn) {
        threads.emplace_back([&] {
          const double period =
              args_.smoke ? kSmokeUpdatePeriodSeconds : kUpdatePeriodSeconds;
          Pcg32 rng(MixSeed(args_.seed, 99));
          for (size_t v = 1; v <= updates.size(); ++v) {
            const Clock::time_point due =
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(period * v));
            if (due >= end) break;
            std::this_thread::sleep_until(due);
            const int32_t node = NextNode(&rng);
            const Clock::time_point t0 = Clock::now();
            version_seq.store(2 * static_cast<int>(v) - 1);
            const Status added = engine_->AddGraph("g", std::move(updates[v - 1]));
            version_seq.store(2 * static_cast<int>(v));
            QueryResponse r;
            r.status = added;
            if (added.ok()) {
              r = engine_->Query("g", QueryKind::kRwr,
                                 Params(QueryKind::kRwr, node));
            }
            const Clock::time_point t1 = Clock::now();
            if (spans_->enabled()) {
              spans_->Add("refresh", "request", t0, t1, 0, StageArgs(r));
            }
            if (r.status.ok()) refresh_ms_.push_back(SecondsBetween(t0, t1) * 1e3);
            rec_.Record(QueryKind::kRwr, node, static_cast<int>(v), std::move(r),
                        NAN);
          }
        });
      }
    }
    throughput_answers_ = rec_.ok() - ok_before;
    throughput_seconds_ = SecondsBetween(start, Clock::now());
    return Status::OK();
  }

  const WorkloadSpec& w_;
  const Args& args_;
  const Inputs& inputs_;
  SpanLog* spans_;
  const double seconds_;
  Recorder rec_;
  Pcg32 rng_;
  std::unique_ptr<Engine> engine_;
  std::vector<double> setup_s_, load_s_, setup_plan_build_ms_;
  std::vector<double> late_ms_, refresh_ms_;
  int64_t throughput_answers_ = 0;  ///< OK answers of the throughput phase.
  double throughput_seconds_ = 1.0;
  double peak_rss_mb_ = 0.0;
  int panel_width_ = 1;
  ServerStatsSnapshot before_, after_;
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Status RunAll(const WorkloadSpec& w, const Args& args, const HostIdentity& host) {
  const HostCeiling* ceiling = nullptr;
  Result<HostCeiling> read_ceiling = HostCeiling{};
  if (!args.trace_dir.empty()) {
    read_ceiling = ReadHostCeiling(args.host_json);
    if (!read_ceiling.ok()) return read_ceiling.status();
    ceiling = &read_ceiling.value();
  }
  const double seconds = args.smoke ? kSmokeSeconds : args.seconds;
  const double period = args.smoke ? kSmokeUpdatePeriodSeconds : kUpdatePeriodSeconds;
  // Update v is due at v * period and only runs before the load ends.
  const int versions =
      w.churn ? static_cast<int>(std::ceil(seconds / period)) : 1;
  Inputs inputs;
  TILESPMV_RETURN_IF_ERROR(GenerateInputs(w, args, versions, &inputs));

  Report report;
  Counts counts;
  SpanLog untraced(false);
  Pass plain(w, args, inputs, &untraced);
  TILESPMV_RETURN_IF_ERROR(plain.Run());
  plain.AddEndToEnd(&report);
  plain.AddCounts(&counts);
  TILESPMV_RETURN_IF_ERROR(CheckSamples(inputs, plain.TakeSamples(), &counts));

  if (ceiling != nullptr) {
    std::error_code ec;
    std::filesystem::create_directories(args.trace_dir, ec);
    SpanLog spans(true);
    Pass traced(w, args, inputs, &spans);
    TILESPMV_RETURN_IF_ERROR(traced.Run());
    traced.AddServeLayers(&report);
    report.Add("trace_overhead_pct",
               100.0 * (traced.LatencyP50() - plain.LatencyP50()) /
                   plain.LatencyP50(),
               "%");
    traced.AddCounts(&counts);
    TILESPMV_RETURN_IF_ERROR(CheckSamples(inputs, traced.TakeSamples(), &counts));

    Result<CsrMatrix> graph = ReadBinaryMatrix(inputs.paths[0]);
    if (!graph.ok()) return graph.status();
    LayerTarget target;
    target.adjacency = &graph.value();
    target.pagerank = w.load == Load::kRankJobs;
    target.kernel = *w.kernel != '\0' ? w.kernel : EngineOptions{}.default_kernel;
    if (simd::ResolvedTier() != simd::Tier::kScalar &&
        !SimdHostKernelFor(target.kernel).empty()) {
      target.kernel = SimdHostKernelFor(target.kernel);
    }
    target.panel_width = traced.panel_width();
    target.tolerance = w.tolerance;
    Pcg32 rng(MixSeed(args.seed, 5));
    target.rwr_node =
        static_cast<int32_t>(rng.NextBounded(static_cast<uint32_t>(inputs.n)));
    Result<std::string> layers = ProbeLayers(target, *ceiling, &spans, &report);
    if (!layers.ok()) return layers.status();
    TILESPMV_RETURN_IF_ERROR(spans.Write(args.trace_dir + "/trace.json"));
    std::ofstream out(args.trace_dir + "/layers.json");
    out << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
        << ", \"host\": " << HostJson(host) << ", \"layers\": " << layers.value()
        << ", \"metrics\": " << report.ToJson() << "}\n";
    if (!out) return Status::IoError("cannot write layers.json");
  }

  const bool correct = counts.wrong == 0 && counts.checked > 0;
  std::string failures;
  for (const auto& [code, n] : counts.failed_by_code) {
    failures += (failures.empty() ? "\"" : ", \"") + code + "\": " + std::to_string(n);
  }
  // The open loop's generator lateness: latency already counts it (from the
  // due time), but a run whose generator fell behind by more than 10 ms at
  // p99 offered less load than the workload states.
  std::string late;
  if (w.load == Load::kOpenLoop) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "\"gen_late_p99_ms\": %.4f, \"load_valid\": %s, ",
                  plain.gen_late_p99_ms(),
                  plain.gen_late_p99_ms() <= kMaxGeneratorLateMs ? "true" : "false");
    late = buf;
  }
  std::printf(
      "{\"bench\": \"bench_system\", \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"smoke\": %s, \"traced\": %s, \"host\": %s, "
      "\"attempted\": %lld, \"failed\": %lld, \"failed_by_status\": {%s}, "
      "\"checked\": %lld, \"wrong\": %lld, \"correct\": %s, %s"
      "\"metrics\": %s}\n",
      w.name, static_cast<unsigned long long>(args.seed), seconds,
      args.smoke ? "true" : "false", ceiling != nullptr ? "true" : "false",
      HostJson(host).c_str(), static_cast<long long>(counts.attempted),
      static_cast<long long>(counts.failed), failures.c_str(),
      static_cast<long long>(counts.checked),
      static_cast<long long>(counts.wrong), correct ? "true" : "false",
      late.c_str(), report.ToJson().c_str());
  std::fflush(stdout);
  if (!correct) return Status::Internal("answers failed the float64 oracle");
  return Status::OK();
}

}  // namespace

int RunWorkload(const Args& args) {
  const WorkloadSpec* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Status st = RunAll(*w, args, DetectHost());
  if (!st.ok()) {
    std::fprintf(stderr, "bench_system: %s\n", st.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace tilespmv::bench_system
