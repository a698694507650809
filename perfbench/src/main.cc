// End-to-end benchmark of the DIDO store on both clocks.
//
//   dido_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]
//   dido_perfbench --selftest
//
// An untraced run (--trace 0) has three parts: set-up (build the store and
// preload it), a simulated phase of DidoStore::ServeBatch calls (real
// single-threaded execution plus the APU timing model, with the planner
// adapting), and a live phase of LivePipeline on the cut the planner chose.
// Every response of both phases is checked.  A traced run (--trace 1) times
// each module's public calls from this file instead and reports per-layer
// metrics.  The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "checker.h"
#include "core/dido_store.h"
#include "core/megakv_store.h"
#include "costmodel/config_search.h"
#include "live/live_pipeline.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sync/epoch.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Simulated phase: warm-up batches (the planner adapts, caches warm), a
// first block of measured batches that also defines sim_mops, then one
// block per live cycle.  The counts do not follow the host's speed, so the
// batches are the same in every run: sim_mops is identical in every run, and
// the host-time percentiles are order statistics of the same batch mix (the
// profiler's epoch-closing batches are several times slower than the rest,
// and a percentile near their share would jump between the two clusters if
// the count varied).  Blocks are whole profiler epochs (4 batches each).
constexpr int kSimWarmupBatches = 16;
constexpr size_t kSimMopsBatches = 64;
constexpr int kSimBatchesPerRound = 16;
// Sampling-epoch label of live traffic; the profiler counts epochs from 1.
constexpr uint64_t kLiveSamplingEpoch = UINT64_MAX;
// Batches of the Mega-KV static-cut reference run.
constexpr int kMegaKvBatches = 32;
// Live phase: cycles of Start, warm-up, one measured window, Stop, for
// kLiveShare of --seconds; live_mops is the median window rate.  On a 4-core
// host the rate of one pipeline instance differs by tens of percent from one
// Start to the next, so a run's median covers several instances.
constexpr double kLiveCycleSeconds = 0.6;
constexpr double kLiveWarmupSeconds = 0.2;
constexpr double kLiveShare = 0.5;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
      continue;
    }
    if (flag == "--out-dir") {
      args->out_dir = value;
      continue;
    }
    if (flag == "--trace" && (value == "0" || value == "1")) {
      args->trace = value == "1";
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else {
      *error = "unknown flag or bad value: " + flag + " " + value;
      return false;
    }
    if (value.empty() || *end != '\0') {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->selftest) return true;
  if (!have_workload || FindWorkload(args->workload) == nullptr) {
    *error = "--workload must be one of:";
    for (const WorkloadDef& def : Workloads()) *error += " " + def.name;
    return false;
  }
  if (!(args->seconds >= 1.0 && args->seconds <= 600.0)) {
    *error = "--seconds must be in [1, 600]";
    return false;
  }
  return true;
}

// What one run reports.
class Report {
 public:
  void Fail(const std::string& why) {
    correct_ = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  void Check(bool ok, const std::string& why) {
    if (!ok) Fail(why);
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) {
      Fail("metric " + name + " is not finite");
      value = 0.0;
    }
    metrics_.push_back({name, value, unit});
  }
  void CountOps(const Tally& tally) {
    attempted_ += tally.records;
    failed_ += tally.sets_failed;
  }
  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
      out += (i > 0 ? ", \"" : "\"") + metrics_[i].name +
             "\": {\"value\": " + value + ", \"unit\": \"" + metrics_[i].unit +
             "\"}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

// Checks a whole response stream: no record failed a check, and (for read
// workloads) every GET hit.
void CheckTally(const Tally& tally, const WorkloadDef& def,
                const std::string& phase, Report* report) {
  report->Check(tally.bad == 0, phase + ": " + std::to_string(tally.bad) +
                                    " bad response records, first: " +
                                    tally.first_bad);
  report->Check(tally.gets == tally.hits + tally.misses,
                phase + ": GET responses do not add up");
  if (def.expect_all_hits) {
    report->Check(tally.misses == 0, phase + ": " +
                                         std::to_string(tally.misses) +
                                         " GET misses on a fully loaded key space");
  }
}

// The live phase's client: drains the response ring on its own thread and
// checks every record, so responses never pile up in memory.
class LiveResponseDrain {
 public:
  LiveResponseDrain(dido::FrameRing* ring, ResponseChecker* checker)
      : ring_(ring), checker_(checker), thread_([this] { Loop(); }) {}
  ~LiveResponseDrain() { Finish(); }
  LiveResponseDrain(const LiveResponseDrain&) = delete;
  LiveResponseDrain& operator=(const LiveResponseDrain&) = delete;

  // Call after the pipeline stopped: drains what is left and joins.
  const Tally& Finish() {
    done_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
    return tally_;
  }
  // After Finish: the deepest the ring got, and the time spent checking.
  size_t max_depth() const { return max_depth_; }
  double busy_seconds() const { return busy_s_; }

 private:
  void Loop() {
    std::vector<dido::Frame> frames;
    for (;;) {
      const bool done = done_.load(std::memory_order_acquire);
      frames.clear();
      max_depth_ = std::max(max_depth_, ring_->size());
      ring_->PopBatch(4096, &frames);
      const Clock::time_point start = Clock::now();
      for (const dido::Frame& frame : frames) checker_->CheckFrame(frame, &tally_);
      busy_s_ += Seconds(start, Clock::now());
      if (frames.empty()) {
        if (done) return;
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
  }

  size_t max_depth_ = 0;
  double busy_s_ = 0.0;
  dido::FrameRing* ring_;
  ResponseChecker* checker_;
  Tally tally_;
  std::atomic<bool> done_{false};
  std::thread thread_;  // declared last: starts after the members it uses
};

// Backlog the response drain may build up.  Peaks of up to ~70k frames were
// seen on read_large (one record per frame) when the host delays the drain
// thread; a dropped response frame fails the exactly-once check.
constexpr size_t kResponseRingFrames = 1 << 19;

struct LiveOutcome {
  dido::LivePipeline::Stats stats;
  Tally tally;
  std::vector<double> window_mops;
};

// Runs the live pipeline on the store's runtime in cycles: each cycle is a
// fresh LivePipeline (Start, warm-up, one measured window, Stop).  One
// response ring and one checking drain serve all cycles; Finish checks the
// exactly-once arithmetic and the hit counts against the pipelines' own
// statistics, summed over the cycles.
class LiveRunner {
 public:
  LiveRunner(dido::DidoStore* store, dido::TrafficSource* source,
             ResponseChecker* checker, dido::obs::MetricsRegistry* metrics)
      : store_(store), source_(source), drain_(&ring_, checker) {
    options_.batch_queries = kLiveBatchQueries;
    // Saturation throughput is measured, not degradation: no failover and
    // no shedding, so every ingested query retires.
    options_.watchdog = false;
    options_.admission_timeout_ms = 0;
    options_.response_ring = &ring_;
    options_.metrics = metrics;
  }

  void RunCycle(const dido::PipelineConfig& cut, Report* report) {
    dido::LivePipeline pipeline(&store_->runtime(), cut, options_);
    const dido::Status started = pipeline.Start(source_);
    if (!started.ok()) {
      report->Fail("LivePipeline::Start: " + started.ToString());
      return;
    }
    const Clock::time_point start = Clock::now();
    std::this_thread::sleep_until(start + ToDuration(kLiveWarmupSeconds));
    const uint64_t q0 = pipeline.Collect().queries;
    const Clock::time_point t0 = Clock::now();
    std::this_thread::sleep_until(start + ToDuration(kLiveCycleSeconds));
    const uint64_t q1 = pipeline.Collect().queries;
    const Clock::time_point t1 = Clock::now();
    pipeline.Stop();
    out_.window_mops.push_back(static_cast<double>(q1 - q0) /
                               Seconds(t0, t1) / 1e6);
    const dido::LivePipeline::Stats s = pipeline.Collect();
    const dido::DegradationStats& d = s.degradation;
    dido::LivePipeline::Stats& sum = out_.stats;
    sum.queries += s.queries;
    sum.hits += s.hits;
    sum.misses += s.misses;
    sum.degradation.ingested_queries += d.ingested_queries;
    sum.degradation.shed_queries += d.shed_queries;
    sum.degradation.error_responses += d.error_responses;
    sum.degradation.responses_dropped += d.responses_dropped;
  }

  const LiveOutcome& Finish(const WorkloadDef& def, const std::string& phase,
                            Report* report) {
    out_.tally = drain_.Finish();
    std::fprintf(stderr, "info: %s windows (Mops):", phase.c_str());
    for (double w : out_.window_mops) std::fprintf(stderr, " %.3f", w);
    std::fprintf(stderr,
                 "\ninfo: %s response drain: %.2f s checking, ring peak %zu "
                 "of %zu frames\n",
                 phase.c_str(), drain_.busy_seconds(), drain_.max_depth(),
                 kResponseRingFrames);
    const dido::LivePipeline::Stats& s = out_.stats;
    const dido::DegradationStats& d = s.degradation;
    const Tally& t = out_.tally;
    report->Check(d.ingested_queries - d.shed_queries == s.queries &&
                      s.queries == t.records,
                  phase + ": exactly-once broken: ingested " +
                      std::to_string(d.ingested_queries) + " - shed " +
                      std::to_string(d.shed_queries) + ", retired " +
                      std::to_string(s.queries) + ", decoded " +
                      std::to_string(t.records));
    report->Check(d.responses_dropped == 0,
                  phase + ": response frames dropped by the response ring");
    report->Check(t.hits == s.hits && t.misses == s.misses,
                  phase + ": decoded hits/misses " + std::to_string(t.hits) +
                      "/" + std::to_string(t.misses) +
                      " differ from the pipeline's " + std::to_string(s.hits) +
                      "/" + std::to_string(s.misses));
    report->Check(t.sets_failed == d.error_responses,
                  phase + ": decoded error responses differ from the pipeline's");
    report->Check(!out_.window_mops.empty(), phase + ": no measured window");
    CheckTally(t, def, phase, report);
    report->CountOps(t);
    return out_;
  }

 private:
  dido::DidoStore* store_;
  dido::TrafficSource* source_;
  dido::LivePipeline::Options options_;
  LiveOutcome out_;
  dido::FrameRing ring_{kResponseRingFrames};
  LiveResponseDrain drain_;  // after ring_: joins before the ring goes
};

// The adapted store's simulated throughput must be no lower than the
// Mega-KV static cut's on the same workload and traffic (the paper's
// central claim).
void CheckAgainstMegaKv(const WorkloadDef& def, const Sizing& sizing,
                        double dido_sim_mops, Report* report) {
  dido::MegaKvStore megakv(StoreOptions(def));
  megakv.Preload(def.spec.dataset, sizing.preload);
  dido::WorkloadGenerator generator(def.spec, sizing.keyspace, def.sim_seed);
  dido::TrafficSource source(&generator);
  std::vector<double> mops;
  for (int b = 0; b < kSimWarmupBatches + kMegaKvBatches; ++b) {
    const dido::BatchResult r = megakv.ServeBatch(source, kServeBatchQueries);
    if (b >= kSimWarmupBatches) mops.push_back(r.throughput_mops);
  }
  const double megakv_mops = Quantile(mops, 0.5);
  std::fprintf(stderr, "info: sim Mops DIDO %.4f vs Mega-KV static %.4f\n",
               dido_sim_mops, megakv_mops);
  report->Check(dido_sim_mops >= megakv_mops,
                "adapted DIDO simulated throughput below Mega-KV's static cut");
}

// A fixed pointer chase over 32 MiB in the benchmark's own code: records
// how fast the host's memory was during the run, so host drift can be told
// apart from a change to the program.
double DramChaseNs() {
  constexpr size_t kLines = (32u << 20) / 64;
  constexpr size_t kLoads = 1u << 21;
  std::vector<uint64_t> next(kLines * 8);
  std::vector<uint64_t> order(kLines);
  std::iota(order.begin(), order.end(), 0);
  uint64_t state = 0x2545F4914F6CDD1DULL;
  for (size_t i = kLines - 1; i > 0; --i) {  // Sattolo: one cycle
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::swap(order[i], order[state % i]);
  }
  for (size_t i = 0; i < kLines; ++i) {
    next[order[i] * 8] = order[(i + 1) % kLines] * 8;
  }
  uint64_t at = 0;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < kLoads; ++i) at = next[at];
  const double ns = Seconds(start, Clock::now()) * 1e9 / kLoads;
  if (at == UINT64_MAX) std::fprintf(stderr, "unreachable\n");
  return ns;
}

int RunEndToEnd(const Args& args, const WorkloadDef& def,
                Clock::time_point process_start) {
  Report report;
  const Sizing sizing = SizeFor(def);
  dido::DidoStore store(StoreOptions(def));
  const uint64_t loaded = store.Preload(def.spec.dataset, sizing.preload);
  dido::WorkloadGenerator sim_generator(def.spec, sizing.keyspace,
                                        def.sim_seed);
  dido::TrafficSource sim_source(&sim_generator);
  const double setup_s = Seconds(process_start, Clock::now());
  report.Check(loaded == sizing.preload,
               "preload stored " + std::to_string(loaded) + " of " +
                   std::to_string(sizing.preload) + " objects");
  std::fprintf(stderr,
               "info: %s arena %zu MiB holds %llu objects; key space %llu, "
               "preloaded %llu\n",
               def.spec.Name().c_str(), kArenaBytes >> 20,
               static_cast<unsigned long long>(sizing.capacity),
               static_cast<unsigned long long>(sizing.keyspace),
               static_cast<unsigned long long>(sizing.preload));

  // Both clients' SET logs are replayed by each checker: the simulated
  // phase's GETs may return values the live client wrote and vice versa,
  // and each checker (with its logs) belongs to one thread.
  dido::WorkloadGenerator live_generator(LiveSpec(def), sizing.keyspace,
                                         args.seed);
  dido::TrafficSource live_source(&live_generator);
  VersionLog sim_log(def.spec, sizing.keyspace, def.sim_seed);
  VersionLog live_log(LiveSpec(def), sizing.keyspace, args.seed);
  ResponseChecker checker(def.spec.dataset, sizing.keyspace, sizing.preload);
  checker.AddLog(&sim_log);
  checker.AddLog(&live_log);
  VersionLog drain_sim_log(def.spec, sizing.keyspace, def.sim_seed);
  VersionLog drain_live_log(LiveSpec(def), sizing.keyspace, args.seed);
  ResponseChecker drain_checker(def.spec.dataset, sizing.keyspace,
                                sizing.preload);
  drain_checker.AddLog(&drain_sim_log);
  drain_checker.AddLog(&drain_live_log);

  Tally sim_tally;
  std::vector<double> batch_ms;
  std::vector<double> sim_mops;
  uint64_t measured_queries = 0;
  std::vector<dido::Frame> frames;
  const auto serve = [&](int batches, bool measured) {
    for (int b = 0; b < batches; ++b) {
      frames.clear();
      const Clock::time_point t0 = Clock::now();
      const dido::BatchResult r =
          store.ServeBatch(sim_source, kServeBatchQueries, &frames);
      const Clock::time_point t1 = Clock::now();
      if (measured) {
        batch_ms.push_back(Seconds(t0, t1) * 1e3);
        measured_queries += r.batch_size;
        if (sim_mops.size() < kSimMopsBatches) {
          sim_mops.push_back(r.throughput_mops);
        }
      }
      const std::string error =
          CheckBatch(frames, r.batch_size, &checker, &sim_tally);
      if (!error.empty()) report.Fail("ServeBatch: " + error);
    }
  };

  // Simulated clock first, alone: warm-up, then the batches that define
  // sim_mops, on a store no live traffic has touched yet.
  serve(kSimWarmupBatches, false);
  serve(kSimMopsBatches, true);
  // Then rounds of one live cycle on the planner's current cut and one block
  // of ServeBatch calls, so that both clocks sample the host over the whole
  // run rather than over one half each.
  const int rounds = std::max(
      1, static_cast<int>(std::lround(args.seconds * kLiveShare /
                                      kLiveCycleSeconds)));
  std::fprintf(stderr, "info: planner cut %s\n",
               store.current_config().ToString().c_str());
  LiveRunner live(&store, &live_source, &drain_checker, nullptr);
  for (int round = 0; round < rounds; ++round) {
    // Live GETs bump the objects' access counters, which the profiler's skew
    // estimator samples.  Under a sampling epoch of their own, the next
    // ServeBatch restarts every counter the live cycle touched, so the
    // profiler sees only the simulated client's traffic (rounds start on a
    // profiler epoch boundary).
    store.runtime().set_sampling_epoch(kLiveSamplingEpoch);
    live.RunCycle(store.current_config(), &report);
    store.runtime().set_sampling_epoch(store.profiler().epoch());
    serve(kSimBatchesPerRound, true);
  }
  const LiveOutcome& outcome = live.Finish(def, "live phase", &report);
  CheckTally(sim_tally, def, "simulated phase", &report);
  report.CountOps(sim_tally);

  if (def.expect_all_hits) {
    report.Check(store.runtime().memory().counters().evictions == 0,
                 "objects were evicted on a key space that fits the arena");
  }
  const double sim_mops_median = Quantile(sim_mops, 0.5);
  CheckAgainstMegaKv(def, sizing, sim_mops_median, &report);
  const std::string selftest = CheckerSelfTest();
  report.Check(selftest.empty(), "checker self-test: " + selftest);
  std::fprintf(stderr, "info: host.dram_chase_ns %.3f\n", DramChaseNs());

  std::fprintf(stderr, "info: ServeBatch ms at p10..p100:");
  for (int d = 1; d <= 10; ++d) {
    std::fprintf(stderr, " %.2f", Quantile(batch_ms, d / 10.0));
  }
  std::fprintf(stderr, "\n");
  double serve_seconds = 0.0;
  for (double ms : batch_ms) serve_seconds += ms / 1e3;
  report.Add("live_mops", Quantile(outcome.window_mops, 0.5), "Mops");
  report.Add("sim_mops", sim_mops_median, "Mops");
  report.Add("serve_mqps",
             static_cast<double>(measured_queries) / serve_seconds / 1e6,
             "Mq/s");
  report.Add("serve_batch_p50_ms", Quantile(batch_ms, 0.5), "ms");
  report.Add("serve_batch_p90_ms", Quantile(batch_ms, 0.9), "ms");
  report.Add("setup_s", setup_s, "s");
  report.Print();
  return 0;
}

// --- traced run --------------------------------------------------------

// One trace lane per public call the traced loop times.
enum class Call : uint32_t {
  kFillFrame,  // workload: TrafficSource::FillFrame
  kPp,         // net: KvRuntime::RunPacketProcessing
  kMm,         // mem: RunMemoryManagement
  kInSearch,   // index: RunIndexSearch
  kInInsert,   // index: RunIndexInsert
  kInDelete,   // index: RunIndexDelete
  kKc,         // pipeline: RunKeyComparison
  kRd,         // pipeline: RunReadValue
  kWr,         // pipeline: RunWriteResponse
  kRetire,     // sync: KvRuntime::RetireBatch
  // The calls above make up one batch executed task by task; the ones below
  // are DidoStore::ServeBatch's own parts.
  kRunBatch,   // sim: PipelineExecutor::RunBatch
  kObserve,    // costmodel: WorkloadProfiler::Observe
  kSearch,     // costmodel: FindOptimalConfig
  kCount,
};
constexpr size_t kNumCalls = static_cast<size_t>(Call::kCount);

std::string_view CallName(Call call) {
  switch (call) {
    case Call::kFillFrame: return "workload.FillFrame";
    case Call::kPp: return "net.RunPacketProcessing";
    case Call::kMm: return "mem.RunMemoryManagement";
    case Call::kInSearch: return "index.RunIndexSearch";
    case Call::kInInsert: return "index.RunIndexInsert";
    case Call::kInDelete: return "index.RunIndexDelete";
    case Call::kKc: return "pipeline.RunKeyComparison";
    case Call::kRd: return "pipeline.RunReadValue";
    case Call::kWr: return "pipeline.RunWriteResponse";
    case Call::kRetire: return "sync.RetireBatch";
    case Call::kRunBatch: return "sim.RunBatch";
    case Call::kObserve: return "costmodel.Observe";
    case Call::kSearch: return "costmodel.FindOptimalConfig";
    case Call::kCount: break;
  }
  return "?";
}

// Runs `fn`, inside a span of `call` (on the call's own lane) when `trace`
// is set.
template <typename Fn>
void Timed(dido::obs::TraceCollector* trace, Call call, uint64_t batch,
           Fn&& fn) {
  if (trace == nullptr) {
    fn();
    return;
  }
  const uint64_t start = trace->NowMicros();
  fn();
  dido::obs::TraceSpan span;
  span.ts_us = start;
  span.dur_us = trace->NowMicros() - start;
  const std::string_view name = CallName(call);
  span.name = std::string(name);
  span.category = std::string(name.substr(0, name.find('.')));
  span.tid = static_cast<uint32_t>(call);
  span.args_json = "\"batch\":" + std::to_string(batch);
  trace->AddSpan(std::move(span));
}

// Span durations per call, read back from the collector.
struct CallTimes {
  std::array<double, kNumCalls> total_ns{};
  std::array<std::vector<double>, kNumCalls> durations_us;

  explicit CallTimes(const dido::obs::TraceCollector& trace) {
    for (const dido::obs::TraceSpan& span : trace.Snapshot()) {
      const double us = static_cast<double>(span.dur_us);
      total_ns[span.tid] += us * 1e3;
      durations_us[span.tid].push_back(us);
    }
  }
  double TotalNs(Call call) const {
    return total_ns[static_cast<size_t>(call)];
  }
  const std::vector<double>& DurationsUs(Call call) const {
    return durations_us[static_cast<size_t>(call)];
  }
  // Every call of a batch executed task by task.
  double TaskTotalNs() const {
    double sum = 0.0;
    for (size_t c = 0; c <= static_cast<size_t>(Call::kRetire); ++c) {
      sum += total_ns[c];
    }
    return sum;
  }
};

// One batch executed task by task, as PipelineExecutor::RunBatch executes
// it, with every public call inside a span when `trace` is set.  Returns the
// wall seconds of the calls themselves.
double ExecuteBatchByTask(dido::KvRuntime& runtime,
                          const dido::PipelineConfig& config,
                          dido::TrafficSource& source, dido::QueryBatch* batch,
                          dido::obs::TraceCollector* trace) {
  using dido::TaskKind;
  const uint64_t id = batch->sequence;
  dido::ScopedEpochParticipant participant(runtime.epoch());
  const Clock::time_point start = Clock::now();
  Timed(trace, Call::kFillFrame, id, [&] {
    uint64_t queries = 0;
    while (queries < kServeBatchQueries) {
      dido::Frame frame;
      queries += source.FillFrame(&frame, nullptr);
      batch->frames.push_back(std::move(frame));
    }
  });
  Timed(trace, Call::kPp, id, [&] { runtime.RunPacketProcessing(batch).ok(); });
  for (const dido::StageSpec& stage :
       config.Stages(dido::DefaultKaveriSpec().cpu.cores)) {
    for (TaskKind task : stage.tasks) {
      Call call = Call::kCount;
      switch (task) {
        case TaskKind::kMm: call = Call::kMm; break;
        case TaskKind::kInSearch: call = Call::kInSearch; break;
        case TaskKind::kInInsert: call = Call::kInInsert; break;
        case TaskKind::kInDelete: call = Call::kInDelete; break;
        case TaskKind::kKc: call = Call::kKc; break;
        case TaskKind::kRd: call = Call::kRd; break;
        case TaskKind::kWr: call = Call::kWr; break;
        case TaskKind::kRv:
        case TaskKind::kPp:
        case TaskKind::kSd: continue;
      }
      Timed(trace, call, id,
            [&] { runtime.RunRangeTask(task, batch, 0, batch->size()); });
    }
  }
  Timed(trace, Call::kRetire, id, [&] { runtime.RetireBatch(batch); });
  return Seconds(start, Clock::now());
}

// Live stages reported by a traced run (the planner's cuts have three).
constexpr size_t kReportedStages = 3;
// How far the module spans may miss the wall time they are checked against
// before the traced run fails: a larger gap means a layer is not traced.
constexpr double kCoverageTolerance = 0.05;

int RunTraced(const Args& args, const WorkloadDef& def) {
  Report report;
  const Sizing sizing = SizeFor(def);
  dido::DidoStore store(StoreOptions(def));
  const Clock::time_point preload_start = Clock::now();
  store.Preload(def.spec.dataset, sizing.preload);
  const double preload_s = Seconds(preload_start, Clock::now());

  // One client source feeds the traced loop; its SET log is replayed.
  dido::WorkloadGenerator generator(def.spec, sizing.keyspace, args.seed);
  dido::TrafficSource source(&generator);
  VersionLog log(def.spec, sizing.keyspace, args.seed);
  ResponseChecker checker(def.spec.dataset, sizing.keyspace, sizing.preload);
  checker.AddLog(&log);
  Tally tally;
  uint64_t issued = 0;
  const auto check = [&](const std::vector<dido::Frame>& frames,
                         uint64_t records, const char* what) {
    issued += records;
    const std::string error = CheckBatch(frames, records, &checker, &tally);
    if (!error.empty()) report.Fail(std::string(what) + ": " + error);
  };

  // Rounds of the store's ServeBatch, decomposed into the simulator's
  // RunBatch, the profiler's Observe and the planner's search as DidoStore
  // runs them, followed (after warm-up) by two batches executed task by task
  // on the same cut, one untraced and one traced.  Interleaving puts all
  // three under the same host conditions: the traced batches' spans must
  // account for their own wall time and for RunBatch's, and the two task
  // batches' wall times give the tracing overhead.
  dido::obs::TraceCollector trace;
  for (size_t c = 0; c < kNumCalls; ++c) {
    trace.SetThreadName(static_cast<uint32_t>(c),
                        std::string(CallName(static_cast<Call>(c))));
  }
  dido::PipelineConfig config = store.current_config();
  dido::SearchOptions search;
  search.latency_cap_us = store.options().executor.latency_cap_us;
  search.work_stealing = store.options().work_stealing;
  std::vector<double> tmax_us, cpu_util, gpu_util, stolen;
  uint64_t sim_queries = 0;
  double walls[2] = {0.0, 0.0};
  uint64_t loop_queries = 0;
  uint64_t loop_batches = 0;
  dido::BatchMeasurements sum;
  double search_probe_sum = 0.0, insert_probe_sum = 0.0;
  // Eight measured rounds per second of --seconds.
  const int rounds =
      kSimWarmupBatches + static_cast<int>(std::lround(args.seconds * 8));
  std::vector<dido::Frame> frames;
  uint64_t sequence = 0;
  for (int b = 0; b < rounds; ++b) {
    dido::BatchResult r;
    Timed(&trace, Call::kRunBatch, ++sequence, [&] {
      r = store.executor().RunBatch(config, source, kServeBatchQueries, &frames);
    });
    Timed(&trace, Call::kObserve, sequence, [&] {
      store.profiler().Observe(r.measured_profile, r.measurements);
    });
    if (store.profiler().ShouldReplan()) {
      Timed(&trace, Call::kSearch, sequence, [&] {
        config = dido::FindOptimalConfig(store.cost_model(),
                                         store.profiler().Estimate(), search)
                     .best.config;
        store.profiler().MarkPlanned();
      });
    }
    check(frames, r.batch_size, "traced RunBatch");
    // Released before the task batches run, as DidoStore's caller releases
    // them before its next ServeBatch: with the 8 MiB of read_large's
    // responses still held, the task batches' buffers come from fresh pages
    // and run ~25% slower per query than RunBatch's.
    frames.clear();
    if (b < kSimWarmupBatches) {
      store.runtime().set_sampling_epoch(store.profiler().epoch());
      continue;
    }
    sim_queries += r.batch_size;
    tmax_us.push_back(r.t_max);
    cpu_util.push_back(r.cpu_utilization);
    gpu_util.push_back(r.gpu_utilization);
    stolen.push_back(static_cast<double>(r.stolen_queries));

    // The task batches' key accesses carry a sampling epoch of their own, so
    // the profiler samples only RunBatch's traffic (see RunEndToEnd).
    store.runtime().set_sampling_epoch(kLiveSamplingEpoch);
    // Which of the two runs first alternates, so neither always follows
    // RunBatch and the profiler (whose estimator evicts the caches).
    for (int i = 0; i < 2; ++i) {
      const int traced = i ^ (b % 2);
      dido::QueryBatch batch;
      batch.sequence = ++sequence;
      batch.config = config;
      walls[traced] += ExecuteBatchByTask(store.runtime(), config, source,
                                          &batch, traced ? &trace : nullptr);
      check(batch.responses, batch.size(), "task-by-task batch");
      if (!traced) continue;
      const dido::BatchMeasurements& m = batch.measurements;
      ++loop_batches;
      loop_queries += m.num_queries;
      sum.gets += m.gets;
      sum.sets += m.sets;
      sum.hits += m.hits;
      sum.inserts += m.inserts;
      sum.evictions += m.evictions;
      sum.set_retries += m.set_retries;
      search_probe_sum += m.search_probes * static_cast<double>(m.gets);
      insert_probe_sum += m.insert_probes * static_cast<double>(m.inserts);
    }
    store.runtime().set_sampling_epoch(store.profiler().epoch());
  }
  // The planner's search cost, timed once more on the final estimate so it
  // is measured even when the workload never drifted.
  Timed(&trace, Call::kSearch, sequence, [&] {
    dido::FindOptimalConfig(store.cost_model(), store.profiler().Estimate(),
                            search);
  });
  log.ReplayTo(issued);
  log.Seal();
  report.Check(trace.dropped() == 0, "trace collector dropped " +
                                         std::to_string(trace.dropped()) +
                                         " spans");

  // The live pipeline on the planner's cut, with its stage histograms.
  dido::obs::MetricsRegistry metrics;
  dido::WorkloadGenerator live_generator(LiveSpec(def), sizing.keyspace,
                                         args.seed + 1);
  dido::TrafficSource live_source(&live_generator);
  VersionLog live_log(LiveSpec(def), sizing.keyspace, args.seed + 1);
  checker.AddLog(&live_log);
  report.CountOps(tally);
  CheckTally(tally, def, "traced loop", &report);
  LiveRunner live(&store, &live_source, &checker, &metrics);
  const int cycles =
      std::max(1, static_cast<int>(args.seconds * 0.3 / kLiveCycleSeconds));
  for (int c = 0; c < cycles; ++c) live.RunCycle(config, &report);
  live.Finish(def, "traced live phase", &report);

  const CallTimes times(trace);
  const double q = static_cast<double>(loop_queries);
  const auto ns_per_query = [&](Call call) { return times.TotalNs(call) / q; };
  const double sim_q = static_cast<double>(sim_queries);
  report.Add("workload.fill_frame_ns_per_query", ns_per_query(Call::kFillFrame), "ns");
  report.Add("net.pp_ns_per_query", ns_per_query(Call::kPp), "ns");
  report.Add("mem.mm_ns_per_query", ns_per_query(Call::kMm), "ns");
  report.Add("mem.evictions_per_set",
             Ratio(static_cast<double>(sum.evictions), static_cast<double>(sum.sets)),
             "count");
  report.Add("mem.set_retries_per_set",
             Ratio(static_cast<double>(sum.set_retries), static_cast<double>(sum.sets)),
             "count");
  report.Add("index.search_ns_per_query", ns_per_query(Call::kInSearch), "ns");
  report.Add("index.insert_ns_per_query", ns_per_query(Call::kInInsert), "ns");
  report.Add("index.delete_ns_per_query", ns_per_query(Call::kInDelete), "ns");
  report.Add("index.search_probes_per_get",
             Ratio(search_probe_sum, static_cast<double>(sum.gets)), "count");
  report.Add("index.insert_probes_per_set",
             Ratio(insert_probe_sum, static_cast<double>(sum.inserts)), "count");
  report.Add("pipeline.kc_ns_per_query", ns_per_query(Call::kKc), "ns");
  report.Add("pipeline.rd_ns_per_query", ns_per_query(Call::kRd), "ns");
  report.Add("pipeline.wr_ns_per_query", ns_per_query(Call::kWr), "ns");
  report.Add("pipeline.hit_ratio",
             Ratio(static_cast<double>(sum.hits), static_cast<double>(sum.gets)),
             "ratio");
  report.Add("sync.retire_us_per_batch",
             times.TotalNs(Call::kRetire) / 1e3 / static_cast<double>(loop_batches),
             "us");
  const std::vector<double>& observe_us = times.DurationsUs(Call::kObserve);
  report.Add("costmodel.profiler_observe_us_p50", Quantile(observe_us, 0.5), "us");
  report.Add("costmodel.profiler_observe_us_max", Quantile(observe_us, 1.0), "us");
  report.Add("costmodel.search_us",
             Quantile(times.DurationsUs(Call::kSearch), 0.5), "us");
  // Measured rounds only: the warm-up RunBatch spans are left out.
  const std::vector<double>& run_batch_us = times.DurationsUs(Call::kRunBatch);
  const double run_batch_ns = std::accumulate(
      run_batch_us.begin() + std::min<size_t>(kSimWarmupBatches, run_batch_us.size()),
      run_batch_us.end(), 0.0) * 1e3;
  const double run_batch_ns_per_query = run_batch_ns / sim_q;
  report.Add("sim.run_batch_ns_per_query", run_batch_ns_per_query, "ns");
  report.Add("sim.tmax_us", Quantile(tmax_us, 0.5), "us");
  report.Add("sim.cpu_utilization", Mean(cpu_util), "ratio");
  report.Add("sim.gpu_utilization", Mean(gpu_util), "ratio");
  report.Add("sim.stolen_queries_per_batch", Mean(stolen), "count");
  const std::vector<dido::StageSpec> stages =
      config.Stages(dido::DefaultKaveriSpec().cpu.cores);
  for (size_t s = 0; s < kReportedStages; ++s) {
    double execute = 0.0, wait = 0.0;
    if (s < stages.size()) {
      const std::string labels[2] = {std::to_string(s),
                                     std::string(dido::DeviceName(stages[s].device))};
      execute = metrics
                    .GetHistogram(dido::obs::MetricName(
                        "dido_live_stage_execute_us",
                        {{"stage", labels[0]}, {"device", labels[1]}}))
                    ->TakeSnapshot()
                    .Percentile(0.5);
      wait = metrics
                 .GetHistogram(dido::obs::MetricName(
                     "dido_live_stage_queue_wait_us",
                     {{"stage", labels[0]}, {"device", labels[1]}}))
                 ->TakeSnapshot()
                 .Percentile(0.5);
    }
    const std::string stage = "live.stage" + std::to_string(s);
    report.Add(stage + "_execute_us_p50", execute, "us");
    report.Add(stage + "_queue_wait_us_p50", wait, "us");
  }
  report.Add("core.preload_s", preload_s, "s");
  report.Add("host.dram_chase_ns", DramChaseNs(), "ns");

  // No layer is missing: the module spans account for the traced batches'
  // wall time, and per query for the time of the library's own RunBatch
  // (which adds only the timing model's arithmetic to the same calls).
  const double span_coverage = times.TaskTotalNs() / (walls[1] * 1e9);
  const double run_batch_coverage =
      times.TaskTotalNs() / q / run_batch_ns_per_query;
  report.Add("trace.span_coverage", span_coverage, "ratio");
  report.Add("trace.run_batch_coverage", run_batch_coverage, "ratio");
  report.Add("trace.overhead_pct", (walls[1] / walls[0] - 1.0) * 100.0, "%");
  report.Check(std::fabs(span_coverage - 1.0) <= kCoverageTolerance,
               "module spans cover " + std::to_string(span_coverage) +
                   " of the traced batches' wall time");
  report.Check(std::fabs(run_batch_coverage - 1.0) <= kCoverageTolerance,
               "module spans per query are " +
                   std::to_string(run_batch_coverage) +
                   " of PipelineExecutor::RunBatch's time per query");

  if (!args.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path = args.out_dir + "/trace_" + def.name + "_seed" +
                             std::to_string(args.seed) + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    const std::string json = trace.RenderChromeTrace();
    const bool written = f != nullptr &&
                         std::fwrite(json.data(), 1, json.size(), f) == json.size();
    report.Check(f != nullptr && std::fclose(f) == 0 && written,
                 "could not write the span file " + path);
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto process_start = perfbench::Clock::now();
  perfbench::Args args;
  std::string error;
  if (!perfbench::ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "dido_perfbench: %s\n", error.c_str());
    return 2;
  }
  if (args.selftest) {
    const std::string result = perfbench::CheckerSelfTest();
    std::printf("checker self-test: %s\n", result.empty() ? "ok" : result.c_str());
    return result.empty() ? 0 : 1;
  }
  const perfbench::WorkloadDef& def = *perfbench::FindWorkload(args.workload);
  return args.trace ? perfbench::RunTraced(args, def)
                    : perfbench::RunEndToEnd(args, def, process_start);
}
