// Wall-clock TPC-H benchmark of the engine, end to end and by layer.
//
//   wimpi_perf --workload <sf1-serial|sf1-parallel|sf0.1-streams>
//              --seed <n> --seconds <s> --trace <0|1>
//
// One seed makes both the TPC-H database (dbgen seed) and the order in
// which each concurrent stream runs the queries; the engine only ever sees
// the generated database and the query order. Every execution's answer is
// checked (see README.md); any failure counts against `failed`, sets
// "correct": false and makes the exit code nonzero. The last stdout line
// is one JSON object: {"correct", "attempted", "failed", "metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
//
// An untraced run is kSegments fresh processes of this program (--segment
// k), each setting up and measuring its share of --seconds; the parent
// merges their samples. A traced run is one process.
//
// Layers are measured from outside, by timing calls into their public
// functions: tpch::GenerateDatabase, engine::Executor::Run,
// service::QueryService::Submit, strategies::RunStrategy and
// micro::RunMemoryBandwidthAllCores. The traced run adds the operator
// profile (Executor::RunProfiled with pool metrics) and the timeline
// sampler's lane occupancy; end-to-end numbers always come from untraced
// executions.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "engine/executor.h"
#include "micro/kernels.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/timeline/sampler.h"
#include "perf_lib.h"
#include "service/admission.h"
#include "service/query_service.h"
#include "storage/column.h"
#include "strategies/strategies.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace {

using namespace wimpi;

// Processes per untraced run. Each sets up once (setup_s is the median of
// their set-up times) and measures for its share of --seconds; per-query
// latencies are medians over all of them.
constexpr int kSegments = 2;
// A short query reruns back to back in each warm pass until it has run for
// about this long (at most kMaxReruns more times), so its median rests on
// more than one sample per pass without lengthening the pass much.
constexpr double kShortQuerySeconds = 0.1;
constexpr int kMaxReruns = 4;
// Repetitions of each Fig-4 strategy (and of the SF 0.1 reference pass).
constexpr int kReps = 3;
// Per-thread buffer of the all-core memory-bandwidth kernel: 4 x 128 MiB
// exceeds a 300 MiB last-level cache, so the kernel reads DRAM.
constexpr size_t kBandwidthBufferBytes = size_t{128} << 20;
constexpr int64_t kMorselRows = 64 * 1024;
// Doubles of a 4-thread answer against the 1-thread answer: merge order
// changes the last bits of sums, nothing more.
constexpr double kThreadsRelTol = 1e-9;
// Engine against the hand-written strategies: independent summation
// orders over ~6M rows.
constexpr double kOracleRelTol = 1e-6;
constexpr int kFig4Queries[] = {1, 3, 4, 5, 6, 13, 14, 19};

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

std::vector<int> AllQueries() {
  std::vector<int> q;
  for (int i = 1; i <= 22; ++i) q.push_back(i);
  return q;
}

// printf-style message for failure reports.
std::string Msg(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Msg(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string QName(int q) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "q%02d", q);
  return buf;
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  int segment = -1;  // >= 0: run as that segment of an untraced run
};

bool ParseOptions(int argc, char** argv, Options* o) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o->workload = val;
    } else if (key == "--seed") {
      o->seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      o->seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && o->seconds > 0;
    } else if (key == "--trace") {
      have_trace = val == "0" || val == "1";
      o->trace = val == "1";
    } else if (key == "--segment") {
      o->segment = std::atoi(val.c_str());
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         (o->workload == "sf1-serial" || o->workload == "sf1-parallel" ||
          o->workload == "sf0.1-streams");
}

// Executions attempted and failed; a failure is an error, a rejection or a
// wrong answer.
struct Tally {
  std::atomic<int64_t> attempted{0};
  std::atomic<int64_t> failed{0};

  void Record(bool ok, const std::string& what) {
    attempted.fetch_add(1);
    if (!ok) {
      failed.fetch_add(1);
      std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    }
  }
};

// Peak resident memory over a window, exact: the kernel's high-water mark
// (VmHWM) is reset at the start of the window through /proc/self/clear_refs
// and read at its end, so the set-up's own peak never counts.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  if (!clear.flush()) {
    std::fprintf(stderr, "note: cannot reset the peak RSS; peak_rss_mb "
                         "includes the set-up\n");
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  int64_t kb = 0;
  while (status >> key) {
    if (key == "VmHWM:" && status >> kb) return static_cast<double>(kb) * 1024 / 1e6;
  }
  return 0;
}

// Named metrics in print order.
using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void Put(Metrics* m, const std::string& name, double value,
         const std::string& unit) {
  m->push_back({name, {value, unit}});
}

// ---------------------------------------------------------------------------
// Engine passes
// ---------------------------------------------------------------------------

// One execution of one query through a plain Executor.
struct Execution {
  exec::Relation rel;
  double seconds = 0;
  bool ok = false;
  exec::QueryStats stats;
};

Execution RunOnce(const engine::Executor& ex, int q, const engine::Database& db,
                  const obs::ProfileOptions* popts = nullptr,
                  obs::QueryProfile* profile = nullptr) {
  Execution e;
  const auto plan = [&](exec::QueryStats* s) { return tpch::RunQuery(q, db, s); };
  try {
    const double t0 = Now();
    e.rel = popts == nullptr
                ? ex.Run(plan, &e.stats)
                : ex.RunProfiled(plan, *popts, profile, &e.stats, QName(q));
    e.seconds = Now() - t0;
    e.ok = true;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "Q%d threw: %s\n", q, err.what());
  }
  return e;
}

// A pass over the 22 queries. With `reference` empty it records the
// checksums; otherwise every answer must match them bit for bit.
struct Pass {
  std::map<int, double> seconds;          // successful executions only
  std::map<int, std::vector<double>> repeats;  // back-to-back reruns
  std::map<int, exec::Relation> answers;  // kept only when asked
  std::map<int, exec::QueryStats> stats;
  double wall = 0;
  int64_t minflt = 0;
};

Pass RunPass(const engine::Executor& ex, const engine::Database& db,
             std::map<int, uint64_t>* reference, bool keep_answers,
             Tally* tally, const char* what,
             std::map<std::string, perf::ClassTotals>* classes = nullptr,
             double* output_bytes = nullptr,
             const std::map<int, int>* reruns = nullptr) {
  Pass p;
  const bool record = reference->empty();
  const int64_t f0 = MinorFaults();
  const double t0 = Now();
  obs::ProfileOptions popts;
  popts.pool_metrics = true;
  for (const int q : AllQueries()) {
    obs::QueryProfile profile;
    Execution e = RunOnce(ex, q, db, classes != nullptr ? &popts : nullptr,
                          &profile);
    if (classes != nullptr && e.ok) {
      perf::AccumulateClasses(profile.root, classes);
      *output_bytes += perf::OutputBytes(profile.root);
    }
    const uint64_t sum = e.ok ? bench::RelationChecksum(e.rel) : 0;
    if (record && e.ok) (*reference)[q] = sum;
    tally->Record(e.ok && (record || (*reference)[q] == sum),
                  Msg("%s pass Q%d %s", what, q,
                      e.ok ? "answer differs from the first run at the same "
                             "threads and morsel size"
                           : "failed"));
    if (e.ok) p.seconds[q] = e.seconds;
    p.stats[q] = std::move(e.stats);
    if (keep_answers && e.ok) p.answers[q] = std::move(e.rel);
    const int extra = reruns != nullptr && reruns->count(q) ? reruns->at(q) : 0;
    for (int i = 0; i < extra; ++i) {
      const Execution r = RunOnce(ex, q, db);
      tally->Record(r.ok && (*reference)[q] == bench::RelationChecksum(r.rel),
                    Msg("%s rerun Q%d differs or failed", what, q));
      if (r.ok) p.repeats[q].push_back(r.seconds);
    }
  }
  p.wall = Now() - t0;
  p.minflt = MinorFaults() - f0;
  std::fprintf(stderr, "%s pass: %.3f s, %lld minor faults\n", what, p.wall,
               static_cast<long long>(p.minflt));
  return p;
}

// Q1, Q6, Q14 and Q19 against the hand-written strategy executors, an
// implementation that shares no operator code with the engine.
bool MatchesStrategy(int q, const exec::Relation& e,
                     const strategies::StratResult& r) {
  const auto near = [](double a, double b) {
    return std::fabs(a - b) <= kOracleRelTol * std::max(1.0, std::fabs(a));
  };
  if (q == 1) {
    // Three entries per (returnflag, linestatus) group: "rf|ls" holds
    // sum_disc_price, "rf|ls#count" count_order, "rf|ls#charge" sum_charge.
    const std::map<std::string, double> m(r.begin(), r.end());
    if (static_cast<int64_t>(m.size()) != 3 * e.num_rows()) return false;
    const auto matches = [&](const std::string& key, double v) {
      const auto it = m.find(key);
      return it != m.end() && near(it->second, v);
    };
    for (int64_t g = 0; g < e.num_rows(); ++g) {
      const std::string key = std::string(e.column(0).StringAt(g)) + "|" +
                              std::string(e.column(1).StringAt(g));
      if (!matches(key, e.column("sum_disc_price").F64Data()[g]) ||
          !matches(key + "#count",
                   static_cast<double>(e.column("count_order").I64Data()[g])) ||
          !matches(key + "#charge", e.column("sum_charge").F64Data()[g])) {
        return false;
      }
    }
    return true;
  }
  const char* col = q == 14 ? "promo_revenue" : "revenue";
  return r.size() == 1 && e.num_rows() == 1 &&
         near(r[0].second, e.column(col).F64Data()[0]);
}

void CheckOracle(const engine::Database& db,
                 const std::map<int, exec::Relation>& answers, Tally* tally) {
  for (const int q : {1, 6, 14, 19}) {
    const auto it = answers.find(q);
    if (it == answers.end()) continue;  // the query itself already failed
    const strategies::StratResult r = strategies::RunStrategy(
        q, strategies::Strategy::kHybrid, db, nullptr);
    tally->Record(MatchesStrategy(q, it->second, r),
                  Msg("Q%d disagrees with the strategies oracle", q));
  }
}

// Engine 1-thread median over the best strategy's median, geomean over the
// Fig-4 queries. Also checks the strategies against the engine.
double Fig4Gap(const engine::Database& db,
               const std::map<int, double>& engine_1t_seconds,
               const std::map<int, exec::Relation>& answers, Tally* tally) {
  std::vector<double> ratios;
  for (const int q : kFig4Queries) {
    double best = 0;
    for (const strategies::Strategy s : strategies::kAllStrategies) {
      std::vector<double> t;
      for (int i = 0; i < kReps; ++i) {
        const double t0 = Now();
        const strategies::StratResult r =
            strategies::RunStrategy(q, s, db, nullptr);
        t.push_back(Now() - t0);
        if ((q == 1 || q == 6 || q == 14 || q == 19) && answers.count(q)) {
          tally->Record(MatchesStrategy(q, answers.at(q), r),
                        Msg("%s disagrees with the engine on Q%d",
                            strategies::StrategyName(s), q));
        }
      }
      const double med = perf::Median(t);
      best = best == 0 ? med : std::min(best, med);
    }
    const auto it = engine_1t_seconds.find(q);
    if (it != engine_1t_seconds.end() && it->second > 0) {
      ratios.push_back(it->second / best);
    }
  }
  return ratios.empty() ? 0 : perf::GeoMean(ratios);
}

// ---------------------------------------------------------------------------
// Service
// ---------------------------------------------------------------------------

struct ServiceSample {
  int q = 0;
  double latency = 0;
  double queue_wait_ms = 0;
  double exec_ms = 0;
  double cpu_ms = 0;
  int64_t tasks = 0;
  bool ok = false;  // completed (the answer is checked separately)
  bool rejected = false;
  double exec_begin = 0;  // Now() clock
  double exec_end = 0;
};

// `streams` closed-loop sessions, one outstanding query each, each running
// `orders[s]` lap after lap. Sessions stop submitting once `duration` has
// passed (or after one lap when `one_lap`); every answer is checked
// against the Executor checksum at the service's threads and morsel size.
std::vector<ServiceSample> RunStreams(
    service::QueryService* svc, const engine::Database& db,
    const std::vector<std::vector<int>>& orders,
    const std::map<int, uint64_t>& reference,
    const std::map<int, int64_t>& estimate, double duration, bool one_lap,
    Tally* tally, double* wall) {
  std::vector<std::vector<ServiceSample>> per(orders.size());
  const double start = Now();
  std::vector<std::thread> clients;
  for (size_t s = 0; s < orders.size(); ++s) {
    clients.emplace_back([&, s] {
      service::ClientSession session(svc, "stream" + std::to_string(s));
      for (size_t i = 0;; ++i) {
        if (one_lap ? i == orders[s].size() : Now() - start >= duration) break;
        const int q = orders[s][i % orders[s].size()];
        service::QuerySpec spec;
        spec.label = QName(q);
        spec.estimated_bytes = estimate.at(q);
        spec.plan = [&db, q](exec::QueryStats* st) {
          return tpch::RunQuery(q, db, st);
        };
        const double t0 = Now();
        service::QueryTicket ticket = session.Submit(std::move(spec));
        const Status status = ticket.Wait();
        ServiceSample x;
        x.q = q;
        x.exec_end = Now();
        x.latency = x.exec_end - t0;
        x.rejected = status.code() == StatusCode::kResourceExhausted;
        x.ok = status.ok();
        bool ok = x.ok;
        if (ok) {
          x.queue_wait_ms = ticket.queue_wait_us() / 1e3;
          x.exec_ms = ticket.exec_us() / 1e3;
          x.exec_begin = x.exec_end - x.exec_ms / 1e3;
          x.cpu_ms = ticket.resources().cpu_us / 1e3;
          x.tasks = ticket.tasks();
          ok = bench::RelationChecksum(ticket.TakeResult()) == reference.at(q);
        }
        tally->Record(ok, Msg("stream %zu Q%d: %s", s, q,
                              status.ok() ? "answer differs from Executor"
                                          : status.ToString().c_str()));
        per[s].push_back(x);
      }
    });
  }
  for (auto& t : clients) t.join();
  *wall = Now() - start;
  std::vector<ServiceSample> all;
  for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
  return all;
}

void PutServiceLayer(Metrics* m, const std::vector<ServiceSample>& samples) {
  std::vector<double> wait, exec_ms, cpu;
  double tasks = 0, rejected = 0;
  for (const ServiceSample& x : samples) {
    rejected += x.rejected ? 1 : 0;
    if (!x.ok) continue;
    wait.push_back(x.queue_wait_ms);
    exec_ms.push_back(x.exec_ms);
    cpu.push_back(x.cpu_ms);
    tasks += static_cast<double>(x.tasks);
  }
  const double n = std::max<double>(1, static_cast<double>(wait.size()));
  double cpu_sum = 0;
  for (const double c : cpu) cpu_sum += c;
  Put(m, "service.queue_wait_p50_ms", wait.empty() ? 0 : perf::Percentile(wait, 50), "ms");
  Put(m, "service.queue_wait_p95_ms", wait.empty() ? 0 : perf::Percentile(wait, 95), "ms");
  Put(m, "service.exec_p50_ms", exec_ms.empty() ? 0 : perf::Percentile(exec_ms, 50), "ms");
  Put(m, "service.cpu_ms_per_query", cpu_sum / n, "ms");
  Put(m, "service.tasks_per_query", tasks / n, "count");
  Put(m, "service.rejected", rejected, "count");
}

// ---------------------------------------------------------------------------
// Traced-run helpers
// ---------------------------------------------------------------------------

// Pool metrics and lane occupancy over one traced window.
class TraceWindow {
 public:
  TraceWindow() {
    obs::MetricsRegistry::Global().Reset();
    obs::timeline::SamplerOptions so;
    so.perf = false;  // occupancy only; the PMU is optional
    sampler_on_ = obs::timeline::TimelineSampler::Global().Start(so);
    obs::SetPoolMetricsEnabled(true);
    start_us_ = obs::NowMicros();
  }

  // Puts the parallel-layer metrics and returns the sampled timeline.
  std::vector<obs::timeline::TimelineSample> Finish(Metrics* m) {
    const int64_t end_us = obs::NowMicros();
    std::vector<obs::timeline::TimelineSample> samples;
    if (sampler_on_) {
      auto& sampler = obs::timeline::TimelineSampler::Global();
      samples = sampler.Slice(start_us_, end_us).samples;
      sampler.Stop();
    }
    obs::SetPoolMetricsEnabled(false);
    auto& reg = obs::MetricsRegistry::Global();
    double busy_us = 0;
    for (const auto& [name, v] : reg.SnapshotAll().counters) {
      const std::string suffix = ".busy_us";
      if (name.rfind("pool.worker", 0) == 0 && name.size() > suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
        busy_us += static_cast<double>(v);
      }
    }
    const double workers = std::max(1u, std::thread::hardware_concurrency());
    Put(m, "parallel.tasks",
        static_cast<double>(reg.counter("pool.tasks").Value()), "count");
    Put(m, "parallel.task_run_p50_us",
        reg.histogram("pool.task.run_us").Percentile(0.5), "us");
    Put(m, "parallel.queue_wait_p95_us",
        reg.histogram("pool.task.queue_wait_us").Percentile(0.95), "us");
    Put(m, "parallel.busy_frac",
        busy_us / (workers * static_cast<double>(end_us - start_us_)),
        "fraction");
    return samples;
  }

 private:
  bool sampler_on_ = false;
  int64_t start_us_ = 0;
};

// Share of the sampled ticks during which at most one thread ran query
// work. On the single-query path (lane 0) that is a tick with no pipeline
// in flight, so only the calling thread works, or any tick at 1 thread.
double SerialFraction(const std::vector<obs::timeline::TimelineSample>& samples,
                      int threads) {
  if (samples.empty()) return -1;
  int64_t serial = 0;
  for (const auto& s : samples) {
    if (threads == 1 || s.num_active == 0) ++serial;
  }
  return static_cast<double>(serial) / static_cast<double>(samples.size());
}

// Share of [start, end) during which at most one of the service's queries
// was executing (admitted and not finished); with one thread per query
// that is at most one busy lane.
double SerialFraction(const std::vector<ServiceSample>& samples, double start,
                      double end) {
  std::vector<std::pair<double, int>> events;
  for (const ServiceSample& x : samples) {
    if (!x.ok) continue;
    events.push_back({std::max(start, x.exec_begin), +1});
    events.push_back({std::min(end, x.exec_end), -1});
  }
  std::sort(events.begin(), events.end());
  double serial = 0, t = start;
  int running = 0;
  for (const auto& [when, delta] : events) {
    if (running <= 1) serial += std::max(0.0, when - t);
    t = std::max(t, when);
    running += delta;
  }
  if (running <= 1) serial += std::max(0.0, end - t);
  return serial / (end - start);
}

void PutExecLayer(Metrics* m, const std::map<std::string, perf::ClassTotals>& classes,
                  double output_bytes) {
  for (const std::string& c : perf::OpClasses()) {
    const auto it = classes.find(c);
    const perf::ClassTotals t = it == classes.end() ? perf::ClassTotals{} : it->second;
    Put(m, "exec." + c + ".self_ms", t.self_seconds * 1e3, "ms");
    Put(m, "exec." + c + ".rows_in", static_cast<double>(t.rows_in), "count");
  }
  Put(m, "exec.output_bytes", output_bytes, "B");
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Run {
  Metrics e2e;     // the gated end-to-end metrics (the JSON result)
  Metrics info;    // end-to-end, printed but not gated (see README.md)
  Metrics layer;   // per-layer metrics of the traced run
};

// power_s and geomean_ms over each query's median latency; p50/p95 over
// `latencies` (one per execution, or one per query where a workload has
// too few executions for a tail) into `info`; throughput over the measured
// window.
void PutLatencyMetrics(Metrics* m, Metrics* info,
                       const std::map<int, std::vector<double>>& per_query,
                       const std::vector<double>& latencies, double completed,
                       double wall) {
  std::vector<double> medians;
  double power = 0;
  for (const auto& [q, v] : per_query) {
    medians.push_back(perf::Median(v));
    power += medians.back();
  }
  const perf::Tail tail = perf::HighestSupportedPercentile(latencies);
  std::printf("latency samples %lld; highest percentile with >= 10 samples "
              "beyond it: p%g = %.3f ms\n",
              static_cast<long long>(tail.samples), tail.pct, tail.value * 1e3);
  Put(m, "power_s", power, "s");
  Put(m, "geomean_ms", perf::GeoMean(medians) * 1e3, "ms");
  Put(m, "throughput_qps", completed / wall, "1/s");
  Put(info, "latency_p50_ms", perf::Percentile(latencies, 50) * 1e3, "ms");
  Put(info, "latency_p95_ms", perf::Percentile(latencies, 95) * 1e3, "ms");
}

// What one process measures: the untraced window of one segment.
struct Segment {
  double setup_s = 0;
  double peak_rss_mb = 0;
  double wall = 0;  // the measured window
  int64_t completed = 0;  // queries completed in `wall`
  std::map<int, std::vector<double>> latency;  // seconds, per query
  std::map<int, uint64_t> checksum;  // answers at the workload's threads
};

// sf1-serial / sf1-parallel: 22 queries in order on a bare Executor. The
// cold pass warms the allocator; then warm passes run for the segment's
// share of --seconds, at least one.
void RunSf1(const Options& o, const engine::Database& db, int threads,
            double micro_gbps, Tally* tally, Segment* seg, Metrics* layer) {
  engine::Executor ex;
  ex.set_num_threads(threads);
  ex.set_morsel_rows(kMorselRows);
  std::vector<double> minflt;
  ResetPeakRss();
  const Pass cold = RunPass(ex, db, &seg->checksum, /*keep_answers=*/true,
                            tally, "cold");
  std::map<int, int> reruns;
  for (const auto& [q, s] : cold.seconds) {
    reruns[q] = std::clamp(static_cast<int>(kShortQuerySeconds / s) - 1, 0,
                           kMaxReruns);
  }
  const double start = Now();
  do {
    const Pass p = RunPass(ex, db, &seg->checksum, false, tally, "warm",
                           nullptr, nullptr, &reruns);
    // Throughput counts each query once per pass, so reruns do not inflate
    // it; the reruns only add samples to the medians.
    for (const auto& [q, s] : p.seconds) {
      seg->latency[q].push_back(s);
      seg->wall += s;
      ++seg->completed;
    }
    for (const auto& [q, v] : p.repeats) {
      seg->latency[q].insert(seg->latency[q].end(), v.begin(), v.end());
    }
    minflt.push_back(static_cast<double>(p.minflt));
  } while (Now() - start < o.seconds / kSegments);
  seg->peak_rss_mb = PeakRssMb();
  CheckOracle(db, cold.answers, tally);

  // 1-thread answers: the reference for the 4-thread ones (checked in the
  // first segment), and the engine side of the Fig-4 gap.
  std::map<int, double> engine_1t;
  if (threads == 1) {
    for (const auto& [q, v] : seg->latency) engine_1t[q] = perf::Median(v);
  } else if (o.segment == 0 || o.trace) {
    engine::Executor serial;
    serial.set_morsel_rows(kMorselRows);
    std::map<int, uint64_t> serial_ref;
    const Pass s = RunPass(serial, db, &serial_ref, true, tally, "1-thread");
    for (const auto& [q, rel] : s.answers) {
      engine_1t[q] = s.seconds.at(q);
      const auto it = cold.answers.find(q);
      if (it == cold.answers.end()) continue;
      const std::string diff =
          perf::CompareRelations(it->second, rel, kThreadsRelTol);
      tally->Record(diff.empty(), Msg("Q%d at %d threads vs 1 thread: %s", q,
                                      threads, diff.c_str()));
    }
  }
  if (!o.trace) return;

  // Traced pass: operator profile, pool metrics, lane occupancy.
  Metrics& m = *layer;
  double power = 0;
  for (const auto& [q, v] : seg->latency) {
    Put(&m, "engine." + QName(q) + "_ms", perf::Median(v) * 1e3, "ms");
    power += perf::Median(v);
  }
  Put(&m, "engine.cold_pass_s", cold.wall, "s");
  std::map<std::string, perf::ClassTotals> classes;
  double output_bytes = 0;
  TraceWindow window;
  const Pass traced = RunPass(ex, db, &seg->checksum, false, tally, "traced",
                              &classes, &output_bytes);
  Put(&m, "parallel.serial_frac", SerialFraction(window.Finish(&m), threads),
      "fraction");
  PutExecLayer(&m, classes, output_bytes);
  Put(&m, "storage.minflt_per_pass", perf::Median(minflt), "count");
  const double q06_s =
      seg->latency.count(6) ? perf::Median(seg->latency.at(6)) : 0;
  const double q06_gbps =
      q06_s > 0 ? cold.stats.at(6).TotalSeqBytes() / q06_s / 1e9 : 0;
  Put(&m, "exec.q06_gbps", q06_gbps, "GB/s");
  Put(&m, "exec.q06_bw_frac", q06_gbps / micro_gbps, "fraction");
  Put(&m, "bench.trace_overhead_frac", traced.wall / power - 1, "fraction");

  // Service row: the same 22 queries through QueryService, one stream.
  service::ServiceOptions so;
  so.query_threads = threads;
  so.morsel_rows = kMorselRows;
  so.max_active = 1;
  // Admission estimates at SF 1 exceed the default 1 GiB budget; this row
  // measures the service's overhead, not its admission control.
  so.budget_bytes = int64_t{16} << 30;
  service::QueryService svc(so);
  std::map<int, int64_t> estimate;
  for (const auto& [q, st] : cold.stats) {
    estimate[q] = service::EstimateWorkingSetBytes(st);
  }
  double wall = 0;
  PutServiceLayer(&m, RunStreams(&svc, db, {AllQueries()}, seg->checksum,
                                 estimate, 0, /*one_lap=*/true, tally, &wall));
  Put(&m, "engine.fig4_gap", Fig4Gap(db, engine_1t, cold.answers, tally),
      "ratio");
}

// sf0.1-streams: closed-loop sessions through one QueryService. Each
// segment warms up for half its window, then measures for its share of
// --seconds.
void RunStreamsWorkload(const Options& o, const engine::Database& db,
                        double micro_gbps, Tally* tally, Segment* seg,
                        Metrics* layer) {
  constexpr int kStreams = 4;
  constexpr int kQueryThreads = 1;
  const double window = o.seconds / kSegments;
  engine::Executor ex;
  ex.set_num_threads(kQueryThreads);
  ex.set_morsel_rows(kMorselRows);
  std::vector<Pass> ref_passes;
  for (int i = 0; i < (o.trace ? kReps : 1); ++i) {
    ref_passes.push_back(
        RunPass(ex, db, &seg->checksum, i == 0, tally, "reference"));
  }
  std::map<int, int64_t> estimate;
  for (const auto& [q, st] : ref_passes[0].stats) {
    estimate[q] = service::EstimateWorkingSetBytes(st);
  }
  CheckOracle(db, ref_passes[0].answers, tally);

  std::vector<std::vector<int>> orders;
  for (int s = 0; s < kStreams; ++s) {
    orders.push_back(perf::StreamOrder(AllQueries(), o.seed, s));
  }
  service::ServiceOptions so;
  so.query_threads = kQueryThreads;
  so.morsel_rows = kMorselRows;
  so.max_active = kStreams;
  service::QueryService svc(so);

  // Warm-up: allocator arenas, first touch of the intermediates, the pool.
  double wall = 0;
  RunStreams(&svc, db, orders, seg->checksum, estimate, window / 2, false,
             tally, &wall);
  ResetPeakRss();
  const std::vector<ServiceSample> samples = RunStreams(
      &svc, db, orders, seg->checksum, estimate, window, false, tally, &wall);
  seg->peak_rss_mb = PeakRssMb();
  seg->wall = wall;
  int64_t done = 0;
  for (const ServiceSample& x : samples) {
    if (!x.ok) continue;
    seg->latency[x.q].push_back(x.latency);
    ++done;
  }
  seg->completed = done;
  if (!o.trace) return;

  Metrics& m = *layer;
  std::map<int, double> engine_1t;
  std::vector<double> minflt;
  for (const Pass& p : ref_passes) minflt.push_back(static_cast<double>(p.minflt));
  for (const int q : AllQueries()) {
    std::vector<double> v;
    for (const Pass& p : ref_passes) {
      if (p.seconds.count(q)) v.push_back(p.seconds.at(q));
    }
    engine_1t[q] = v.empty() ? 0 : perf::Median(v);
    Put(&m, "engine." + QName(q) + "_ms", engine_1t[q] * 1e3, "ms");
  }
  Put(&m, "engine.cold_pass_s", ref_passes[0].wall, "s");

  // Traced window: the same streams with pool metrics and the sampler on.
  const double qps = static_cast<double>(done) / wall;
  TraceWindow trace_window;
  const double traced_start = Now();
  const std::vector<ServiceSample> traced = RunStreams(
      &svc, db, orders, seg->checksum, estimate, window, false, tally, &wall);
  trace_window.Finish(&m);
  Put(&m, "parallel.serial_frac",
      SerialFraction(traced, traced_start, traced_start + wall), "fraction");
  PutServiceLayer(&m, traced);
  int64_t traced_done = 0;
  for (const ServiceSample& x : traced) traced_done += x.ok ? 1 : 0;
  Put(&m, "bench.trace_overhead_frac",
      qps / (static_cast<double>(traced_done) / wall) - 1, "fraction");

  std::map<std::string, perf::ClassTotals> classes;
  double output_bytes = 0;
  RunPass(ex, db, &seg->checksum, false, tally, "profiled", &classes,
          &output_bytes);
  PutExecLayer(&m, classes, output_bytes);
  Put(&m, "storage.minflt_per_pass", perf::Median(minflt), "count");
  const double q06_gbps =
      engine_1t.at(6) > 0
          ? ref_passes[0].stats.at(6).TotalSeqBytes() / engine_1t.at(6) / 1e9
          : 0;
  Put(&m, "exec.q06_gbps", q06_gbps, "GB/s");
  Put(&m, "exec.q06_bw_frac", q06_gbps / micro_gbps, "fraction");
  Put(&m, "engine.fig4_gap",
      Fig4Gap(db, engine_1t, ref_passes[0].answers, tally), "ratio");
}

// ---------------------------------------------------------------------------
// Segments: an untraced run is kSegments processes
// ---------------------------------------------------------------------------

std::string SegmentJson(const Segment& seg, const Tally& tally) {
  JsonWriter w;
  w.BeginObject()
      .Key("setup_s").Double(seg.setup_s)
      .Key("peak_rss_mb").Double(seg.peak_rss_mb)
      .Key("wall").Double(seg.wall)
      .Key("completed").Int(seg.completed)
      .Key("attempted").Int(tally.attempted.load())
      .Key("failed").Int(tally.failed.load())
      .Key("latency").BeginObject();
  for (const auto& [q, v] : seg.latency) {
    w.Key(std::to_string(q)).BeginArray();
    for (const double x : v) w.Double(x);
    w.EndArray();
  }
  w.EndObject().Key("checksum").BeginObject();
  for (const auto& [q, sum] : seg.checksum) {
    // Hex: a double cannot hold 64 bits exactly.
    w.Key(std::to_string(q)).String(Msg("%016llx",
                                        static_cast<unsigned long long>(sum)));
  }
  w.EndObject().EndObject();
  return w.str();
}

bool ParseSegment(const std::string& text, Segment* seg, Tally* tally) {
  JsonValue v;
  std::string error;
  if (!JsonValue::Parse(text, &v, &error) || !v.is_object()) return false;
  seg->setup_s = v.GetDouble("setup_s", 0);
  seg->peak_rss_mb = v.GetDouble("peak_rss_mb", 0);
  seg->wall = v.GetDouble("wall", 0);
  seg->completed = static_cast<int64_t>(v.GetDouble("completed", 0));
  tally->attempted += static_cast<int64_t>(v.GetDouble("attempted", 0));
  tally->failed += static_cast<int64_t>(v.GetDouble("failed", 0));
  const JsonValue* latency = v.Find("latency");
  const JsonValue* checksum = v.Find("checksum");
  if (latency == nullptr || checksum == nullptr) return false;
  for (const auto& [q, list] : latency->AsObject()) {
    for (const JsonValue& x : list.AsArray()) {
      seg->latency[std::stoi(q)].push_back(x.AsDouble());
    }
  }
  for (const auto& [q, hex] : checksum->AsObject()) {
    seg->checksum[std::stoi(q)] = std::strtoull(hex.AsString().c_str(), nullptr, 16);
  }
  return true;
}

// Runs this program as segment `k` and parses its last output line.
bool RunSegmentProcess(char** argv, int argc, int k, Segment* seg,
                       Tally* tally) {
  std::vector<std::string> args(argv, argv + argc);
  args.push_back("--segment");
  args.push_back(std::to_string(k));
  std::vector<char*> cargs;
  for (std::string& a : args) cargs.push_back(a.data());
  cargs.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    // The segment dies with the benchmark, even when that is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(cargs[0], cargs.data());
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[1 << 16];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof(buf))) > 0) out.append(buf, n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  while (!out.empty() && out.back() == '\n') out.pop_back();
  const size_t nl = out.rfind('\n');
  const std::string last = nl == std::string::npos ? out : out.substr(nl + 1);
  if (!ParseSegment(last, seg, tally)) {
    std::fprintf(stderr, "segment %d printed no result (status %d)\n", k,
                 status);
    return false;
  }
  return true;
}

// The end-to-end metrics over all segments.
void PutEndToEnd(bool streams, const std::vector<Segment>& segs, Tally* tally,
                 Run* run) {
  std::map<int, std::vector<double>> per_query;
  std::vector<double> setup, rss;
  double wall = 0, completed = 0;
  for (const Segment& seg : segs) {
    for (const auto& [q, v] : seg.latency) {
      per_query[q].insert(per_query[q].end(), v.begin(), v.end());
    }
    setup.push_back(seg.setup_s);
    rss.push_back(seg.peak_rss_mb);
    wall += seg.wall;
    completed += static_cast<double>(seg.completed);
  }
  // Every process must give the same answers at the same threads and
  // morsel size.
  for (size_t k = 1; k < segs.size(); ++k) {
    for (const auto& [q, sum] : segs[k].checksum) {
      const auto it = segs[0].checksum.find(q);
      tally->Record(it != segs[0].checksum.end() && it->second == sum,
                    Msg("Q%d differs between processes", q));
    }
  }
  std::vector<double> all, medians;
  for (const auto& [q, v] : per_query) {
    all.insert(all.end(), v.begin(), v.end());
    medians.push_back(perf::Median(v));
  }
  Put(&run->e2e, "setup_s", perf::Median(setup), "s");
  // The sf1 workloads have too few executions for a tail, so there the
  // latency percentiles are taken over the 22 per-query medians.
  PutLatencyMetrics(&run->e2e, &run->info, per_query, streams ? all : medians,
                    completed, wall);
  Put(&run->e2e, "peak_rss_mb", perf::Median(rss), "MB");
}

void PrintJson(bool correct, const Tally& tally, const Metrics& metrics) {
  JsonWriter w;
  w.BeginObject()
      .Key("correct").Bool(correct)
      .Key("attempted").Int(tally.attempted.load())
      .Key("failed").Int(tally.failed.load())
      .Key("metrics").BeginObject();
  for (const auto& [name, vu] : metrics) {
    w.Key(name).BeginObject().Key("value").Double(vu.first).Key("unit").String(
        vu.second).EndObject();
  }
  w.EndObject().EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!ParseOptions(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: wimpi_perf --workload <sf1-serial|sf1-parallel|"
                 "sf0.1-streams> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const bool streams = o.workload == "sf0.1-streams";
  Run run;
  Tally tally;

  if (!o.trace && o.segment < 0) {
    // Runs differ by process (allocator state, memory placement) more than
    // passes within a process do, so each segment is a fresh process.
    std::vector<Segment> segs(kSegments);
    for (int k = 0; k < kSegments; ++k) {
      if (!RunSegmentProcess(argv, argc, k, &segs[k], &tally)) return 1;
    }
    PutEndToEnd(streams, segs, &tally, &run);
  } else {
    const double sf = streams ? 0.1 : 1.0;
    const int threads =
        o.workload == "sf1-parallel"
            ? static_cast<int>(std::max(1u, std::thread::hardware_concurrency()))
            : 1;
    tpch::GenOptions gen;
    gen.scale_factor = sf;
    gen.seed = Rng(o.seed).Next();
    double micro_gbps = 0;
    if (o.trace) {
      // Before the database exists, so the kernel's buffers do not stack on
      // top of it.
      micro_gbps = micro::RunMemoryBandwidthAllCores(kBandwidthBufferBytes, 4);
      std::shared_ptr<storage::Table> orders, lineitem;
      const double t0 = Now();
      tpch::GenerateOrdersAndLineitem(gen, &orders, &lineitem);
      Put(&run.layer, "tpch.gen_lineitem_s", Now() - t0, "s");
    }
    Segment seg;
    const double t0 = Now();
    const engine::Database db = tpch::GenerateDatabase(gen);
    seg.setup_s = Now() - t0;
    std::fprintf(stderr, "%s: SF %g generated (seed %llu), %d thread(s)\n",
                 o.workload.c_str(), sf,
                 static_cast<unsigned long long>(o.seed), threads);
    if (streams) {
      RunStreamsWorkload(o, db, micro_gbps, &tally, &seg, &run.layer);
    } else {
      RunSf1(o, db, threads, micro_gbps, &tally, &seg, &run.layer);
    }
    if (!o.trace) {
      std::printf("%s\n", SegmentJson(seg, tally).c_str());
      return tally.failed.load() == 0 ? 0 : 1;
    }
    Put(&run.layer, "storage.db_mb",
        static_cast<double>(db.MemoryBytes()) / 1e6, "MB");
    Put(&run.layer, "micro.seq_read_gbps", micro_gbps, "GB/s");
  }

  const Metrics& out = o.trace ? run.layer : run.e2e;
  const auto print = [](const Metrics& m) {
    for (const auto& [name, vu] : m) {
      std::printf("%-28s %16.4f %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
    }
  };
  print(out);
  if (!o.trace) print(run.info);
  const int64_t attempted = tally.attempted.load();
  const int64_t failed = tally.failed.load();
  std::printf("error_rate %.6f (%lld failed of %lld executions)\n",
              attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
              static_cast<long long>(failed), static_cast<long long>(attempted));
  const bool correct = failed == 0 && attempted > 0;
  PrintJson(correct, tally, out);
  return correct ? 0 : 1;
}
