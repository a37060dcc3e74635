// perfbench: the repository benchmark. It drives the user's front door —
// ServingEngine sessions over one Catalog, submitting with default
// QueryOptions so the system picks its own execution path — on one of
// three workloads, checks every result against a serial oracle, and
// prints one JSON result line (see README.md in this directory for why
// each workload and metric exists).
//
//   perfbench --workload dss_scan|dss_io|mixed_io|point_open --seed N
//             --seconds S --trace 0|1 [--git-sha SHA]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the same workload untraced, traced and untraced again (for the
// tracing overhead), reads the program's own counters and lifecycle spans
// from the traced run, and times calls into each layer's public functions
// on the workload's queries with the workload's buffer pool.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "harness.h"
#include "obs/obs.h"
#include "serve/serving_engine.h"
#include "sql/engine.h"
#include "storage/catalog.h"
#include "storage/disk_array.h"
#include "workload/macro.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using xprs::BufferPool;
using xprs::Catalog;
using xprs::CostModel;
using xprs::DiskArray;
using xprs::DiskStats;
using xprs::DiskTimings;
using xprs::ExecContext;
using xprs::MachineConfig;
using xprs::MacroQuery;
using xprs::MasterOptions;
using xprs::MemoryTraceRecorder;
using xprs::MetricsRegistry;
using xprs::Observability;
using xprs::OperatorStats;
using xprs::PlanKind;
using xprs::QueryOptions;
using xprs::QueryProfile;
using xprs::ServingEngine;
using xprs::SqlEngine;
using xprs::SqlResult;
using xprs::Status;
using xprs::StatusOr;
using xprs::SubmittedQuery;
using xprs::TraceEvent;
using xprs::TraceValue;
using xprs::Tuple;

// --- fixed configuration -----------------------------------------------------

/// Macro table scale: 233 data pages over lineitem/orders/part/customer.
constexpr double kMacroScale = 4.0;
/// Disk service times are the paper's 97/60/35 io/s per disk scaled by
/// this, i.e. about 0.5 / 0.8 / 1.4 ms per page.
constexpr double kTimeScale = 0.05;
constexpr int kNumDisks = 4;
/// Set-ups per --trace 0 run; setup_s is their median.
constexpr int kSetupReps = 3;
/// Repetitions per query of each layer probe; the probe reports medians.
constexpr int kProbeReps = 3;

/// point_open: offered rate of the measured phase, in queries per second:
/// 13% of the median max_qps_under_slo (1500/s) of a 4-core host. A
/// shared host's CPU steal cuts that capacity below 600/s, so a higher
/// rate measures the neighbours rather than the engine (see README.md).
constexpr double kOpenRate = 200.0;
/// point_open: p99 latency limit of the rate ladder, in ms.
constexpr double kSloP99Ms = 20.0;
/// point_open: ascending offered rates of the ladder, in queries per second.
constexpr double kLadder[] = {250, 400, 600, 900, 1200, 1500, 1800, 2100};
/// Requests per ladder rung: enough for a p99 with kMinBeyond samples
/// beyond it at any rate.
constexpr uint64_t kRungRequests = 1100;

struct Workload {
  const char* name;
  const char* mix;  ///< MacroMix name
  bool open_loop;
  /// Closed-loop client sessions; 0 = one per core.
  int sessions;
  /// Buffer-pool frames per data page.
  double pool_per_data_page;
};

constexpr Workload kWorkloads[] = {
    {"dss_scan", "scan_heavy", false, 1, 2.0},
    {"dss_io", "scan_heavy", false, 0, 0.25},
    {"mixed_io", "all", false, 0, 0.25},
    {"point_open", "index_friendly", true, 0, 2.0},
};

const char* const kTables[] = {"lineitem", "orders", "part", "customer"};

// --- host facts ----------------------------------------------------------

int Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char*>(regs), sizeof(regs));
    brand.erase(std::find(brand.begin(), brand.end(), '\0'), brand.end());
    const size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// The machine every workload hands to the engine: this host's cores and
/// the throttled array's real bandwidths, so the scheduler's B/N test
/// classifies fragments against the disks they actually read.
MachineConfig HostMachine() {
  MachineConfig machine;
  machine.num_cpus = Nproc();
  machine.num_disks = kNumDisks;
  machine.seq_bw_per_disk = 97.0 / kTimeScale;
  machine.almost_seq_bw_per_disk = 60.0 / kTimeScale;
  machine.rand_bw_per_disk = 35.0 / kTimeScale;
  return machine;
}

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// CPU time of the calling thread.
double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- correctness ---------------------------------------------------------

Digest DigestOf(const SqlResult& result) {
  Digest digest;
  for (const Tuple& row : result.rows) digest.Add(row.ToString());
  return digest;
}

/// Per-query digests of the serial tuple engine over a private copy of
/// the data on an untimed array; built before set-up and not timed.
using Oracle = std::vector<Digest>;

StatusOr<Oracle> BuildOracle(const std::vector<MacroQuery>& mix,
                             uint64_t seed) {
  DiskArray disks(kNumDisks, xprs::DiskMode::kInstant);
  Catalog catalog(&disks);
  xprs::MacroWorkloadOptions options;
  options.scale = kMacroScale;
  options.seed = seed;
  XPRS_RETURN_IF_ERROR(xprs::BuildMacroTables(&catalog, options));
  CostModel model;
  SqlEngine engine(&catalog, HostMachine(), &model);
  Oracle oracle;
  for (const MacroQuery& q : mix) {
    XPRS_ASSIGN_OR_RETURN(SqlResult result, engine.Execute(q.sql));
    oracle.push_back(DigestOf(result));
  }
  return oracle;
}

/// Outcome counters shared by every phase; `wrong` gates the exit code.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors, rejections and wrong results
  uint64_t wrong = 0;
};

/// Checks one result against the oracle and tallies it. Returns true for a
/// correct result.
bool Check(const MacroQuery& q, const Digest& expected,
           const StatusOr<SqlResult>& result, Tally* tally) {
  ++tally->attempted;
  if (!result.ok()) {
    ++tally->failed;
    if (tally->failed <= 3)
      std::fprintf(stderr, "perfbench: %s failed: %s\n", q.name.c_str(),
                   result.status().ToString().c_str());
    return false;
  }
  if (!(DigestOf(*result) == expected)) {
    ++tally->failed;
    ++tally->wrong;
    std::fprintf(stderr, "perfbench: %s returned a wrong result\n",
                 q.name.c_str());
    return false;
  }
  return true;
}

void AddTally(Tally* into, const Tally& from) {
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wrong += from.wrong;
}

// --- the system under test -------------------------------------------------

struct System {
  std::unique_ptr<DiskArray> disks;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<ServingEngine> engine;  ///< untraced, warmed
  std::map<std::string, uint64_t> table_pages;
  uint64_t data_pages = 0;
  size_t pool_frames = 0;
};

Status LoadTables(System* sys, uint64_t seed) {
  DiskTimings timings;
  timings.time_scale = kTimeScale;
  sys->disks = std::make_unique<DiskArray>(
      kNumDisks, xprs::DiskMode::kThrottled, timings);
  sys->catalog = std::make_unique<Catalog>(sys->disks.get());
  xprs::MacroWorkloadOptions options;
  options.scale = kMacroScale;
  options.seed = seed;
  XPRS_RETURN_IF_ERROR(xprs::BuildMacroTables(sys->catalog.get(), options));
  sys->data_pages = 0;
  for (const char* name : kTables) {
    XPRS_ASSIGN_OR_RETURN(xprs::Table * table, sys->catalog->GetTable(name));
    sys->table_pages[name] = table->file().num_pages();
    sys->data_pages += table->file().num_pages();
  }
  return Status::OK();
}

/// Starts a serving engine over the loaded tables with the workload's
/// buffer pool; `obs` attaches a trace recorder and metrics, or nothing.
std::unique_ptr<ServingEngine> StartEngine(System* sys,
                                           const Workload& workload,
                                           const CostModel* model,
                                           Observability obs) {
  sys->pool_frames = std::max<size_t>(
      16, static_cast<size_t>(workload.pool_per_data_page *
                              static_cast<double>(sys->data_pages)));
  ServingEngine::Options options;
  options.serve.machine = HostMachine();
  options.serve.max_concurrent = Nproc();
  options.serve.max_queue_depth = 4096;
  options.buffer_pool_frames = sys->pool_frames;
  options.serve.obs = obs;
  return std::make_unique<ServingEngine>(sys->catalog.get(), HostMachine(),
                                         model, std::move(options));
}

/// One pass over the mix from one session, twice for the small pool so
/// it reaches its steady mix of pages; results are checked.
void WarmUp(ServingEngine* engine, const Workload& workload,
            const std::vector<MacroQuery>& mix, const Oracle& oracle,
            Tally* tally) {
  auto session = engine->OpenSession();
  const int passes = workload.pool_per_data_page < 1.0 ? 2 : 1;
  for (int pass = 0; pass < passes; ++pass)
    for (size_t i = 0; i < mix.size(); ++i)
      Check(mix[i], oracle[i], session->Execute(mix[i].sql), tally);
  engine->CloseSession(session);
}

// --- load generation ---------------------------------------------------------

/// Seeded query order: the mix in a fresh shuffle every round, so every
/// query runs equally often and the order still depends on the seed.
class QueryOrder {
 public:
  QueryOrder(size_t n, uint64_t seed) : rng_(seed), order_(n), pos_(n) {
    std::iota(order_.begin(), order_.end(), size_t{0});
  }
  size_t Next() {
    if (pos_ == order_.size()) {
      for (size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[rng_.NextUint64(i)]);
      pos_ = 0;
    }
    return order_[pos_++];
  }

 private:
  xprs::Rng rng_;
  std::vector<size_t> order_;
  size_t pos_;
};

struct Measured {
  std::vector<double> latency_ms;  ///< correct queries only
  std::vector<size_t> latency_query;  ///< mix index of each latency sample
  std::vector<double> lag_ms;      ///< open loop: send lateness
  Tally tally;
  uint64_t completed = 0;  ///< correct results within the window
  double wall_s = 0.0;     ///< the window
  /// Process CPU time over the run, less the harness's own result checks.
  double cpu_s = 0.0;
  uint64_t cpu_queries = 0;  ///< correct results that CPU time paid for
  int64_t outstanding_mid = 0;
  int64_t outstanding_end = 0;
};

/// Closed loop: `sessions` clients, each sending its next query when the
/// previous one returned; they draw from one seeded order, so any run of
/// consecutive dispatches holds the mix in equal parts. The window is
/// `seconds`, extended (up to 4x) until the p95 and every query's median
/// have kMinBeyond samples beyond them; queries still running when it
/// closes are checked but not counted.
Measured RunClosed(ServingEngine* engine, const std::vector<MacroQuery>& mix,
                   const Oracle& oracle, int sessions, double seconds,
                   uint64_t seed) {
  struct Done {
    Clock::time_point at;
    double ms;
    size_t query;
  };
  Measured out;
  std::mutex mutex;  // guards order, done, per_query, harness_cpu_s, tally
  QueryOrder order(mix.size(), seed * 1000003ULL);
  std::vector<Done> done;
  std::vector<size_t> per_query(mix.size(), 0);
  double harness_cpu_s = 0.0;
  const uint64_t min_samples = MinSamplesFor(0.95);
  const uint64_t min_per_query = MinSamplesFor(0.5);
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  auto stop = [&] {
    const double elapsed = SecondsSince(t0);
    std::lock_guard<std::mutex> lock(mutex);
    return elapsed >= 4 * seconds ||
           (elapsed >= seconds && done.size() >= min_samples &&
            *std::min_element(per_query.begin(), per_query.end()) >=
                min_per_query);
  };
  std::vector<std::thread> clients;
  for (int c = 0; c < sessions; ++c) {
    clients.emplace_back([&] {
      auto session = engine->OpenSession();
      while (!stop()) {
        size_t qi;
        {
          std::lock_guard<std::mutex> lock(mutex);
          qi = order.Next();
        }
        const auto q0 = Clock::now();
        StatusOr<SqlResult> result = session->Execute(mix[qi].sql);
        const auto q1 = Clock::now();
        Tally tally;
        const double check0 = ThreadCpuSeconds();
        const bool ok = Check(mix[qi], oracle[qi], result, &tally);
        const double check_s = ThreadCpuSeconds() - check0;
        std::lock_guard<std::mutex> lock(mutex);
        harness_cpu_s += check_s;
        AddTally(&out.tally, tally);
        if (ok) {
          done.push_back({q1, MsBetween(q0, q1), qi});
          ++per_query[qi];
        }
      }
      engine->CloseSession(session);
    });
  }
  for (std::thread& t : clients) t.join();
  out.cpu_s = CpuSeconds() - cpu0 - harness_cpu_s;
  out.cpu_queries = done.size();

  std::sort(done.begin(), done.end(),
            [](const Done& a, const Done& b) { return a.at < b.at; });
  // The window ends at `seconds`, or later at the first completion that
  // met both sample floors (the last one if none did).
  Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<size_t> seen(mix.size(), 0);
  size_t short_queries = mix.size();  // queries still under their floor
  for (size_t i = 0; i < done.size(); ++i) {
    if (++seen[done[i].query] == min_per_query) --short_queries;
    if ((i + 1 >= min_samples && short_queries == 0) ||
        i + 1 == done.size()) {
      end = std::max(end, done[i].at);
      break;
    }
  }
  for (const Done& d : done)
    if (d.at <= end) {
      out.latency_ms.push_back(d.ms);
      out.latency_query.push_back(d.query);
    }
  out.completed = out.latency_ms.size();
  out.wall_s = std::chrono::duration<double>(end - t0).count();
  return out;
}

/// Open loop: one generator sends `requests` queries at `rate` per second
/// regardless of completions. Latency runs from each request's due time
/// to its completion hook; results are checked off the generator thread.
Measured RunOpen(ServingEngine* engine, const std::vector<MacroQuery>& mix,
                 const Oracle& oracle, double rate, uint64_t requests,
                 uint64_t seed) {
  struct Pending {
    SubmittedQuery submitted;
    size_t query;
  };
  Measured out;
  std::mutex mutex;  // guards out.latency_ms, pending, sending_done
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool sending_done = false;
  std::atomic<int64_t> accepted{0};
  std::atomic<int64_t> resolved{0};
  Tally checker_tally;
  double checker_cpu_s = 0.0;

  std::thread checker([&] {
    for (;;) {
      Pending next;
      {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return !pending.empty() || sending_done; });
        if (pending.empty()) {
          checker_cpu_s = ThreadCpuSeconds();
          return;
        }
        next = std::move(pending.front());
        pending.pop_front();
      }
      Check(mix[next.query], oracle[next.query], next.submitted.ticket.Wait(),
            &checker_tally);
    }
  });

  auto session = engine->OpenSession();
  QueryOrder order(mix.size(), seed * 1000003ULL + 7);
  uint64_t rejected = 0;
  const double cpu0 = CpuSeconds();
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (uint64_t i = 0; i < requests; ++i) {
    const auto due = DueTime(start, rate, i);
    std::this_thread::sleep_until(due);
    out.lag_ms.push_back(MsBetween(due, Clock::now()));
    const size_t qi = order.Next();
    QueryOptions options;
    options.on_complete = [&, due, qi](const Status& status) {
      const auto done = Clock::now();
      if (status.ok()) {
        std::lock_guard<std::mutex> lock(mutex);
        out.latency_ms.push_back(MsBetween(due, done));
        out.latency_query.push_back(qi);
      }
      resolved.fetch_add(1);
    };
    StatusOr<SubmittedQuery> submitted = session->Submit(mix[qi].sql, options);
    if (!submitted.ok()) {
      ++rejected;
    } else {
      accepted.fetch_add(1);
      std::lock_guard<std::mutex> lock(mutex);
      pending.push_back({std::move(*submitted), qi});
      cv.notify_one();
    }
    if (i + 1 == requests / 2) out.outstanding_mid = accepted - resolved;
  }
  out.outstanding_end = accepted - resolved;
  Status drained = engine->Drain();
  if (!drained.ok())
    std::fprintf(stderr, "perfbench: drain: %s\n", drained.ToString().c_str());
  out.wall_s = SecondsSince(start);
  {
    std::lock_guard<std::mutex> lock(mutex);
    sending_done = true;
  }
  cv.notify_one();
  checker.join();
  // The checker only waits and checks; its CPU time is the harness's.
  out.cpu_s = CpuSeconds() - cpu0 - checker_cpu_s;
  engine->CloseSession(session);

  out.tally = checker_tally;
  out.tally.attempted += rejected;
  out.tally.failed += rejected;
  // Latencies were recorded for every successful completion; the checker
  // may still have found some of those wrong, which fails the run anyway.
  out.completed = out.tally.attempted - out.tally.failed;
  out.cpu_queries = out.completed;
  return out;
}

/// Closed or open loop, as the workload prescribes, for `seconds`.
Measured RunWorkload(const Workload& workload, ServingEngine* engine,
                     const std::vector<MacroQuery>& mix, const Oracle& oracle,
                     double seconds, uint64_t seed) {
  if (workload.open_loop) {
    const auto requests = static_cast<uint64_t>(kOpenRate * seconds);
    return RunOpen(engine, mix, oracle, kOpenRate, requests, seed);
  }
  const int sessions = workload.sessions > 0 ? workload.sessions : Nproc();
  return RunClosed(engine, mix, oracle, sessions, seconds, seed);
}

// --- per-layer measurements ------------------------------------------------

/// Counters the program exports, read before and after the traced window.
struct Counters {
  double starts = 0, pair_starts = 0, adjustments = 0;
  double parallelism_sum = 0, parallelism_count = 0;
  double fragments = 0, retries = 0, rejected = 0, degraded = 0;
  uint64_t pool_hits = 0, pool_misses = 0;

  static Counters Read(MetricsRegistry* m, BufferPool* pool) {
    Counters c;
    auto counter = [m](const char* name) {
      return static_cast<double>(m->counter(name)->value());
    };
    c.starts = counter("sched.starts");
    c.pair_starts = counter("sched.pair_starts");
    c.adjustments = counter("sched.adjustments");
    xprs::HistogramSnapshot par =
        m->histogram("sched.parallelism",
                     {1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0})
            ->Snapshot();
    c.parallelism_sum = par.sum;
    c.parallelism_count = static_cast<double>(par.count);
    c.fragments = counter("parallel.fragments_started");
    c.retries = counter("resilience.retry.fragment.total") +
                counter("resilience.degrade.parallelism.total") +
                counter("resilience.degrade.serial.total") +
                counter("resilience.serve.query_retry");
    c.rejected = counter("serve.rejected.queue_full") +
                 counter("serve.rejected.shed") +
                 counter("serve.rejected.deadline");
    c.degraded = counter("serve.degraded");
    const xprs::BufferPoolStats stats = pool->stats();
    c.pool_hits = stats.hits;
    c.pool_misses = stats.misses;
    return c;
  }
};

const TraceValue* FindArg(const TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args)
    if (k == key) return &v;
  return nullptr;
}

/// Mean lifecycle phase times per query and the worst phase coverage of a
/// root span, from the serve spans in `events`.
void SpanBreakdown(const std::vector<TraceEvent>& events,
                   std::map<std::string, double>* values) {
  struct Root {
    double total = 0, phases[4] = {0, 0, 0, 0};
  };
  static const char* const kPhases[4] = {"admission", "queue_wait", "execute",
                                         "drain"};
  std::map<int64_t, Root> roots;
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name != "query") continue;
    if (const TraceValue* id = FindArg(e, "span_id"))
      roots[static_cast<int64_t>(id->num)].total = e.duration;
  }
  for (const TraceEvent& e : events) {
    if (e.category != "serve" || e.phase != 'X' || e.name == "query") continue;
    const TraceValue* parent = FindArg(e, "parent");
    if (parent == nullptr) continue;
    auto it = roots.find(static_cast<int64_t>(parent->num));
    if (it == roots.end()) continue;
    for (int p = 0; p < 4; ++p)
      if (e.name == kPhases[p]) it->second.phases[p] += e.duration;
  }
  double sums[4] = {0, 0, 0, 0};
  double coverage_min = roots.empty() ? 0.0 : 1.0;
  for (const auto& [id, root] : roots) {
    double children = 0;
    for (int p = 0; p < 4; ++p) {
      sums[p] += root.phases[p];
      children += root.phases[p];
    }
    if (root.total > 0)
      coverage_min = std::min(coverage_min, children / root.total);
  }
  const double n = std::max<double>(1.0, static_cast<double>(roots.size()));
  (*values)["serve.admission_ms"] = 1e3 * sums[0] / n;
  (*values)["serve.queue_wait_ms"] = 1e3 * sums[1] / n;
  (*values)["serve.execute_ms"] = 1e3 * sums[2] / n;
  (*values)["serve.drain_ms"] = 1e3 * sums[3] / n;
  (*values)["serve.span_coverage_min"] = coverage_min;
}

/// Median wall ms of kProbeReps calls of `call`.
double MedianMs(const std::function<void()>& call) {
  std::vector<double> ms;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    const auto t0 = Clock::now();
    call();
    ms.push_back(MsBetween(t0, Clock::now()));
  }
  return Median(ms);
}

/// Children of each operator of a profile, in plan order (left first).
std::vector<std::vector<const OperatorStats*>> ChildrenOf(
    const QueryProfile& profile) {
  std::vector<std::vector<const OperatorStats*>> children(
      profile.operators().size());
  for (const auto& op : profile.operators())
    if (op->parent >= 0) children[op->parent].push_back(op.get());
  return children;
}

/// Times each layer's public functions on the workload's queries with the
/// workload's buffer pool, and reads estimate quality and parallel waste
/// from EXPLAIN ANALYZE profiles.
void ProbeLayers(ServingEngine* engine, const std::vector<MacroQuery>& mix,
                 const Oracle& oracle, Tally* tally,
                 std::map<std::string, double>* values) {
  SqlEngine& sql = engine->sql_engine();
  ExecContext ctx;
  ctx.pool = engine->pool();
  ExecContext batch_ctx = ctx;
  batch_ctx.vectorized = true;
  MasterOptions master;
  master.ctx = ctx;
  master.max_slots = Nproc();

  std::vector<double> plan_ms, estimate_ms, tuple_ms, batch_ms, parallel_ms,
      qerrors;
  double build_side_wrong = 0, serial_build = 0, parallel_build = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    const std::string& text = mix[i].sql;
    plan_ms.push_back(MedianMs([&] { (void)sql.Explain(text); }));
    estimate_ms.push_back(MedianMs([&] { (void)sql.EstimateProfile(text); }));
    tuple_ms.push_back(MedianMs(
        [&] { Check(mix[i], oracle[i], sql.Execute(text, ctx), tally); }));
    batch_ms.push_back(MedianMs([&] {
      Check(mix[i], oracle[i], sql.Execute(text, batch_ctx), tally);
    }));
    parallel_ms.push_back(MedianMs([&] {
      Check(mix[i], oracle[i], sql.ExecuteParallel(text, master), tally);
    }));

    StatusOr<SqlResult> serial = sql.ExplainAnalyze(text, ctx);
    StatusOr<SqlResult> parallel = sql.ExplainAnalyzeParallel(text, master);
    if (!Check(mix[i], oracle[i], serial, tally) ||
        !Check(mix[i], oracle[i], parallel, tally))
      continue;
    const QueryProfile& sp = *serial->profile;
    const QueryProfile& pp = *parallel->profile;
    const auto children = ChildrenOf(sp);
    for (const auto& op : sp.operators()) {
      if (op->has_estimate)
        qerrors.push_back(QError(op->est_rows,
                                 static_cast<double>(op->tuples_out.load())));
      if (op->kind != PlanKind::kHashJoin || children[op->id].size() != 2)
        continue;
      const OperatorStats* probe = children[op->id][0];
      const OperatorStats* build = children[op->id][1];
      if (build->tuples_out.load() > probe->tuples_out.load())
        ++build_side_wrong;
      // Both runs plan the same statement, so operator ids line up; the
      // serial build is the useful work, the parallel one what was done.
      const size_t id = static_cast<size_t>(op->id);
      if (id < pp.operators().size() &&
          pp.operators()[id]->kind == PlanKind::kHashJoin) {
        serial_build += static_cast<double>(op->build_rows.load());
        parallel_build +=
            static_cast<double>(pp.operators()[id]->build_rows.load());
      }
    }
  }
  const double plan = Mean(plan_ms);
  (*values)["sql.plan_ms"] = plan;
  (*values)["serve.estimate_ms"] = Mean(estimate_ms);
  (*values)["exec.tuple_ms"] = Mean(tuple_ms) - plan;
  (*values)["exec.batch_ms"] = Mean(batch_ms) - plan;
  (*values)["parallel.exec_ms"] = Mean(parallel_ms) - plan;
  (*values)["parallel.speedup_vs_batch"] =
      Share((*values)["exec.batch_ms"], (*values)["parallel.exec_ms"]);
  (*values)["parallel.build_rows_ratio"] = Share(parallel_build, serial_build);
  (*values)["opt.qerror_median"] = Median(qerrors);
  (*values)["opt.qerror_max"] =
      qerrors.empty() ? 0.0 : *std::max_element(qerrors.begin(), qerrors.end());
  (*values)["opt.build_side_wrong"] = build_side_wrong;
}

// --- reporting -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string git_sha = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

/// One JSON line of host and configuration facts, printed by every run.
void PrintConfig(const Args& args, const Workload& workload,
                 const System& sys) {
  const MachineConfig m = HostMachine();
  std::string pages;
  for (const auto& [name, n] : sys.table_pages)
    pages += (pages.empty() ? "" : ", ") + JsonString(name) + ": " +
             std::to_string(n);
  std::printf(
      "config: {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %d, \"cpu_model\": %s, \"compiler\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"disk_time_scale\": %g, "
      "\"machine\": {\"num_cpus\": %d, \"num_disks\": %d, "
      "\"seq_bw_per_disk\": %g, \"almost_seq_bw_per_disk\": %g, "
      "\"rand_bw_per_disk\": %g}, \"macro_scale\": %g, \"mix\": %s, "
      "\"open_loop\": %s, \"sessions\": %d, \"offered_qps\": %g, "
      "\"pool_frames\": %zu, \"data_pages\": %llu, \"table_pages\": {%s}}\n",
      JsonString(workload.name).c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds, args.trace,
      Nproc(), JsonString(CpuModel()).c_str(), JsonString(Compiler()).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(args.git_sha).c_str(), kTimeScale, m.num_cpus, m.num_disks,
      m.seq_bw_per_disk, m.almost_seq_bw_per_disk, m.rand_bw_per_disk,
      kMacroScale, JsonString(workload.mix).c_str(),
      workload.open_loop ? "true" : "false",
      workload.open_loop ? 1 : (workload.sessions > 0 ? workload.sessions
                                                      : Nproc()),
      workload.open_loop ? kOpenRate : 0.0, sys.pool_frames,
      static_cast<unsigned long long>(sys.data_pages), pages.c_str());
}

/// Unit of a report entry: the result line's unit for its metrics, else
/// the one the name ends in.
const char* UnitOf(const std::string& name) {
  for (const MetricSpec& spec : MetricSpecs())
    if (name == spec.name) return spec.unit;
  auto ends_with = [&name](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
               0;
  };
  if (ends_with("_ms") || name.rfind("p50_ms.", 0) == 0) return "ms";
  if (ends_with("_qps")) return "1/s";
  if (ends_with("_mb")) return "MB";
  if (ends_with("_pct")) return "%";
  if (ends_with("_rate")) return "ratio";
  return "count";
}

void PrintReport(const std::map<std::string, double>& report) {
  std::string body;
  for (const auto& [name, value] : report) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    body += (body.empty() ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            buf + ", \"unit\": " + JsonString(UnitOf(name)) + "}";
  }
  std::printf("report: {%s}\n", body.c_str());
}

/// Prints the result line; returns the exit code. A run with any wrong
/// result prints none and fails.
int Finish(const Tally& all, const Tally& measured, MetricKind kind,
           const std::map<std::string, double>& values) {
  if (all.wrong != 0) {
    std::fprintf(stderr, "perfbench: %llu wrong results\n",
                 static_cast<unsigned long long>(all.wrong));
    return 1;
  }
  std::string missing;
  const std::string line =
      ResultLine(measured.attempted, measured.failed, kind, values, &missing);
  if (line.empty()) {
    std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                 missing.c_str());
    return 3;
  }
  std::printf("%s\n", line.c_str());
  return 0;
}

/// Latency quantile that must have kMinBeyond samples beyond it.
bool Supported(const char* what, const Quantile& q) {
  if (q.supported()) return true;
  std::fprintf(stderr,
               "perfbench: %s has %zu samples, %zu beyond it; need %zu\n",
               what, q.samples, q.beyond, kMinBeyond);
  return false;
}

int Run(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload "
                 "dss_scan|dss_io|mixed_io|point_open "
                 "--seed N --seconds S --trace 0|1 [--git-sha SHA]\n");
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) workload = &w;
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  const std::vector<MacroQuery> mix = xprs::MacroMix(workload->mix).value();
  StatusOr<Oracle> oracle = BuildOracle(mix, args.seed);
  if (!oracle.ok()) {
    std::fprintf(stderr, "perfbench: oracle: %s\n",
                 oracle.status().ToString().c_str());
    return 1;
  }

  CostModel model;
  Tally all;
  std::vector<double> setup_s;
  std::unique_ptr<System> sys;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    sys.reset();
    const auto t0 = Clock::now();
    auto fresh = std::make_unique<System>();
    Status loaded = LoadTables(fresh.get(), args.seed);
    if (!loaded.ok()) {
      std::fprintf(stderr, "perfbench: load: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
    fresh->engine = StartEngine(fresh.get(), *workload, &model, {});
    WarmUp(fresh->engine.get(), *workload, mix, *oracle, &all);
    setup_s.push_back(SecondsSince(t0));
    sys = std::move(fresh);
  }
  PrintConfig(args, *workload, *sys);

  std::map<std::string, double> values;
  std::map<std::string, double> report;
  const int nproc = Nproc();

  if (args.trace == 0) {
    Measured m = RunWorkload(*workload, sys->engine.get(), mix, *oracle,
                             args.seconds, args.seed);
    AddTally(&all, m.tally);
    if (all.wrong != 0) return Finish(all, m.tally, MetricKind::kEndToEnd, {});
    std::vector<std::vector<double>> per_query(mix.size());
    for (size_t i = 0; i < m.latency_ms.size(); ++i)
      per_query[m.latency_query[i]].push_back(m.latency_ms[i]);
    size_t median_beyond = 0;
    const double p50 = MeanOfMedians(per_query, &median_beyond);
    const Quantile p95 = QuantileOf(m.latency_ms, 0.95);
    const Quantile p99 = QuantileOf(m.latency_ms, 0.99);
    const bool every_query = std::none_of(
        per_query.begin(), per_query.end(),
        [](const std::vector<double>& q) { return q.empty(); });
    if (!Supported("latency_p95_ms", p95)) return 3;
    if (!every_query || median_beyond < kMinBeyond) {
      std::fprintf(stderr,
                   "perfbench: a query median has %zu samples beyond it; "
                   "need %zu for every query of the mix\n",
                   every_query ? median_beyond : size_t{0}, kMinBeyond);
      return 3;
    }
    values["setup_s"] = Median(setup_s);
    values["throughput_qps"] = static_cast<double>(m.completed) / m.wall_s;
    values["latency_p50_ms"] = p50;
    values["latency_p95_ms"] = p95.value;
    values["cpu_ms_per_query"] =
        1e3 * m.cpu_s /
        std::max<double>(1.0, static_cast<double>(m.cpu_queries));
    values["success_rate"] =
        1.0 - Share(static_cast<double>(m.tally.failed),
                    static_cast<double>(m.tally.attempted));
    report = values;
    report["error_rate"] = 1.0 - values["success_rate"];
    report["latency_samples"] = static_cast<double>(p95.samples);
    report["latency_p50_min_beyond"] = static_cast<double>(median_beyond);
    report["latency_p95_beyond"] = static_cast<double>(p95.beyond);
    report["pooled_p50_ms"] = QuantileOf(m.latency_ms, 0.5).value;
    for (size_t q = 0; q < mix.size(); ++q)
      report["p50_ms." + mix[q].name] = Median(per_query[q]);
    if (workload->open_loop) {
      if (!Supported("latency_p99_ms", p99)) return 3;
      report["latency_p99_ms"] = p99.value;
      report["latency_p99_beyond"] = static_cast<double>(p99.beyond);
      report["gen_lag_p99_ms"] = QuantileOf(m.lag_ms, 0.99).value;
      report["backlog_mid"] = static_cast<double>(m.outstanding_mid);
      report["backlog_end"] = static_cast<double>(m.outstanding_end);
      // The ladder: ascending offered rates until one misses the SLO.
      std::vector<Rung> ladder;
      for (double rate : kLadder) {
        Measured r = RunOpen(sys->engine.get(), mix, *oracle, rate,
                             kRungRequests, args.seed + ladder.size() + 1);
        AddTally(&all, Tally{0, 0, r.tally.wrong});
        Rung rung;
        rung.rate = rate;
        rung.p99_ms = QuantileOf(r.latency_ms, 0.99);
        rung.failed = r.tally.failed;
        rung.backlog_grew =
            BacklogGrew(r.outstanding_mid, r.outstanding_end,
                        std::max<int64_t>(nproc, kRungRequests / 50));
        ladder.push_back(rung);
        std::printf("rung: {\"offered_qps\": %g, \"p99_ms\": %.4f, "
                    "\"samples\": %zu, \"failed\": %llu, \"backlog_mid\": "
                    "%lld, \"backlog_end\": %lld, \"meets_slo\": %s}\n",
                    rate, rung.p99_ms.value, rung.p99_ms.samples,
                    static_cast<unsigned long long>(rung.failed),
                    static_cast<long long>(r.outstanding_mid),
                    static_cast<long long>(r.outstanding_end),
                    RungMeetsSlo(rung, kSloP99Ms) ? "true" : "false");
        if (!RungMeetsSlo(rung, kSloP99Ms)) break;
      }
      report["slo_p99_ms"] = kSloP99Ms;
      report["max_qps_under_slo"] = MaxRateUnderSlo(ladder, kSloP99Ms);
    }
    report["peak_rss_mb"] = PeakRssMb();
    PrintReport(report);
    return Finish(all, m.tally, MetricKind::kEndToEnd, values);
  }

  // --trace 1: the workload untraced, traced and untraced again with the
  // same seed, the traced run on a second engine started and warmed like
  // the first, so the tracing overhead is not drift over time or a
  // different query order. Counters and spans come from the traced run.
  const double quarter = args.seconds / 4;
  MetricsRegistry metrics;
  MemoryTraceRecorder recorder(1u << 22);
  std::unique_ptr<ServingEngine> engine =
      StartEngine(sys.get(), *workload, &model, {&recorder, &metrics});
  WarmUp(engine.get(), *workload, mix, *oracle, &all);
  Measured plain = RunWorkload(*workload, sys->engine.get(), mix, *oracle,
                               quarter, args.seed);
  AddTally(&all, plain.tally);
  BufferPool* pool = engine->pool();
  const Counters before = Counters::Read(&metrics, pool);
  const size_t first_event = recorder.snapshot().size();
  sys->disks->ResetStats();
  Measured traced = RunWorkload(*workload, engine.get(), mix, *oracle,
                                2 * quarter, args.seed);
  AddTally(&all, traced.tally);
  const DiskStats disk = sys->disks->total_stats();
  const Counters after = Counters::Read(&metrics, pool);
  std::vector<TraceEvent> events = recorder.snapshot();
  events.erase(events.begin(),
               events.begin() + std::min(first_event, events.size()));
  Measured plain_again = RunWorkload(*workload, sys->engine.get(), mix,
                                     *oracle, quarter, args.seed);
  AddTally(&all, plain_again.tally);
  std::vector<double> plain_ms = plain.latency_ms;
  plain_ms.insert(plain_ms.end(), plain_again.latency_ms.begin(),
                  plain_again.latency_ms.end());

  const double queries = std::max<double>(1.0, traced.completed);
  SpanBreakdown(events, &values);
  values["serve.peak_running"] = engine->scheduler().peak_running();
  values["serve.rejected"] = after.rejected - before.rejected;
  values["serve.degraded"] = after.degraded - before.degraded;
  values["sched.pair_start_share"] = Share(
      after.pair_starts - before.pair_starts, after.starts - before.starts);
  values["sched.adjustments_per_query"] =
      (after.adjustments - before.adjustments) / queries;
  values["sched.slaves_per_core"] =
      Share(after.parallelism_sum - before.parallelism_sum,
            after.parallelism_count - before.parallelism_count) /
      nproc;
  values["parallel.fragments_per_query"] =
      (after.fragments - before.fragments) / queries;
  const double hits = static_cast<double>(after.pool_hits - before.pool_hits);
  const double misses =
      static_cast<double>(after.pool_misses - before.pool_misses);
  values["storage.pool_hit_ratio"] = Share(hits, hits + misses);
  values["storage.disk_reads_per_query"] =
      static_cast<double>(disk.reads) / queries;
  values["storage.rand_read_share"] = Share(
      static_cast<double>(disk.rand_reads), static_cast<double>(disk.reads));
  const double disk_seconds = kNumDisks * traced.wall_s;
  values["storage.disk_utilization"] = Share(disk.busy_seconds, disk_seconds);
  values["storage.interference_share"] =
      Share(disk.interference_seconds, disk_seconds);
  values["resilience.retries"] = after.retries - before.retries;
  values["obs.overhead_pct"] =
      100.0 * (Share(Mean(traced.latency_ms), Mean(plain_ms)) - 1.0);
  // Report only: how far the two untraced runs differ, the noise floor of
  // the overhead.
  values["obs.untraced_drift_pct"] =
      100.0 *
      (Share(Mean(plain_again.latency_ms), Mean(plain.latency_ms)) - 1.0);
  values["harness.gen_lag_p99_ms"] =
      workload->open_loop ? QuantileOf(traced.lag_ms, 0.99).value : 0.0;
  values["harness.samples"] = static_cast<double>(traced.latency_ms.size());

  ProbeLayers(engine.get(), mix, *oracle, &all, &values);
  PrintReport(values);
  return Finish(all, traced.tally, MetricKind::kPerLayer, values);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Run(argc, argv); }
