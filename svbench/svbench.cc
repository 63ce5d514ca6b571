// svbench: one-command end-to-end and per-layer benchmark of the default
// skip vector -- sv::core::SkipVector<u64, u64> built from
// Config::for_elements(n), i.e. hazard-pointer reclamation, malloc'd nodes,
// no hash index and static chunk layouts. README.md in this directory has
// the workload and metric catalogue.
//
// Load is a closed loop of kThreads workers: each issues its next call only
// after the previous one returned, as in-process callers of a map do. Per
// workload svbench sets up, warms up untimed, then measures for --seconds
// in 1 s windows. The library is measured only from outside: timed calls
// into its public functions and stats_registry() deltas.
//
// The workers switch together every kSliceNs between the workload and a
// calibration kernel that never calls the library (host_speed.h). Each
// window's throughput and latencies are scaled by how fast the kernel ran
// in that window, which cancels most of the drift in the speed of a shared
// host; the ref_* metrics are these reference-speed values.
//
// With --trace=PATH each workload is set up again and measured a second
// time with every public call timed and 1 request in 16 recorded as spans
// (trace.h); end-to-end metrics always come from the untraced pass. Last,
// the set-up is repeated, at least --setups times in all and until the
// set-ups have taken --setup-seconds; setup_s is their median.
//
// Exit codes: 0 ok; 1 a correctness check failed (the report is still
// written); 2 usage error, or a host or build that cannot give a valid run.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/json_report.h"
#include "benchutil/options.h"
#include "common/rng.h"
#include "core/skip_vector.h"
#include "dbx/ycsb.h"
#include "host_info.h"
#include "host_speed.h"
#include "oracles.h"
#include "trace.h"
#include "txn/txn.h"

#ifndef SVBENCH_BUILD_TYPE
#define SVBENCH_BUILD_TYPE "unknown"
#endif

namespace svbench {
namespace {

using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;
using sv::benchutil::JsonValue;
using Clock = std::chrono::steady_clock;

// nproc - 1 on the 4-core host the benchmark was defined on, leaving one CPU
// for the sampling thread and the system.
constexpr unsigned kThreads = 3;
constexpr std::uint64_t kPointSampleMask = 7;  // time every 8th point call
constexpr std::uint64_t kSpanSampleMask = 15;  // spans for 1 request in 16
constexpr unsigned kFootprintSamplesPerWindow = 10;
// Workload and calibration slices alternate at this length: far shorter
// than the seconds over which the host's speed drifts, far longer than a
// request (a ycsb-t transaction takes up to a few milliseconds).
constexpr double kSliceNs = 25e6;

// Public calls timed one by one in the traced pass.
enum class Call : std::uint8_t {
  kLookup,
  kInsert,
  kRemove,
  kRange,
  kGet,
  kCommit,
  kBackoff,
  kCount,
  kNone = kCount,  // a span with no per-call histogram
};
constexpr std::size_t kCalls = static_cast<std::size_t>(Call::kCount);

enum class Phase : int { kWarmup, kMeasure, kStop };

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  sv::Xoshiro256 r(seed * 0x9E3779B97F4A7C15ULL + stream);
  return r.next();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Mean of the middle half of v. Unlike the median it moves smoothly when
// the values fall on both sides of a gap: the per-window p50 of ycsb-t
// lands either side of a 25% gap between the commit times of consecutive
// retries, and a median over windows jumped across it from run to run.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Runs fn(t) for t in [0, kThreads) on kThreads threads; rethrows the
// first exception any of them raised once all have been joined.
template <class Fn>
void run_threads(Fn&& fn) {
  std::vector<std::exception_ptr> errors(kThreads);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      try {
        fn(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

// Time spent and work done in one 1 s window, in each kind of slice.
struct SliceTotals {
  std::uint64_t work_ticks = 0;
  std::uint64_t requests = 0;
  std::uint64_t calib_ticks = 0;
  std::uint64_t searches = 0;

  void merge(const SliceTotals& o) noexcept {
    work_ticks += o.work_ticks;
    requests += o.requests;
    calib_ticks += o.calib_ticks;
    searches += o.searches;
  }
};

// Per-thread state of one pass, touched only by the owning thread until it
// is joined.
struct alignas(sv::kCacheLineSize) Worker {
  explicit Worker(unsigned thread_id, std::uint64_t seed)
      : id(thread_id), rng(seed) {}

  unsigned id;
  sv::Xoshiro256 rng;
  bool measuring = false;
  bool traced = false;
  std::size_t window = 0;  // the 1 s window of the measured phase
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t inserted = 0;    // inserts that reported success
  std::uint64_t removed = 0;     // removes that reported success
  std::uint64_t increments = 0;  // ycsb-t writes in committed transactions
  std::uint64_t range_keys = 0;  // keys delivered to timed scans (traced)
  std::vector<SliceTotals> slices;     // one per window
  std::vector<TickHistogram> latency;  // sampled requests, one per window
  std::array<TickHistogram, kCalls> calls;  // traced pass only
  SpanBuffer spans;     // the first recorded requests, for the trace file
  LayerTotals layers;   // every recorded request
  int parent_span = -1;  // span new call spans nest under; -1: not recording
  std::exception_ptr error;

  std::uint64_t request_id() const noexcept {
    return (std::uint64_t{id} << 40) | ops;
  }

  // Runs one request. `sample` selects it for the latency percentiles;
  // in the traced pass 1 request in 16 is also recorded as spans and
  // folded into `layers`.
  template <class Body>
  void request(bool sample, Body&& body) {
    const bool timed = measuring && sample;
    const bool record = traced && measuring && (ops & kSpanSampleMask) == 0;
    const std::size_t mark = spans.size();
    std::uint64_t t0 = 0;
    int span = -1;
    if (timed || record) t0 = sv::tsc_now();
    if (record) parent_span = span = spans.open(Span::kRequest, -1,
                                                request_id(), t0);
    body();
    if (timed || record) {
      const std::uint64_t t1 = sv::tsc_now();
      if (timed) latency[window].record(t1 - t0);
      if (record) {
        spans.close(span, t1);
        parent_span = -1;
        layers.add(spans.spans(), mark);
        if (!spans.keep()) spans.truncate(mark);
      }
    }
    ++ops;
  }

  template <class F>
  auto call(Call c, Span s, F&& f);
};

// Times one call into the library in the traced pass: a per-kind
// histogram sample and, inside a recorded request, a span that the calls
// made while it is open nest under.
class CallTimer {
 public:
  CallTimer(Worker& w, Call c, Span s)
      : w_(w.traced && w.measuring ? &w : nullptr), call_(c) {
    if (w_ == nullptr) return;
    prev_parent_ = w.parent_span;
    t0_ = sv::tsc_now();
    if (prev_parent_ >= 0) {
      span_ = w.spans.open(s, prev_parent_, w.request_id(), t0_);
      w.parent_span = span_;
    }
  }
  ~CallTimer() {
    if (w_ == nullptr) return;
    const std::uint64_t t1 = sv::tsc_now();
    if (call_ != Call::kNone) {
      w_->calls[static_cast<std::size_t>(call_)].record(t1 - t0_);
    }
    w_->spans.close(span_, t1);
    w_->parent_span = prev_parent_;
  }
  CallTimer(const CallTimer&) = delete;
  CallTimer& operator=(const CallTimer&) = delete;

 private:
  Worker* w_;
  Call call_;
  int span_ = -1;
  int prev_parent_ = -1;
  std::uint64_t t0_ = 0;
};

template <class F>
auto Worker::call(Call c, Span s, F&& f) {
  CallTimer timer(*this, c, s);
  return f();
}

using Workers = std::vector<std::unique_ptr<Worker>>;

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20;
  double warmup = 2;
  // Set-ups per workload: at least `setups`, and more until they have taken
  // `setup_seconds` in all, so that a set-up of a few milliseconds is timed
  // over many repetitions (at most kMaxSetups). Only the first is measured.
  unsigned setups = 3;
  double setup_seconds = 1;
};

constexpr unsigned kMaxSetups = 1000;

// What one pass (warm-up + measured phase) observed.
struct Pass {
  Workers workers;
  // Per 1 s window: requests/s the workers complete while all of them run
  // the workload, and the host speed (calibration searches/s per thread
  // over kReferenceRate) in the same window; 0 where none completed.
  std::vector<double> window_rates;
  std::vector<double> window_speeds;
  std::vector<double> ref_rates;  // window_rates / window_speeds, where > 0
  double throughput = 0;          // interquartile mean of ref_rates
  double raw_throughput = 0;      // interquartile mean of window_rates
  double host_speed = 0;          // median of window_speeds
  // Node bytes (including nodes retired but not yet reclaimed) per live
  // key, sampled kFootprintSamplesPerWindow times per window: a small map's
  // footprint swings by a few percent from one second to the next.
  std::vector<double> footprint;
  double ticks_per_ns = 1;
  std::uint64_t measured_ops = 0;
  double seconds = 0;
  sv::stats::Snapshot counters;  // delta over the measured phase
  double cpu_frac = 0;
  double invol_switches_per_s = 0;
};

double cpu_seconds(const rusage& r) {
  return static_cast<double>(r.ru_utime.tv_sec + r.ru_stime.tv_sec) +
         static_cast<double>(r.ru_utime.tv_usec + r.ru_stime.tv_usec) * 1e-6;
}

// Runs wl.op on kThreads closed-loop workers, alternating with the
// calibration kernel slice by slice: untimed warm-up, then the measured
// phase in windows of about one second.
template <class W>
Pass run_pass(const W& wl, typename W::Fixture& fx, const RunOptions& o,
              bool traced) {
  Pass p;
  const auto windows = static_cast<unsigned>(
      std::max(1.0, std::floor(o.seconds)));
  for (unsigned t = 0; t < kThreads; ++t) {
    p.workers.push_back(
        std::make_unique<Worker>(t, stream_seed(o.seed, 100 + t)));
    p.workers.back()->traced = traced;
    p.workers.back()->slices.resize(windows);
    p.workers.back()->latency.resize(windows);
  }
  // Slices need only a rough tick rate; the measured phase measures it.
  const ClockMark c0 = ClockMark::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  const auto slice_ticks = static_cast<std::uint64_t>(
      std::max(1.0, ticks_per_ns(c0, ClockMark::now()) * kSliceNs));
  const std::uint64_t origin = sv::tsc_now();

  std::atomic<Phase> phase{Phase::kWarmup};
  std::atomic<unsigned> window{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, w = p.workers[t].get()] {
      try {
        auto local = wl.local(stream_seed(o.seed, 200 + w->id));
        CalibrationKernel kernel(stream_seed(o.seed, 300 + w->id));
        std::uint64_t last = sv::tsc_now();
        for (;;) {
          const Phase ph = phase.load(std::memory_order_relaxed);
          if (ph == Phase::kStop) break;
          w->measuring = ph == Phase::kMeasure;
          w->window = window.load(std::memory_order_relaxed);
          const bool calibrating = (last - origin) / slice_ticks % 2 == 1;
          const std::uint64_t requests = w->ops;
          unsigned searches = 0;
          if (calibrating) {
            searches = kernel.run();
          } else {
            wl.op(fx, *w, local);
          }
          const std::uint64_t now = sv::tsc_now();
          if (w->measuring) {
            SliceTotals& s = w->slices[w->window];
            if (calibrating) {
              s.calib_ticks += now - last;
              s.searches += searches;
            } else {
              s.work_ticks += now - last;
              s.requests += w->ops - requests;
            }
          }
          last = now;
        }
      } catch (...) {
        w->error = std::current_exception();
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::duration<double>(o.warmup));
  const sv::stats::Snapshot before = fx.map.stats_registry().snapshot();
  rusage r0{};
  getrusage(RUSAGE_SELF, &r0);
  const ClockMark m0 = ClockMark::now();
  phase.store(Phase::kMeasure, std::memory_order_relaxed);

  const unsigned ticks = windows * kFootprintSamplesPerWindow;
  const double tick_s = o.seconds / ticks;
  for (unsigned i = 1; i <= ticks; ++i) {
    std::this_thread::sleep_until(
        m0.wall + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(tick_s * i)));
    p.footprint.push_back(
        ratio(static_cast<double>(fx.map.allocator_stats().live_bytes),
              static_cast<double>(fx.map.size_approx())));
    if (i % kFootprintSamplesPerWindow != 0) continue;
    window.store(std::min<unsigned>(i / kFootprintSamplesPerWindow,
                                    windows - 1),
                 std::memory_order_relaxed);
  }
  const ClockMark m1 = ClockMark::now();
  phase.store(Phase::kStop, std::memory_order_relaxed);
  const sv::stats::Snapshot after = fx.map.stats_registry().snapshot();
  rusage r1{};
  getrusage(RUSAGE_SELF, &r1);
  for (auto& t : threads) t.join();
  for (const auto& w : p.workers) {
    if (w->error) std::rethrow_exception(w->error);
  }

  p.seconds = std::chrono::duration<double>(m1.wall - m0.wall).count();
  p.ticks_per_ns = ticks_per_ns(m0, m1);
  const double ticks_per_s = p.ticks_per_ns * 1e9;
  for (unsigned i = 0; i < windows; ++i) {
    SliceTotals s;
    for (const auto& w : p.workers) s.merge(w->slices[i]);
    p.measured_ops += s.requests;
    const double rate = kThreads * ticks_per_s *
                        ratio(static_cast<double>(s.requests),
                              static_cast<double>(s.work_ticks));
    const double speed = ticks_per_s *
                         ratio(static_cast<double>(s.searches),
                               static_cast<double>(s.calib_ticks)) /
                         kReferenceRate;
    p.window_rates.push_back(rate);
    p.window_speeds.push_back(speed);
    // A window in which no slice of one kind completed tells nothing.
    if (rate > 0 && speed > 0) p.ref_rates.push_back(rate / speed);
  }
  p.throughput = interquartile_mean(p.ref_rates);
  p.raw_throughput = interquartile_mean(p.window_rates);
  p.host_speed = median(p.window_speeds);
  p.counters = after - before;
  p.cpu_frac = (cpu_seconds(r1) - cpu_seconds(r0)) / (kThreads * p.seconds);
  p.invol_switches_per_s =
      static_cast<double>(r1.ru_nivcsw - r0.ru_nivcsw) / p.seconds;
  return p;
}

// ---- Workloads --------------------------------------------------------------

// Failures the final oracles found.
struct EndState {
  std::uint64_t failures = 0;
  std::string detail;

  void fail(const std::string& what) {
    ++failures;
    if (!detail.empty()) detail += "; ";
    detail += what;
  }
  void merge(const EndState& o) {
    if (o.failures == 0) return;
    failures += o.failures;
    if (!detail.empty()) detail += "; ";
    detail += "traced pass: " + o.detail;
  }
};

// The structural audit, run after every pass (about 1 s at scan's 1M keys).
void audit_structure(const Map& map, EndState& end) {
  const sv::debug::AuditReport rep = map.validate_structure();
  if (!rep.ok()) end.fail(rep.to_string());
}

struct NoLocal {};

// Point and scan mixes over a uniform key range, half prefilled with
// value_of(k). Percentages: scan, lookup, insert; the rest are removes.
struct KeyValueWorkload {
  const char* name;
  unsigned key_bits;
  unsigned pct_scan;
  unsigned pct_lookup;
  unsigned pct_insert;

  static constexpr std::uint64_t kMaxScanLen = 100;
  static constexpr unsigned kSetupThreads = kThreads;

  struct Fixture {
    explicit Fixture(std::uint64_t n)
        : map(sv::core::Config::for_elements(n)) {}
    Map map;
    std::uint64_t prefilled = 0;
  };

  std::uint64_t range() const { return std::uint64_t{1} << key_bits; }

  // Random inserts on kThreads threads. Thread t draws only keys congruent
  // to t mod kThreads, so the prefilled key set depends on the seed alone.
  std::unique_ptr<Fixture> setup(std::uint64_t seed) const {
    const std::uint64_t target = range() / 2;
    auto fx = std::make_unique<Fixture>(target);
    run_threads([&](unsigned t) {
      sv::Xoshiro256 rng(stream_seed(seed, t));
      const std::uint64_t slots = (range() - t + kThreads - 1) / kThreads;
      const std::uint64_t quota =
          target / kThreads + (t < target % kThreads ? 1 : 0);
      for (std::uint64_t n = 0; n < quota;) {
        const std::uint64_t k = t + kThreads * rng.next_below(slots);
        if (fx->map.insert(k, value_of(k))) ++n;
      }
    });
    fx->prefilled = target;
    return fx;
  }

  NoLocal local(std::uint64_t) const { return {}; }

  void op(Fixture& fx, Worker& w, NoLocal&) const {
    const std::uint64_t dice = w.rng.next_below(100);
    if (dice < pct_scan) {
      const std::uint64_t len = 1 + w.rng.next_below(kMaxScanLen);
      const std::uint64_t lo = w.rng.next_below(range() - len + 1);
      const std::uint64_t hi = lo + len - 1;
      w.request(true, [&] {
        ScanCheck check(lo, hi);
        w.call(Call::kRange, Span::kRange, [&] {
          return fx.map.range_for_each(
              lo, hi, [&](std::uint64_t k, std::uint64_t v) { check(k, v); });
        });
        if (!check.ok()) ++w.failed;
        if (w.traced && w.measuring) w.range_keys += check.keys();
      });
      return;
    }
    const std::uint64_t k = w.rng.next_below(range());
    w.request((w.ops & kPointSampleMask) == 0, [&] {
      if (dice < pct_scan + pct_lookup) {
        const auto v = w.call(Call::kLookup, Span::kLookup,
                              [&] { return fx.map.lookup(k); });
        if (v && !value_ok(k, *v)) ++w.failed;
      } else if (dice < pct_scan + pct_lookup + pct_insert) {
        if (w.call(Call::kInsert, Span::kInsert,
                   [&] { return fx.map.insert(k, value_of(k)); })) {
          ++w.inserted;
        }
      } else if (w.call(Call::kRemove, Span::kRemove,
                        [&] { return fx.map.remove(k); })) {
        ++w.removed;
      }
    });
  }

  EndState check(Fixture& fx, const Workers& ws) const {
    EndState end;
    std::uint64_t inserted = 0, removed = 0;
    for (const auto& w : ws) {
      inserted += w->inserted;
      removed += w->removed;
    }
    const MapSummary s = summarize(fx.map);
    if (!population_ok(fx.prefilled, inserted, removed, s)) {
      end.fail("population: prefill " + std::to_string(fx.prefilled) +
               " + inserted " + std::to_string(inserted) + " - removed " +
               std::to_string(removed) + " != " + std::to_string(s.keys) +
               " keys (" + std::to_string(s.bad_values) + " bad values)");
    }
    return end;
  }
};

// YCSB-T through the public sv::txn::Txn API: 16 accesses per transaction,
// 90% reads, Zipfian rows; writes increment the row, and every transaction
// is retried until it commits.
struct YcsbTWorkload {
  const char* name = "ycsb-t";
  static constexpr std::uint64_t kRows = std::uint64_t{1} << 16;
  static constexpr unsigned kSetupThreads = 1;  // loads on the calling thread

  struct Fixture {
    Fixture() : map(sv::core::Config::for_elements(kRows)) {}
    Map map;
  };

  struct Local {
    sv::dbx::YcsbGenerator gen;
    sv::dbx::TxnRequest req;
  };

  static sv::dbx::YcsbConfig config() {
    sv::dbx::YcsbConfig c;
    c.table_rows = kRows;
    c.zipf_theta = 0.1;
    c.read_fraction = 0.9;
    c.accesses_per_txn = 16;
    return c;
  }

  std::unique_ptr<Fixture> setup(std::uint64_t) const {
    auto fx = std::make_unique<Fixture>();
    for (std::uint64_t k = 0; k < kRows; ++k) fx->map.insert(k, 0);
    return fx;
  }

  Local local(std::uint64_t seed) const {
    return Local{sv::dbx::YcsbGenerator(config(), seed), {}};
  }

  void op(Fixture& fx, Worker& w, Local& l) const {
    l.gen.next(&l.req);
    w.request(true, [&] {
      // The retry loop of sv::txn::run, unrolled so that commit and backoff
      // are timed apart; it counts retries the same way.
      sv::stats::Scope stats_scope(fx.map.stats_registry());
      sv::sync::Backoff backoff(sv::txn::RetryPolicy{}.max_spins);
      for (;;) {
        CallTimer attempt(w, Call::kNone, Span::kAttempt);
        sv::txn::Txn<Map> t(fx.map);
        std::uint64_t writes = 0;
        for (std::uint32_t i = 0; i < l.req.count; ++i) {
          const sv::dbx::Access& a = l.req.accesses[i];
          const auto v =
              w.call(Call::kGet, Span::kGet, [&] { return t.get(a.key); });
          if (!v) {
            ++w.failed;  // every row is loaded and never removed
            continue;
          }
          if (a.is_write) {
            t.put(a.key, *v + 1);
            ++writes;
          }
        }
        if (w.call(Call::kCommit, Span::kCommit, [&] { return t.commit(); }) ==
            sv::txn::TxnResult::kCommitted) {
          w.increments += writes;
          return;
        }
        sv::stats::count(sv::stats::Counter::kTxnRetries);
        w.call(Call::kBackoff, Span::kBackoff, [&] { backoff.pause(); });
      }
    });
  }

  EndState check(Fixture& fx, const Workers& ws) const {
    EndState end;
    std::uint64_t committed = 0;
    for (const auto& w : ws) committed += w->increments;
    const MapSummary s = summarize(fx.map);
    if (!increments_ok(kRows, committed, s)) {
      end.fail("row sum " + std::to_string(s.value_sum) + " over " +
               std::to_string(s.keys) + " rows != " +
               std::to_string(committed) + " committed increments");
    }
    return end;
  }
};

// ---- Metrics ----------------------------------------------------------------

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

// Per-layer metrics from the untraced pass's counter deltas; ratios are per
// measured request ("op") unless named otherwise.
void add_counter_metrics(std::vector<Metric>& out, const Pass& p,
                         const sv::stats::Snapshot& end_totals,
                         std::uint64_t live_bytes) {
  const auto add = [&](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };
  using C = sv::stats::Counter;
  const sv::stats::Snapshot& c = p.counters;
  const auto v = [&](C k) { return static_cast<double>(c[k]); };
  const double ops = static_cast<double>(p.measured_ops);
  const double kops = ops / 1000;
  const double writes = v(C::kInsertNew) + v(C::kInsertDup) +
                        v(C::kRemoveHit) + v(C::kRemoveMiss) +
                        v(C::kUpdateHit) + v(C::kUpdateMiss) +
                        v(C::kBatchKeys);
  const double searches = v(C::kSimdSearches) + v(C::kScalarFallbacks);
  const double commits = v(C::kTxnCommits);
  const double attempts = commits + v(C::kTxnAborts);
  add("core.restarts_per_op", "count", ratio(v(C::kOpRestarts), ops));
  add("core.splits_per_kop", "count",
      ratio(v(C::kCapacitySplits) + v(C::kTowerSplits), kops));
  add("core.merges_per_kop", "count", ratio(v(C::kOrphanMerges), kops));
  add("core.thaws_per_dup_insert", "count",
      ratio(v(C::kThaws), v(C::kInsertDup)));
  add("vectormap.simd_frac", "frac", ratio(v(C::kSimdSearches), searches));
  add("vectormap.searches_per_op", "count", ratio(searches, ops));
  add("vectormap.shifted_slots_per_write", "count",
      ratio(v(C::kChunkShiftedSlots), writes));
  add("sync.read_retries_per_op", "count",
      ratio(v(C::kSeqlockReadRetries), ops));
  add("sync.acquire_retries_per_write", "count",
      ratio(v(C::kSeqlockAcquireRetries), writes));
  add("reclaim.hp_scans_per_kop", "count", ratio(v(C::kHpScanPasses), kops));
  add("reclaim.retired_per_kop", "count", ratio(v(C::kRetired), kops));
  add("reclaim.unreclaimed_nodes", "count",
      static_cast<double>(end_totals[C::kRetired] -
                          end_totals[C::kReclaimed]));
  add("alloc.node_allocs_per_kop", "count",
      ratio(v(C::kPoolHits) + v(C::kPoolMisses), kops));
  add("alloc.live_mb", "MiB", static_cast<double>(live_bytes) / (1 << 20));
  add("mvcc.version_records_per_kop", "count",
      ratio(v(C::kVersionRecords), kops));
  add("mvcc.preimages_skipped_frac", "frac",
      ratio(v(C::kPreimagesSkipped),
            v(C::kPreimagesSkipped) + v(C::kVersionRecords)));
  add("txn.abort_rate", "frac", ratio(v(C::kTxnAborts), attempts));
  add("txn.attempts_per_commit", "count", ratio(attempts, commits));
  add("txn.lock_fail_per_commit", "count",
      ratio(v(C::kTxnLockFail), commits));
  add("run.cpu_frac", "frac", p.cpu_frac);
  add("run.invol_ctx_switches_per_s", "1/s", p.invol_switches_per_s);
  add("run.host_speed", "frac", p.host_speed);
  const auto n = static_cast<double>(p.ref_rates.size());
  double mean = 0, var = 0;
  for (double r : p.ref_rates) mean += r;
  mean = ratio(mean, n);
  for (double r : p.ref_rates) var += (r - mean) * (r - mean);
  add("run.window_cv", "frac", ratio(std::sqrt(ratio(var, n)), mean));
}

// Ticks per reference-speed nanosecond in pass p: times divided by it read
// as they would on a host at host speed 1, like the ref_* metrics.
double ref_ticks_per_ns(const Pass& p) {
  return p.host_speed > 0 ? p.ticks_per_ns / p.host_speed : p.ticks_per_ns;
}

// Per-layer metrics from the traced pass's per-call timings, at reference
// speed.
void add_traced_metrics(std::vector<Metric>& out, const Pass& t,
                        double untraced_throughput) {
  const auto add = [&](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };
  std::array<TickHistogram, kCalls> calls;
  std::uint64_t range_keys = 0;
  for (const auto& w : t.workers) {
    for (std::size_t i = 0; i < kCalls; ++i) calls[i].merge(w->calls[i]);
    range_keys += w->range_keys;
  }
  const double tpn = ref_ticks_per_ns(t);
  const auto pct = [&](Call c, double q) {
    return static_cast<double>(
               calls[static_cast<std::size_t>(c)].percentile(q)) /
           tpn;
  };
  const auto sum_ns = [&](Call c) {
    return static_cast<double>(calls[static_cast<std::size_t>(c)].sum()) /
           tpn;
  };
  add("core.lookup_ns_p50", "ns", pct(Call::kLookup, 50));
  add("core.lookup_ns_p99", "ns", pct(Call::kLookup, 99));
  add("core.insert_ns_p50", "ns", pct(Call::kInsert, 50));
  add("core.insert_ns_p99", "ns", pct(Call::kInsert, 99));
  add("core.remove_ns_p50", "ns", pct(Call::kRemove, 50));
  add("core.remove_ns_p99", "ns", pct(Call::kRemove, 99));
  add("core.range_ns_per_key", "ns",
      ratio(sum_ns(Call::kRange), static_cast<double>(range_keys)));
  add("txn.get_ns_p50", "ns", pct(Call::kGet, 50));
  add("txn.commit_ns_p50", "ns", pct(Call::kCommit, 50));
  add("txn.commit_ns_p99", "ns", pct(Call::kCommit, 99));
  add("txn.backoff_ns_per_txn", "ns",
      ratio(sum_ns(Call::kBackoff), static_cast<double>(t.measured_ops)));
  add("run.trace_overhead_frac", "frac",
      1 - ratio(t.throughput, untraced_throughput));
}

JsonValue layers_json(const LayerTotals& lt, double ticks_per_ns) {
  JsonValue o = JsonValue::object();
  const double req = static_cast<double>(lt.requests);
  for (std::size_t i = 0; i < kSpanKinds; ++i) {
    if (lt.calls[i] == 0) continue;
    JsonValue& l = o.set(kSpanNames[i], JsonValue::object());
    l.set("calls_per_request", ratio(static_cast<double>(lt.calls[i]), req));
    l.set("self_ns_per_request", ratio(lt.self_ticks[i] / ticks_per_ns, req));
    l.set("self_share", ratio(lt.self_ticks[i], lt.request_ticks));
  }
  return o;
}

// The --trace output: one entry per workload with its layers block and
// spans, each written once that workload's traced pass has ended.
class TraceFile {
 public:
  TraceFile() = default;
  ~TraceFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  TraceFile(const TraceFile&) = delete;
  TraceFile& operator=(const TraceFile&) = delete;

  bool open(const std::string& path) {
    f_ = std::fopen(path.c_str(), "w");
    if (f_ == nullptr) return false;
    std::fprintf(f_, "{\"schema\": \"svbench-trace\", \"workloads\": [");
    return true;
  }

  bool active() const noexcept { return f_ != nullptr; }

  void add(const char* workload, const Pass& t, const JsonValue& layers) {
    std::fprintf(f_, "%s\n{\"workload\": \"%s\", \"ticks_per_ns\": %.9g,\n",
                 empty_ ? "" : ",", workload, t.ticks_per_ns);
    empty_ = false;
    std::string l = layers.dump();
    l.pop_back();  // dump() ends with a newline
    std::fprintf(f_, "\"layers\": %s,\n\"spans\": [", l.c_str());
    std::uint64_t origin = UINT64_MAX;
    for (const auto& w : t.workers) {
      for (const SpanRecord& s : w->spans.spans()) {
        origin = std::min(origin, s.start);
      }
    }
    bool first = true;
    std::size_t offset = 0;  // parent indices are global within a workload
    for (const auto& w : t.workers) {
      const auto& spans = w->spans.spans();
      for (const SpanRecord& s : spans) {
        const long long parent =
            s.parent < 0 ? -1 : static_cast<long long>(offset) + s.parent;
        std::fprintf(f_,
                     "%s\n{\"name\": \"%s\", \"request\": %llu, \"parent\": "
                     "%lld, \"start_ns\": %.1f, \"end_ns\": %.1f}",
                     first ? "" : ",", span_name(s.name),
                     static_cast<unsigned long long>(s.request), parent,
                     static_cast<double>(s.start - origin) / t.ticks_per_ns,
                     static_cast<double>(s.end - origin) / t.ticks_per_ns);
        first = false;
      }
      offset += spans.size();
    }
    std::fprintf(f_, "\n]}");
  }

  // Closes the document; false if any write failed.
  bool finish() {
    std::fprintf(f_, "\n]}\n");
    const bool ok = std::ferror(f_) == 0;
    const int rc = std::fclose(f_);
    f_ = nullptr;
    return ok && rc == 0;
  }

 private:
  std::FILE* f_ = nullptr;
  bool empty_ = true;
};

struct Outcome {
  JsonValue row;
  std::vector<Metric> metrics;
  std::uint64_t failed = 0;
};

// Host speed over the next `seconds`: kernels[t] on each of `threads`
// threads, as in a pass's calibration slices. One thread means the calling
// thread, which is where a one-thread set-up ran: a single thread's speed
// depends on the CPU it runs on.
double measure_host_speed(std::vector<CalibrationKernel>& kernels,
                          unsigned threads, double seconds) {
  std::array<std::uint64_t, kThreads> searches{};
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point end =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const auto calibrate = [&](unsigned t) {
    std::uint64_t n = 0;
    while (Clock::now() < end) n += kernels[t].run();
    searches[t] = n;
  };
  if (threads == 1) {
    calibrate(0);
  } else {
    run_threads(calibrate);
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  std::uint64_t total = 0;
  for (std::uint64_t n : searches) total += n;
  return ratio(static_cast<double>(total), threads * wall) / kReferenceRate;
}

// Each set-up is followed by as long a calibration (at least this long), so
// that setup_s is at reference speed like the other time metrics.
constexpr double kMinSetupCalibrationS = 0.01;

template <class W>
Outcome run_workload(const W& wl, const RunOptions& o, TraceFile& trace) {
  Outcome out;
  std::vector<CalibrationKernel> kernels;
  for (unsigned t = 0; t < kThreads; ++t) {
    kernels.emplace_back(stream_seed(o.seed, 400 + t));
  }
  std::vector<double> setup_runs, setup_speeds, ref_setups;
  const auto timed_setup = [&] {
    const Clock::time_point t0 = Clock::now();
    auto f = wl.setup(stream_seed(o.seed, 0));
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const double speed = measure_host_speed(
        kernels, W::kSetupThreads, std::max(s, kMinSetupCalibrationS));
    setup_runs.push_back(s);
    setup_speeds.push_back(speed);
    ref_setups.push_back(s * speed);
    return f;
  };
  // The measured map is the first one the workload builds. Tower heights
  // come from per-thread generators that outlive a map, so a map built
  // after a varying number of others would vary in shape (and
  // bytes_per_key) from run to run; the remaining set-ups are timed after
  // the measured pass.
  std::unique_ptr<typename W::Fixture> fx = timed_setup();

  Pass p = run_pass(wl, *fx, o, /*traced=*/false);
  std::uint64_t attempted = 0, failed = 0;
  for (const auto& w : p.workers) {
    attempted += w->ops;
    failed += w->failed;
  }
  const sv::stats::Snapshot totals = fx->map.stats_registry().snapshot();
  const std::uint64_t live_bytes = fx->map.allocator_stats().live_bytes;
  EndState end = wl.check(*fx, p.workers);
  audit_structure(fx->map, end);

  // p50 and p99 are taken per 1 s window, scaled by that window's host
  // speed and reported as the interquartile mean over the windows, like
  // throughput.
  // p99.9 needs the samples of the whole phase, scaled by the median speed.
  const double tpn_us = p.ticks_per_ns * 1000;
  TickHistogram latency;
  std::vector<double> p50s, p99s, ref_p50s, ref_p99s;
  for (std::size_t i = 0; i < p.window_speeds.size(); ++i) {
    TickHistogram h;
    for (const auto& w : p.workers) h.merge(w->latency[i]);
    if (h.count() == 0) continue;
    const double p50 = static_cast<double>(h.percentile(50)) / tpn_us;
    const double p99 = static_cast<double>(h.percentile(99)) / tpn_us;
    p50s.push_back(p50);
    p99s.push_back(p99);
    if (p.window_speeds[i] > 0) {
      ref_p50s.push_back(p50 * p.window_speeds[i]);
      ref_p99s.push_back(p99 * p.window_speeds[i]);
    }
    latency.merge(h);
  }

  std::vector<Metric>& m = out.metrics;
  m.push_back({"ref_throughput", "ops/s", p.throughput});
  m.push_back({"ref_p50_us", "us", interquartile_mean(ref_p50s)});
  m.push_back({"ref_p99_us", "us", interquartile_mean(ref_p99s)});
  m.push_back({"ref_p999_us", "us",
               static_cast<double>(latency.percentile(99.9)) /
                   (ref_ticks_per_ns(p) * 1000)});
  m.push_back({"latency_samples", "count",
               static_cast<double>(latency.count())});
  m.push_back({"bytes_per_key", "B", median(p.footprint)});
  m.push_back({"host_speed", "frac", p.host_speed});
  m.push_back({"throughput", "ops/s", p.raw_throughput});
  m.push_back({"p50_us", "us", interquartile_mean(p50s)});
  m.push_back({"p99_us", "us", interquartile_mean(p99s)});

  std::vector<Metric> layer;
  add_counter_metrics(layer, p, totals, live_bytes);

  JsonValue layers;
  if (trace.active()) {
    fx.reset();
    fx = wl.setup(stream_seed(o.seed, 0));
    Pass t = run_pass(wl, *fx, o, /*traced=*/true);
    for (const auto& w : t.workers) {
      attempted += w->ops;
      failed += w->failed;
    }
    EndState traced_end = wl.check(*fx, t.workers);
    audit_structure(fx->map, traced_end);
    end.merge(traced_end);
    add_traced_metrics(layer, t, p.throughput);
    LayerTotals lt;
    for (const auto& w : t.workers) lt.merge(w->layers);
    layers = layers_json(lt, ref_ticks_per_ns(t));
    trace.add(wl.name, t, layers);
  }
  fx.reset();

  double setup_total = setup_runs.front();
  while (setup_runs.size() < o.setups ||
         (setup_total < o.setup_seconds && setup_runs.size() < kMaxSetups)) {
    timed_setup();
    setup_total += setup_runs.back();
  }
  m.push_back({"setup_s", "s", median(ref_setups)});
  m.push_back({"raw_setup_s", "s", median(setup_runs)});

  failed += end.failures;
  out.failed = failed;
  m.push_back({"failed_frac", "frac",
               ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))});
  m.push_back({"attempted", "count", static_cast<double>(attempted)});
  m.push_back({"failed", "count", static_cast<double>(failed)});

  JsonValue& row = out.row;
  row.set("name", wl.name);
  JsonValue& params = row.set("params", JsonValue::object());
  params.set("threads", kThreads);
  JsonValue& metrics = row.set("metrics", JsonValue::object());
  for (const Metric& x : m) metrics.set(x.name, x.value);
  JsonValue& per_layer = row.set("per_layer", JsonValue::object());
  for (const Metric& x : layer) per_layer.set(x.name, x.value);
  JsonValue& windows = row.set("window_ops_per_s", JsonValue::array());
  for (double r : p.window_rates) windows.push(r);
  JsonValue& speeds = row.set("window_host_speed", JsonValue::array());
  for (double r : p.window_speeds) speeds.push(r);
  JsonValue& setups = row.set("setup_runs_s", JsonValue::array());
  for (double s : setup_runs) setups.push(s);
  JsonValue& setup_hs = row.set("setup_host_speed", JsonValue::array());
  for (double s : setup_speeds) setup_hs.push(s);
  row.set("stats", sv::benchutil::stats_json(p.counters));
  if (trace.active()) row.set("layers", layers);
  if (end.failures > 0) row.set("failure_detail", end.detail);

  m.insert(m.end(), layer.begin(), layer.end());
  return out;
}

// The paper's Fig. 4 mix sized to fit one core's L2; an all-write mix at
// the same size; YCSB-E scans.
constexpr KeyValueWorkload kPointHot{"point-hot", 16, 0, 80, 10};
constexpr KeyValueWorkload kChurn{"churn", 16, 0, 0, 50};
constexpr KeyValueWorkload kScan{"scan", 21, 95, 0, 5};

struct Entry {
  const char* name;
  Outcome (*run)(const RunOptions&, TraceFile&);
};

constexpr Entry kWorkloads[] = {
    {"point-hot",
     [](const RunOptions& o, TraceFile& t) {
       return run_workload(kPointHot, o, t);
     }},
    {"churn",
     [](const RunOptions& o, TraceFile& t) {
       return run_workload(kChurn, o, t);
     }},
    {"scan",
     [](const RunOptions& o, TraceFile& t) {
       return run_workload(kScan, o, t);
     }},
    {"ycsb-t",
     [](const RunOptions& o, TraceFile& t) {
       return run_workload(YcsbTWorkload{}, o, t);
     }},
};

void usage() {
  std::printf(
      "svbench: end-to-end and per-layer benchmark of the default skip "
      "vector\n"
      "  --workload=NAME  run one workload (default: all of point-hot,\n"
      "                   churn, scan, ycsb-t)\n"
      "  --seed=N         input seed (default 1)\n"
      "  --seconds=F      measured phase per workload (default 20)\n"
      "  --warmup=F       untimed warm-up before it (default 2)\n"
      "  --setups=N       fewest set-ups per workload; setup_s is their "
      "median (default 3)\n"
      "  --setup-seconds=F  and more set-ups until they took F s in all "
      "(default 1)\n"
      "  --json=PATH      write the sv-bench JSON report\n"
      "  --trace=PATH     add a traced pass per workload; write its spans\n");
}

int run(int argc, char** argv) {
  sv::benchutil::Options opt(argc, argv);
  if (opt.help_requested()) {
    usage();
    return 0;
  }
  opt.reject_unknown(
      {"workload", "seed", "seconds", "warmup", "setups", "setup-seconds",
       "json", "trace"});
  RunOptions o;
  o.seed = opt.u64("seed", 1);
  o.seconds = opt.f64("seconds", 20);
  o.warmup = opt.f64("warmup", 2);
  o.setups = static_cast<unsigned>(opt.u64("setups", 3));
  o.setup_seconds = opt.f64("setup-seconds", 1);
  const std::string only = opt.str("workload", "");
  const std::string json_path = opt.str("json", "");
  const std::string trace_path = opt.str("trace", "");
  if (!(o.seconds > 0) || !(o.warmup >= 0) || o.setups == 0 ||
      o.setups > kMaxSetups || !(o.setup_seconds >= 0)) {
    std::fprintf(stderr, "svbench: --seconds must be > 0, --warmup >= 0, "
                         "--setups in [1, %u] and --setup-seconds >= 0\n",
                 kMaxSetups);
    return 2;
  }
  std::vector<const Entry*> selected;
  for (const Entry& e : kWorkloads) {
    if (only.empty() || only == e.name) selected.push_back(&e);
  }
  if (selected.empty()) {
    std::fprintf(stderr, "svbench: unknown workload '%s'\n", only.c_str());
    return 2;
  }

  HostInfo host = HostInfo::probe(SVBENCH_BUILD_TYPE);
  if (const std::string why = host.invalid_reason(kThreads); !why.empty()) {
    std::fprintf(stderr, "svbench: refusing to run: %s\n", why.c_str());
    return 2;
  }

  TraceFile trace;
  if (!trace_path.empty() && !trace.open(trace_path)) {
    std::fprintf(stderr, "svbench: cannot write %s\n", trace_path.c_str());
    return 2;
  }

  sv::benchutil::BenchReport report("svbench");
  report.config().set("seed", o.seed);
  report.config().set("seconds", o.seconds);
  report.config().set("warmup_s", o.warmup);
  report.config().set("setups", o.setups);
  report.config().set("setup_seconds", o.setup_seconds);
  report.config().set("threads", kThreads);
  report.config().set("traced", trace.active());
  JsonValue units = JsonValue::object();
  std::uint64_t failed = 0;
  std::printf("svbench: %u threads, seed %llu, %.1f s measured per workload "
              "(%s, simd %s)\n",
              kThreads, static_cast<unsigned long long>(o.seed), o.seconds,
              host.cpu_model.c_str(), host.simd_tier.c_str());
  for (const Entry* e : selected) {
    std::fflush(stdout);
    Outcome r = e->run(o, trace);
    failed += r.failed;
    for (const Metric& x : r.metrics) {
      std::printf("  %-12s %-34s %14.6g %s\n", e->name, x.name.c_str(),
                  x.value, x.unit);
      units.set(x.name, x.unit);
    }
    report.add_result(e->name) = std::move(r.row);
  }
  host.note_end();
  if (trace.active() && !trace.finish()) {
    std::fprintf(stderr, "svbench: failed writing %s\n", trace_path.c_str());
    return 2;
  }

  if (!json_path.empty()) {
    JsonValue doc = report.to_json();
    doc.set("host", host.to_json());
    doc.set("units", units);
    std::ofstream f(json_path, std::ios::trunc);
    f << doc.dump();
    f.close();
    if (!f) {
      std::fprintf(stderr, "svbench: failed writing %s\n", json_path.c_str());
      return 2;
    }
  }
  if (failed > 0) {
    std::printf("svbench: %llu correctness check(s) FAILED\n",
                static_cast<unsigned long long>(failed));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace svbench

int main(int argc, char** argv) {
  try {
    return svbench::run(argc, argv);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "svbench: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "svbench: error: %s\n", e.what());
    return 1;
  }
}
