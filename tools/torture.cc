// torture: long-running correctness soak for the skip vector.
//
// Runs a configurable mixed workload for a wall-clock duration while
// periodically pausing the fleet to run the full structural validator and a
// contents audit (every surviving value must carry its key's tag). Designed
// for hours-long soaks and CI smoke alike:
//
//   build/tools/torture --minutes=30 --threads=8 --range=2^16 [...]
//       --check-every=5 --reclaimer=hp
//
// --fi-schedule installs a deterministic fault-injection schedule (e.g.
// "seed=42;pyield=0.1;pfail=0.05") so the soak exercises induced freeze
// failures and forced yields at the structural transition points; see
// docs/FAULT_INJECTION.md.
//
// Exits 1 on a violation, and 2 on a malformed command line (an unknown
// flag, a value that does not parse, a thread count of 0).
#include <atomic>
#include <cstdio>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchutil/options.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/skip_vector_epoch.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"

namespace {

using sv::benchutil::Options;

struct Violations {
  std::atomic<std::uint64_t> bad_tag{0};
  std::atomic<std::uint64_t> bad_range{0};
  std::atomic<std::uint64_t> bad_nav{0};
};

template <class Map>
int run(Map& map, const Options& opt) {
  const double minutes = opt.f64("minutes", 0.2);
  const unsigned threads = opt.threads(4);
  const std::uint64_t range = opt.u64("range", 1 << 12);
  const double check_every = opt.f64("check-every", 5.0);  // seconds

  std::atomic<bool> stop{false};
  std::atomic<bool> pause{false};
  std::atomic<unsigned> paused{0};
  Violations v;

  auto tag = [](std::uint64_t k, std::uint64_t payload) {
    return (k << 24) | (payload & 0xFFFFFF);
  };

  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      sv::Xoshiro256 rng(0x7041 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        if (pause.load(std::memory_order_acquire)) {
          paused.fetch_add(1);
          while (pause.load(std::memory_order_acquire) &&
                 !stop.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
          }
          paused.fetch_sub(1);
          continue;
        }
        const std::uint64_t k = rng.next_below(range);
        switch (rng.next_below(16)) {
          case 0:
          case 1:
          case 2:
            map.insert(k, tag(k, rng.next()));
            break;
          case 3:
          case 4:
            map.remove(k);
            break;
          case 5:
            map.update(k, tag(k, rng.next()));
            break;
          case 6: {
            const std::uint64_t hi = k + rng.next_below(256);
            map.range_for_each(k, hi, [&](std::uint64_t kk, std::uint64_t vv) {
              if (kk < k || kk > hi) v.bad_range.fetch_add(1);
              if ((vv >> 24) != kk) v.bad_tag.fetch_add(1);
            });
            break;
          }
          case 7: {
            auto f = map.floor(k);
            if (f && (f->first > k || (f->second >> 24) != f->first)) {
              v.bad_nav.fetch_add(1);
            }
            auto c = map.ceiling(k);
            if (c && (c->first < k || (c->second >> 24) != c->first)) {
              v.bad_nav.fetch_add(1);
            }
            break;
          }
          default: {
            auto got = map.lookup(k);
            if (got && (*got >> 24) != k) v.bad_tag.fetch_add(1);
          }
        }
      }
    });
  }

  sv::WallTimer total;
  std::uint64_t checks = 0, failures = 0;
  while (total.elapsed_seconds() < minutes * 60) {
    sv::WallTimer interval;
    while (interval.elapsed_seconds() < check_every &&
           total.elapsed_seconds() < minutes * 60) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    // Quiesce the fleet and audit.
    pause.store(true, std::memory_order_release);
    while (paused.load() < threads) std::this_thread::yield();
    const auto rep = map.validate_structure();
    const bool ok = rep.ok();
    std::uint64_t audit_bad = 0;
    std::size_t population = 0;
    map.for_each([&](std::uint64_t k, std::uint64_t vv) {
      ++population;
      if (k >= range || (vv >> 24) != k) ++audit_bad;
    });
    ++checks;
    if (!ok || audit_bad != 0) {
      ++failures;
      std::fprintf(stderr, "CHECK FAILED (audit_bad=%llu):\n%s\n",
                   static_cast<unsigned long long>(audit_bad),
                   rep.to_string().c_str());
    }
    const auto s = map.stats_registry().snapshot();
    std::printf("[%7.1fs] check #%llu: %s, population=%zu, counters"
                "(restarts=%llu merges=%llu splits=%llu)\n",
                total.elapsed_seconds(),
                static_cast<unsigned long long>(checks),
                ok && audit_bad == 0 ? "ok" : "FAIL", population,
                static_cast<unsigned long long>(
                    s[sv::stats::Counter::kOpRestarts]),
                static_cast<unsigned long long>(
                    s[sv::stats::Counter::kOrphanMerges]),
                static_cast<unsigned long long>(
                    s[sv::stats::Counter::kCapacitySplits]));
    std::fflush(stdout);
    pause.store(false, std::memory_order_release);
  }
  stop.store(true);
  pause.store(false);
  for (auto& w : workers) w.join();

  const std::uint64_t live_violations =
      v.bad_tag.load() + v.bad_range.load() + v.bad_nav.load();
  std::printf("done: %llu checks, %llu failed; live violations: tag=%llu"
              " range=%llu nav=%llu\n",
              static_cast<unsigned long long>(checks),
              static_cast<unsigned long long>(failures),
              static_cast<unsigned long long>(v.bad_tag.load()),
              static_cast<unsigned long long>(v.bad_range.load()),
              static_cast<unsigned long long>(v.bad_nav.load()));
  return (failures == 0 && live_violations == 0) ? 0 : 1;
}

int run_torture(const Options& opt) {
  opt.reject_unknown({"minutes", "threads", "range", "check-every",
                      "reclaimer", "fi-schedule", "t-index", "t-data",
                      "layers", "merge"});
  if (opt.help_requested()) {
    std::printf(
        "torture: long-running concurrent correctness soak\n"
        "  --minutes=F       soak duration (default 0.2)\n"
        "  --threads=N       worker threads (default 4)\n"
        "  --range=N         key range (default 2^12)\n"
        "  --check-every=F   seconds between quiesced audits (default 5)\n"
        "  --reclaimer=S     hp | ebr | leak (default hp)\n"
        "  --fi-schedule=S   deterministic fault-injection schedule\n"
        "  --t-index=N --t-data=N --layers=N --merge=F  map tuning\n");
    return 0;
  }
  const std::string fi_spec = opt.str("fi-schedule", "");
  if (!fi_spec.empty()) {
    try {
      sv::debug::FaultInjector::instance().install(
          sv::debug::Schedule::parse(fi_spec));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "bad --fi-schedule: %s\n", e.what());
      return 2;
    }
  }
  sv::core::Config cfg;
  cfg.target_index_vector_size =
      static_cast<std::uint32_t>(opt.u64("t-index", 8));
  cfg.target_data_vector_size =
      static_cast<std::uint32_t>(opt.u64("t-data", 8));
  cfg.layer_count = static_cast<std::uint32_t>(opt.u64("layers", 5));
  cfg.merge_threshold_factor = opt.f64("merge", 1.67);

  auto finish = [&](int rc) {
    if (!fi_spec.empty()) {
      std::printf("injection: %s\n",
                  sv::debug::FaultInjector::instance().report().c_str());
      sv::debug::FaultInjector::instance().clear();
    }
    return rc;
  };

  const std::string reclaimer = opt.str("reclaimer", "hp");
  if (reclaimer == "hp") {
    sv::core::SkipVector<std::uint64_t, std::uint64_t> m(cfg);
    return finish(run(m, opt));
  }
  if (reclaimer == "ebr") {
    sv::core::SkipVectorEpoch<std::uint64_t, std::uint64_t> m(cfg);
    return finish(run(m, opt));
  }
  if (reclaimer == "leak") {
    sv::core::SkipVectorLeak<std::uint64_t, std::uint64_t> m(cfg);
    return finish(run(m, opt));
  }
  std::fprintf(stderr, "unknown --reclaimer=%s\n", reclaimer.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return sv::benchutil::bench_main("torture", argc, argv, run_torture);
}
