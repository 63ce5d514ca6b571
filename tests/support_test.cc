// Tests for supporting components: the coarse-lock baseline, the benchmark
// driver utilities (options parsing, prefill, mix runner), and the
// statistical generators (xoshiro, Zipf).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "baselines/coarse_lock_map.h"
#include "benchutil/driver.h"
#include "benchutil/options.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "sync/backoff.h"

namespace sv {
namespace {

// ---- CoarseLockMap ------------------------------------------------------------

TEST(CoarseLockMap, SequentialOracle) {
  baselines::CoarseLockMap<std::uint64_t, std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> oracle;
  Xoshiro256 rng(5);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t k = rng.next_below(200);
    switch (rng.next_below(4)) {
      case 0: {
        const auto v = rng.next();
        ASSERT_EQ(m.insert(k, v), oracle.emplace(k, v).second);
        break;
      }
      case 1:
        ASSERT_EQ(m.remove(k), oracle.erase(k) > 0);
        break;
      case 2: {
        const auto v = rng.next();
        auto it = oracle.find(k);
        ASSERT_EQ(m.update(k, v), it != oracle.end());
        if (it != oracle.end()) it->second = v;
        break;
      }
      default: {
        auto got = m.lookup(k);
        auto it = oracle.find(k);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
  }
  ASSERT_EQ(m.size(), oracle.size());
}

TEST(CoarseLockMap, ConcurrentSmoke) {
  baselines::CoarseLockMap<std::uint64_t, std::uint64_t> m;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> bad{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (int i = 0; i < 20000; ++i) {
        const std::uint64_t k = rng.next_below(128);
        switch (rng.next_below(3)) {
          case 0:
            m.insert(k, (k << 32) | 1);
            break;
          case 1:
            m.remove(k);
            break;
          default: {
            auto v = m.lookup(k);
            if (v && (*v >> 32) != k) bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
}

TEST(CoarseLockMap, RangeOps) {
  baselines::CoarseLockMap<std::uint64_t, std::uint64_t> m;
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, 0);
  EXPECT_EQ(m.range_transform(10, 19, [](auto, auto v) { return v + 5; }),
            10u);
  std::uint64_t sum = 0;
  EXPECT_EQ(m.range_for_each(0, 99, [&](auto, auto v) { sum += v; }), 100u);
  EXPECT_EQ(sum, 50u);
}

// ---- Options parsing -------------------------------------------------------------

TEST(Options, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog",          "--key-range=2^20", "--seconds=1.5",
                        "--name=sv",     "--flagged",        "--sizes=1,2,4K",
                        "--threads=8"};
  benchutil::Options opt(7, const_cast<char**>(argv));
  EXPECT_EQ(opt.u64("key-range", 0), 1u << 20);
  EXPECT_EQ(opt.u64("threads", 0), 8u);
  EXPECT_EQ(opt.u64("absent", 42), 42u);
  EXPECT_DOUBLE_EQ(opt.f64("seconds", 0), 1.5);
  EXPECT_EQ(opt.str("name", ""), "sv");
  EXPECT_TRUE(opt.flag("flagged"));
  EXPECT_FALSE(opt.flag("not-flagged"));
  const auto sizes = opt.u64_list("sizes", {});
  ASSERT_EQ(sizes.size(), 3u);
  EXPECT_EQ(sizes[0], 1u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 4096u);
  EXPECT_FALSE(opt.help_requested());
}

TEST(Options, SuffixesAndHelp) {
  EXPECT_EQ(benchutil::Options::parse_u64("3K"), 3072u);
  EXPECT_EQ(benchutil::Options::parse_u64("2M"), 2u << 20);
  EXPECT_EQ(benchutil::Options::parse_u64("1G"), 1u << 30);
  EXPECT_EQ(benchutil::Options::parse_u64("2^31"), 1ull << 31);
  EXPECT_THROW(benchutil::Options::parse_u64("12Q"), std::invalid_argument);
  const char* argv[] = {"prog", "--help"};
  benchutil::Options opt(2, const_cast<char**>(argv));
  EXPECT_TRUE(opt.help_requested());
}

// A malformed value throws; bench_main turns that into exit code 2.
TEST(Options, MalformedValuesExit2ThroughBenchMain) {
  using benchutil::Options;
  EXPECT_THROW(Options::parse_u64("abc"), std::invalid_argument);
  EXPECT_THROW(Options::parse_u64("99999999999999999999999"),
               std::out_of_range);
  EXPECT_THROW(Options::parse_u64("2^64"), std::out_of_range);
  EXPECT_THROW(Options::parse_u64("17179869184G"), std::out_of_range);
  EXPECT_EQ(Options::parse_u64("2^63"), 1ull << 63);
  EXPECT_EQ(Options::parse_u64("1^99999999999"), 1u);
  const auto main_of = [](std::vector<const char*> argv) {
    return benchutil::bench_main(
        "prog", static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
        [](const Options& opt) {
          opt.reject_unknown({"seconds", "threads"});
          opt.f64("seconds", 1);
          opt.u64_list("threads", {1});
          return 0;
        });
  };
  EXPECT_EQ(main_of({"prog", "--seconds=0.5", "--threads=1,2"}), 0);
  EXPECT_EQ(main_of({"prog", "--seconds=1x"}), 2);  // trailing characters
  EXPECT_EQ(main_of({"prog", "--threads=abc"}), 2);
  EXPECT_EQ(main_of({"prog", "--threads=99999999999999999999999"}), 2);
  EXPECT_EQ(main_of({"prog", "--threads=2^64"}), 2);
  EXPECT_EQ(main_of({"prog", "stray"}), 2);
  EXPECT_EQ(main_of({"prog", "--hash"}), 2);
}

// A thread count of 0, or one that would wrap to 0 as unsigned, throws
// before a bench starts a thread; bench_main turns that into exit code 2.
TEST(Options, BadThreadCountsExit2ThroughBenchMain) {
  using benchutil::Options;
  const auto parse = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    return Options(2, const_cast<char**>(argv));
  };
  EXPECT_EQ(parse("--threads=3").threads(2), 3u);
  EXPECT_EQ(parse("--seconds=1").threads(2), 2u);
  EXPECT_EQ(parse("--threads=4294967295").threads(2), 4294967295u);
  EXPECT_THROW(parse("--threads=0").threads(2), std::invalid_argument);
  EXPECT_THROW(parse("--threads=4294967296").threads(2),
               std::invalid_argument);
  EXPECT_EQ(parse("--threads=1,4").threads_list({2}),
            (std::vector<unsigned>{1, 4}));
  EXPECT_EQ(parse("--seconds=1").threads_list({1, 2, 4}),
            (std::vector<unsigned>{1, 2, 4}));
  EXPECT_THROW(parse("--threads=1,0").threads_list({1}),
               std::invalid_argument);
  EXPECT_THROW(parse("--threads=2^32").threads_list({1}),
               std::invalid_argument);
  EXPECT_THROW(parse("--threads=").threads_list({1}), std::invalid_argument);
  const auto main_of = [](const char* arg) {
    const char* argv[] = {"prog", arg};
    return benchutil::bench_main(
        "prog", 2, const_cast<char**>(argv), [](const Options& opt) {
          return opt.threads_list({1}).front() == 2 ? 0 : 1;
        });
  };
  EXPECT_EQ(main_of("--threads=2"), 0);
  EXPECT_EQ(main_of("--threads=0"), 2);
  EXPECT_EQ(main_of("--threads=2,4294967296"), 2);
}

// ---- RNG / Zipf ----------------------------------------------------------------------

TEST(Rng, UniformBelowBoundAndDeterministic) {
  Xoshiro256 a(42), b(42), c(43);
  bool diverged = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = a.next();
    EXPECT_EQ(x, b.next());
    if (x != c.next()) diverged = true;
  }
  EXPECT_TRUE(diverged);
  Xoshiro256 r(7);
  std::uint64_t buckets[10] = {};
  for (int i = 0; i < 100000; ++i) {
    const auto v = r.next_below(10);
    ASSERT_LT(v, 10u);
    buckets[v]++;
  }
  for (auto b10 : buckets) {
    EXPECT_NEAR(static_cast<double>(b10), 10000.0, 600.0);
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  ZipfGenerator z(1000, 0.0, 3);
  std::uint64_t hot = 0;
  for (int i = 0; i < 50000; ++i) {
    if (z.next() < 10) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / 50000.0, 0.01, 0.005);
}

TEST(Zipf, SkewConcentratesMass) {
  ZipfGenerator z(1 << 20, 0.99, 3);
  std::uint64_t hot = 0;
  for (int i = 0; i < 50000; ++i) {
    if (z.next() < 100) ++hot;
  }
  // With theta=0.99 over 1M keys, the top-100 keys draw a large share.
  EXPECT_GT(static_cast<double>(hot) / 50000.0, 0.25);
}

TEST(Zipf, StaysInRange) {
  // theta == 1.0 is the harmonic singularity of Gray's closed form
  // (alpha = 1/(1-theta)); it must sample via the analytic harmonic
  // inverse, not divide by zero.
  for (double theta : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    ZipfGenerator z(64, theta, 9);
    for (int i = 0; i < 10000; ++i) ASSERT_LT(z.next(), 64u) << theta;
  }
}

TEST(Zipf, HarmonicThetaOneSamplesSanely) {
  // Deterministic: same seed, same stream.
  ZipfGenerator a(1000, 1.0, 11), b(1000, 1.0, 11);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());

  // Rank-0 frequency must track the harmonic pmf: P(0) = 1/H_n, about
  // 13.4% for n = 1000.
  ZipfGenerator z(1000, 1.0, 12);
  std::uint64_t zero = 0, hot = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    const auto v = z.next();
    ASSERT_LT(v, 1000u);
    if (v == 0) ++zero;
    if (v < 10) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(zero) / kDraws, 0.134, 0.02);
  // Top-10 of 1000 keys draw ~H_10/H_n ~ 39% of the mass.
  EXPECT_NEAR(static_cast<double>(hot) / kDraws, 0.39, 0.04);
}

TEST(Zipf, SkewOrderingAcrossThetas) {
  // Hot-key share must increase with theta: uniform < 0.5 < 0.99 <= 1.0-ish.
  auto hot_share = [](double theta) {
    ZipfGenerator z(1 << 16, theta, 5);
    std::uint64_t hot = 0;
    for (int i = 0; i < 50000; ++i) {
      if (z.next() < 64) ++hot;
    }
    return static_cast<double>(hot) / 50000.0;
  };
  const double s0 = hot_share(0.0);
  const double s05 = hot_share(0.5);
  const double s099 = hot_share(0.99);
  const double s1 = hot_share(1.0);
  EXPECT_LT(s0, s05);
  EXPECT_LT(s05, s099);
  EXPECT_GT(s1, s05);
  EXPECT_GT(s1, 0.25);  // top-64 of 64K keys under harmonic skew
}

// ---- Benchmark driver -----------------------------------------------------------------

TEST(Driver, PrefillReachesHalf) {
  baselines::CoarseLockMap<std::uint64_t, std::uint64_t> m;
  benchutil::prefill_half(m, 1 << 12, 3);
  EXPECT_EQ(m.size(), (1u << 12) / 2);
}

TEST(Driver, MixRunsAndCounts) {
  baselines::CoarseLockMap<std::uint64_t, std::uint64_t> m;
  benchutil::prefill_half(m, 1 << 10, 2);
  auto r = benchutil::run_mix(m, benchutil::MixSpec{80, 10, 10}, 1 << 10,
                              /*threads=*/2, /*seconds=*/0.1);
  EXPECT_GT(r.ops, 0u);
  EXPECT_EQ(r.ops, r.lookups + r.inserts + r.removes);
  EXPECT_GT(r.seconds, 0.05);
  EXPECT_GT(r.mops(), 0.0);
  // Mix ratios approximately honored.
  const double lf = static_cast<double>(r.lookups) / r.ops;
  EXPECT_NEAR(lf, 0.8, 0.05);
}

// ---- Backoff ------------------------------------------------------------------

TEST(Backoff, TruncatesAtNonPowerOfTwoMax) {
  // Regression: the previous doubling overshot a non-power-of-two cap (1 ->
  // 2 -> ... -> 1024 for max_spins = 1000), spinning past the configured
  // bound. The limit must grow monotonically and clamp exactly at max.
  sync::Backoff b(1000);
  std::uint32_t prev = 0;
  for (int i = 0; i < 40; ++i) {
    b.pause();
    EXPECT_LE(b.current_limit(), 1000u);
    EXPECT_GE(b.current_limit(), prev);
    prev = b.current_limit();
  }
  EXPECT_EQ(b.current_limit(), 1000u);  // reaches, never exceeds
}

TEST(Backoff, NoWrapNearUint32Max) {
  // max_spins > 2^31: naive limit << 1 would wrap to 0 and spin forever at
  // limit 0 / restart the ramp. The clamp must go straight to max.
  sync::Backoff b(0xffffffffu);
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t before = b.current_limit();
    // Don't actually spin 4 billion times: stop growing checks once large.
    if (before > (1u << 20)) break;
    b.pause();
    EXPECT_GT(b.current_limit(), before);
  }
}

TEST(Backoff, ZeroMaxIsUsable) {
  sync::Backoff b(0);  // degenerate configuration: clamped to 1 spin
  b.pause();
  b.pause();
  EXPECT_EQ(b.current_limit(), 1u);
  b.reset();
  EXPECT_EQ(b.current_limit(), 1u);
}

}  // namespace
}  // namespace sv
