// Deterministic fault-injection hooks for the skip vector's rare structural
// transitions (split, merge, steal-above, freeze, thaw, checkpoint resume,
// retire). Random torture runs hit these paths unreliably; the hooks let a
// test (or a seeded schedule sweep) force a specific interleaving and replay
// it exactly. See docs/FAULT_INJECTION.md for the schedule format and the
// replay workflow.
//
// The layer is compiled out unless SV_FAULT_INJECTION is defined non-zero
// (tests/ and tools/ build with it; bench/ and examples/ do not), so release
// binaries carry no counters, branches, or singleton.
//
// Determinism model: every injection point keeps a per-point hit counter,
// and the decision for hit #i of point P is a pure function of
// (schedule seed, P, i). The i-th hit of a point therefore always receives
// the same decision, independent of thread interleaving; a single-threaded
// replay of a schedule is bit-for-bit reproducible.
#pragma once

#include <cstdint>

namespace sv::debug {

// Named injection points. Order is part of the schedule format (names below)
// -- append only.
enum class Point : std::uint8_t {
  kSplit = 0,       // insert_at_top: orphan sibling built, about to publish
  kTowerSplit,      // insert_write_phase: per-layer split node about to publish
  kMerge,           // traverse_right: both write locks held, about to merge
  kStealAbove,      // insert_write_phase: index-layer suffix steal
  kFreeze,          // try_insert: before tryFreeze (fail-injectable)
  kThaw,            // thaw_all: node still frozen, about to thaw
  kResume,          // try_insert: resuming descent from a frozen checkpoint
  kRetire,          // reclaimer: node handed to deferred reclamation
  // Mutation points: firing one of these does not merely perturb timing, it
  // INTRODUCES a seeded ordering bug at the site (skip a correctness-
  // critical step). They exist so the linearizability checker can be
  // mutation-tested -- proving it rejects histories of a broken map, not
  // just that a correct map passes. Global pyield/pfail never trigger them;
  // only explicit rules or per-point probabilities do (see decide()).
  kMutDropMerge,    // traverse_right: merge unlinks the orphan but DROPS its
                    // elements (lost keys)
  kMutSkipFreeze,   // try_insert: data-layer freeze skipped; the write phase
                    // runs without exclusive reservation (racing writers)
  kMutEarlyRelease, // try_remove: seqlock released BEFORE the erase; readers
                    // can validate against a torn chunk
  // Appended after the mutation block to keep existing numbering stable
  // (the enum is append-only; is_mutation_point is an explicit list, so
  // position does not matter).
  kBatchCommit,     // apply_batch: all chunk locks held, about to reserve the
                    // commit version and apply staged ops
  kVersionFold,     // split/merge: version chains about to be folded across
                    // the new chunk boundary (locks held)
  kTxnLockStep,     // lock_floor_from: successor validated as linked, its
                    // lock word not yet read
  kVersionWalk,     // resolve_chunk_at: version-chain head loaded, walk not
                    // yet started (a fold + prune here detaches the chain)
  kCount
};

inline const char* point_name(Point p) noexcept {
  switch (p) {
    case Point::kSplit: return "split";
    case Point::kTowerSplit: return "tower-split";
    case Point::kMerge: return "merge";
    case Point::kStealAbove: return "steal-above";
    case Point::kFreeze: return "freeze";
    case Point::kThaw: return "thaw";
    case Point::kResume: return "resume";
    case Point::kRetire: return "retire";
    case Point::kMutDropMerge: return "mut-drop-merge";
    case Point::kMutSkipFreeze: return "mut-skip-freeze";
    case Point::kMutEarlyRelease: return "mut-early-release";
    case Point::kBatchCommit: return "batch-commit";
    case Point::kVersionFold: return "version-fold";
    case Point::kTxnLockStep: return "txn-lock-step";
    case Point::kVersionWalk: return "version-walk";
    default: return "?";
  }
}

// Mutation points deliberately break the algorithm when fired (see above);
// they must never fire from the blanket probabilistic knobs.
inline constexpr bool is_mutation_point(Point p) noexcept {
  return p == Point::kMutDropMerge || p == Point::kMutSkipFreeze ||
         p == Point::kMutEarlyRelease;
}

}  // namespace sv::debug

#if defined(SV_FAULT_INJECTION) && SV_FAULT_INJECTION

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace sv::debug {

inline Point point_from_name(const std::string& name) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(Point::kCount); ++i) {
    if (name == point_name(static_cast<Point>(i))) return static_cast<Point>(i);
  }
  throw std::invalid_argument("unknown injection point: " + name);
}

// What a schedule may do when a point is reached. kFail is honored only at
// fail-injectable points (today: freeze); elsewhere it degrades to a yield.
enum class Action : std::uint8_t { kYield, kDelay, kFail };

// A seeded, replayable injection schedule. Two layers:
//   - probabilistic: yield_prob / fail_prob applied at every hit, decided by
//     hash(seed, point, hit) -- deterministic per (point, hit);
//   - rules: "the i-th hit of point P takes action A" (1-based), for
//     pinpoint scenario tests.
struct Schedule {
  struct Rule {
    Point point = Point::kCount;
    std::uint64_t hit = 0;  // 1-based per-point hit index
    Action action = Action::kYield;
  };

  static constexpr std::size_t kPointCount =
      static_cast<std::size_t>(Point::kCount);

  std::uint64_t seed = 0;
  double yield_prob = 0.0;
  double fail_prob = 0.0;
  // Per-point overrides of the global probabilities; < 0 means unset. The
  // only way (besides explicit rules) to drive mutation points, which the
  // global probabilities deliberately skip.
  std::array<double, kPointCount> point_yield_prob = unset_probs();
  std::array<double, kPointCount> point_fail_prob = unset_probs();
  // Per-point spin-delay probability (no global counterpart: a blanket
  // delay sweep is just a slow run; a targeted one widens a specific race
  // window by orders of magnitude more than a yield).
  std::array<double, kPointCount> point_delay_prob = unset_probs();
  std::vector<Rule> rules;

  static std::array<double, kPointCount> unset_probs() {
    std::array<double, kPointCount> a;
    a.fill(-1.0);
    return a;
  }

  // Format (';' or ',' separated, whitespace-free):
  //   seed=N | pyield=F | pfail=F
  //   | pyield@<point>=F | pfail@<point>=F        (per-point probability)
  //   | pdelay@<point>=F                          (per-point spin delay)
  //   | <point>@<hit>=<yield|delay|fail>          (pinpoint rule, 1-based)
  // e.g. "seed=42;pyield=0.25;freeze@2=fail;pfail@mut-drop-merge=1"
  static Schedule parse(const std::string& spec) {
    Schedule s;
    std::size_t pos = 0;
    while (pos < spec.size()) {
      std::size_t end = spec.find_first_of(";,", pos);
      if (end == std::string::npos) end = spec.size();
      const std::string tok = spec.substr(pos, end - pos);
      pos = end + 1;
      if (tok.empty()) continue;
      const std::size_t eq = tok.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("bad schedule token: " + tok);
      }
      const std::string key = tok.substr(0, eq);
      const std::string val = tok.substr(eq + 1);
      if (key == "seed") {
        s.seed = std::stoull(val);
      } else if (key == "pyield") {
        s.yield_prob = std::stod(val);
      } else if (key == "pfail") {
        s.fail_prob = std::stod(val);
      } else if (key.rfind("pyield@", 0) == 0 || key.rfind("pfail@", 0) == 0 ||
                 key.rfind("pdelay@", 0) == 0) {
        const Point p = point_from_name(key.substr(key.find('@') + 1));
        const double f = std::stod(val);
        if (f < 0 || f > 1) {
          throw std::invalid_argument("per-point probability out of [0, 1]: " +
                                      tok);
        }
        auto& probs = key[1] == 'y'
                          ? s.point_yield_prob
                          : (key[1] == 'f' ? s.point_fail_prob
                                           : s.point_delay_prob);
        probs[static_cast<std::size_t>(p)] = f;
      } else {
        const std::size_t at = key.find('@');
        if (at == std::string::npos) {
          throw std::invalid_argument("bad schedule token: " + tok);
        }
        Rule r;
        r.point = point_from_name(key.substr(0, at));
        r.hit = std::stoull(key.substr(at + 1));
        if (r.hit == 0) throw std::invalid_argument("rule hits are 1-based");
        if (val == "yield") {
          r.action = Action::kYield;
        } else if (val == "delay") {
          r.action = Action::kDelay;
        } else if (val == "fail") {
          r.action = Action::kFail;
        } else {
          throw std::invalid_argument("bad schedule action: " + val);
        }
        s.rules.push_back(r);
      }
    }
    if (s.yield_prob < 0 || s.yield_prob > 1 || s.fail_prob < 0 ||
        s.fail_prob > 1) {
      throw std::invalid_argument("schedule probabilities must be in [0, 1]");
    }
    return s;
  }

  std::string to_string() const {
    std::string out = "seed=" + std::to_string(seed);
    char buf[64];
    if (yield_prob > 0) {
      std::snprintf(buf, sizeof(buf), ";pyield=%g", yield_prob);
      out += buf;
    }
    if (fail_prob > 0) {
      std::snprintf(buf, sizeof(buf), ";pfail=%g", fail_prob);
      out += buf;
    }
    for (std::size_t i = 0; i < kPointCount; ++i) {
      if (point_yield_prob[i] >= 0) {
        std::snprintf(buf, sizeof(buf), ";pyield@%s=%g",
                      point_name(static_cast<Point>(i)), point_yield_prob[i]);
        out += buf;
      }
      if (point_fail_prob[i] >= 0) {
        std::snprintf(buf, sizeof(buf), ";pfail@%s=%g",
                      point_name(static_cast<Point>(i)), point_fail_prob[i]);
        out += buf;
      }
      if (point_delay_prob[i] >= 0) {
        std::snprintf(buf, sizeof(buf), ";pdelay@%s=%g",
                      point_name(static_cast<Point>(i)), point_delay_prob[i]);
        out += buf;
      }
    }
    for (const Rule& r : rules) {
      out += ';';
      out += point_name(r.point);
      out += '@' + std::to_string(r.hit) + '=';
      out += r.action == Action::kYield
                 ? "yield"
                 : (r.action == Action::kDelay ? "delay" : "fail");
    }
    return out;
  }
};

// Process-wide injection registry. Install/clear while the structures under
// test are quiesced; reached()/should_fail() are then safe from any thread.
class FaultInjector {
 public:
  static FaultInjector& instance() {
    static FaultInjector g;
    return g;
  }

  // Test-driven observers, invoked on every hit after schedule actions.
  // A blocking Handler is how scenario tests park a thread mid-transition.
  using Handler = std::function<void(Point, std::uint64_t hit)>;
  // FailHandler overrides the schedule's fail decision when set.
  using FailHandler = std::function<bool(Point, std::uint64_t hit)>;

  void install(Schedule s) {
    schedule_ = std::move(s);
    armed_.store(true, std::memory_order_release);
    reset_counters();
  }

  void set_handler(Handler h) {
    handler_ = std::move(h);
    armed_.store(true, std::memory_order_release);
  }
  void set_fail_handler(FailHandler h) {
    fail_handler_ = std::move(h);
    armed_.store(true, std::memory_order_release);
  }

  // Disarm everything and zero the counters.
  void clear() {
    armed_.store(false, std::memory_order_release);
    schedule_ = Schedule{};
    handler_ = nullptr;
    fail_handler_ = nullptr;
    reset_counters();
  }

  // Hook: a non-failable point was reached.
  void reached(Point p) {
    if (!armed_.load(std::memory_order_acquire)) return;
    const std::uint64_t hit = next_hit(p);
    switch (decide(p, hit, /*failable=*/false)) {
      case Decision::kNone:
        break;
      case Decision::kYield:
        fired(p).fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        break;
      case Decision::kDelay:
        fired(p).fetch_add(1, std::memory_order_relaxed);
        spin_delay();
        break;
      case Decision::kFail:  // not failable here: degrade to yield
        fired(p).fetch_add(1, std::memory_order_relaxed);
        std::this_thread::yield();
        break;
    }
    if (handler_) handler_(p, hit);
  }

  // Hook: a fail-injectable point asks whether to abort this attempt.
  bool should_fail(Point p) {
    if (!armed_.load(std::memory_order_acquire)) return false;
    const std::uint64_t hit = next_hit(p);
    bool fail = decide(p, hit, /*failable=*/true) == Decision::kFail;
    if (fail_handler_) fail = fail_handler_(p, hit);
    if (fail) fired(p).fetch_add(1, std::memory_order_relaxed);
    if (handler_) handler_(p, hit);
    return fail;
  }

  std::uint64_t hits(Point p) const {
    return hits_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }
  std::uint64_t fired_count(Point p) const {
    return fired_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }

  std::array<std::uint64_t, static_cast<std::size_t>(Point::kCount)>
  hit_snapshot() const {
    std::array<std::uint64_t, static_cast<std::size_t>(Point::kCount)> a{};
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = hits_[i].load(std::memory_order_relaxed);
    }
    return a;
  }

  std::string report() const {
    std::string out;
    char buf[96];
    for (std::size_t i = 0; i < static_cast<std::size_t>(Point::kCount); ++i) {
      const auto h = hits_[i].load(std::memory_order_relaxed);
      const auto f = fired_[i].load(std::memory_order_relaxed);
      if (h == 0 && f == 0) continue;
      std::snprintf(buf, sizeof(buf), "%s%s: hits=%llu fired=%llu",
                    out.empty() ? "" : ", ",
                    point_name(static_cast<Point>(i)),
                    static_cast<unsigned long long>(h),
                    static_cast<unsigned long long>(f));
      out += buf;
    }
    return out.empty() ? "no injection points hit" : out;
  }

 private:
  enum class Decision : std::uint8_t { kNone, kYield, kDelay, kFail };

  FaultInjector() = default;

  void reset_counters() {
    for (auto& c : hits_) c.store(0, std::memory_order_relaxed);
    for (auto& c : fired_) c.store(0, std::memory_order_relaxed);
  }

  std::uint64_t next_hit(Point p) {
    return hits_[static_cast<std::size_t>(p)].fetch_add(
               1, std::memory_order_relaxed) +
           1;
  }
  std::atomic<std::uint64_t>& fired(Point p) {
    return fired_[static_cast<std::size_t>(p)];
  }

  // splitmix64 finalizer: the decision for (seed, point, hit) is a pure
  // function, so replays are exact regardless of thread interleaving.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  static double unit(std::uint64_t x) noexcept {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }

  Decision decide(Point p, std::uint64_t hit, bool failable) const {
    for (const Schedule::Rule& r : schedule_.rules) {
      if (r.point == p && r.hit == hit) {
        switch (r.action) {
          case Action::kYield: return Decision::kYield;
          case Action::kDelay: return Decision::kDelay;
          case Action::kFail:
            return failable ? Decision::kFail : Decision::kYield;
        }
      }
    }
    const std::uint64_t h = mix(schedule_.seed ^
                                (static_cast<std::uint64_t>(p) << 56) ^ hit);
    // Per-point probabilities override the globals; mutation points are
    // reachable ONLY through rules or per-point probabilities, so blanket
    // pyield/pfail sweeps never inject deliberate bugs.
    const std::size_t pi = static_cast<std::size_t>(p);
    double pf = schedule_.point_fail_prob[pi];
    double py = schedule_.point_yield_prob[pi];
    double pd = schedule_.point_delay_prob[pi];
    if (pd < 0) pd = 0;  // delays have no global fallback
    if (is_mutation_point(p)) {
      if (pf < 0) pf = 0;
      if (py < 0) py = 0;
    } else {
      if (pf < 0) pf = schedule_.fail_prob;
      if (py < 0) py = schedule_.yield_prob;
    }
    if (failable && pf > 0 && unit(h) < pf) return Decision::kFail;
    if (pd > 0 && unit(mix(h ^ 0xd1ce5bu)) < pd) return Decision::kDelay;
    if (py > 0 && unit(mix(h)) < py) return Decision::kYield;
    return Decision::kNone;
  }

  static void spin_delay() noexcept {
    for (int i = 0; i < 2048; ++i) {
      std::atomic_signal_fence(std::memory_order_seq_cst);  // keep the loop
    }
  }

  std::atomic<bool> armed_{false};
  Schedule schedule_;
  Handler handler_;
  FailHandler fail_handler_;
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Point::kCount)>
      hits_{};
  std::array<std::atomic<std::uint64_t>, static_cast<std::size_t>(Point::kCount)>
      fired_{};
};

}  // namespace sv::debug

#define SV_FAULT_POINT(p) ::sv::debug::FaultInjector::instance().reached(p)
#define SV_FAULT_SHOULD_FAIL(p) \
  ::sv::debug::FaultInjector::instance().should_fail(p)

#else  // !SV_FAULT_INJECTION: hooks vanish entirely.

#define SV_FAULT_POINT(p) ((void)0)
#define SV_FAULT_SHOULD_FAIL(p) false

#endif  // SV_FAULT_INJECTION
