// Tests for the sv::debug subsystem: schedule parsing, deterministic
// injection decisions, the structural auditor's negative paths (via
// debug_corrupt), and the flagship determinism property -- an injected
// freeze failure driving the checkpoint-resume path replays bit-for-bit
// from its schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/skip_vector.h"
#include "debug/audit.h"
#include "debug/fault_inject.h"
#include "stats/stats.h"

namespace sv::core {
namespace {

using debug::Action;
using debug::AuditCode;
using debug::FaultInjector;
using debug::Point;
using debug::Schedule;
using Map = SkipVectorSeq<std::uint64_t, std::uint64_t>;

std::uint64_t Restarts(const Map& m) {
  return m.stats_registry().snapshot()[stats::Counter::kOpRestarts];
}

Config Small() {
  Config c;
  c.layer_count = 3;
  c.target_data_vector_size = 4;
  c.target_index_vector_size = 4;
  return c;
}

// Every test leaves the process-wide injector disarmed.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().clear(); }
};

TEST_F(FaultInjectionTest, ScheduleParseRoundTrip) {
  const Schedule s = Schedule::parse(
      "seed=42;pyield=0.25;pfail=0.1;freeze@2=fail;merge@1=yield;"
      "split@3=delay");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.yield_prob, 0.25);
  EXPECT_DOUBLE_EQ(s.fail_prob, 0.1);
  ASSERT_EQ(s.rules.size(), 3u);
  EXPECT_EQ(s.rules[0].point, Point::kFreeze);
  EXPECT_EQ(s.rules[0].hit, 2u);
  EXPECT_EQ(s.rules[0].action, Action::kFail);
  EXPECT_EQ(s.rules[1].point, Point::kMerge);
  EXPECT_EQ(s.rules[2].action, Action::kDelay);
  // to_string -> parse -> to_string is a fixed point.
  const std::string printed = s.to_string();
  EXPECT_EQ(Schedule::parse(printed).to_string(), printed);
  // Comma separators and empty tokens are accepted too.
  EXPECT_EQ(Schedule::parse("seed=7,thaw@1=yield;;").rules.size(), 1u);
}

TEST_F(FaultInjectionTest, ScheduleParseRejectsMalformedSpecs) {
  EXPECT_THROW(Schedule::parse("bogus"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("notapoint@1=fail"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("freeze@0=fail"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("freeze@1=explode"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("pyield=1.5"), std::invalid_argument);
  EXPECT_THROW(Schedule::parse("pfail=-0.1"), std::invalid_argument);
}

TEST_F(FaultInjectionTest, PointNamesRoundTrip) {
  for (std::uint8_t i = 0; i < static_cast<std::uint8_t>(Point::kCount); ++i) {
    const auto p = static_cast<Point>(i);
    EXPECT_EQ(debug::point_from_name(debug::point_name(p)), p);
  }
  EXPECT_THROW(debug::point_from_name("nope"), std::invalid_argument);
}

TEST_F(FaultInjectionTest, ProbabilisticDecisionsAreDeterministic) {
  auto sample = [] {
    Schedule s;
    s.seed = 7;
    s.fail_prob = 0.5;
    FaultInjector::instance().install(s);
    std::vector<bool> got;
    for (int i = 0; i < 200; ++i) {
      got.push_back(FaultInjector::instance().should_fail(Point::kFreeze));
    }
    return got;
  };
  const auto a = sample();
  const auto b = sample();
  EXPECT_EQ(a, b) << "same (seed, point, hit) must give the same decision";
  // At p=0.5 over 200 hits, both outcomes must occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 200);
  // A different seed gives a different sequence.
  Schedule s2;
  s2.seed = 8;
  s2.fail_prob = 0.5;
  FaultInjector::instance().install(s2);
  std::vector<bool> c;
  for (int i = 0; i < 200; ++i) {
    c.push_back(FaultInjector::instance().should_fail(Point::kFreeze));
  }
  EXPECT_NE(a, c);
}

TEST_F(FaultInjectionTest, RuleFiresOnExactHitOnly) {
  FaultInjector::instance().install(Schedule::parse("freeze@3=fail"));
  std::vector<bool> got;
  for (int i = 0; i < 5; ++i) {
    got.push_back(FaultInjector::instance().should_fail(Point::kFreeze));
  }
  EXPECT_EQ(got, (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(FaultInjector::instance().hits(Point::kFreeze), 5u);
  EXPECT_EQ(FaultInjector::instance().fired_count(Point::kFreeze), 1u);
  // Other points are untouched.
  EXPECT_EQ(FaultInjector::instance().hits(Point::kMerge), 0u);
}

TEST_F(FaultInjectionTest, HandlerObservesEveryHit) {
  std::vector<std::pair<Point, std::uint64_t>> seen;
  FaultInjector::instance().set_handler(
      [&](Point p, std::uint64_t hit) { seen.emplace_back(p, hit); });
  FaultInjector::instance().reached(Point::kMerge);
  FaultInjector::instance().reached(Point::kMerge);
  FaultInjector::instance().reached(Point::kThaw);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], std::make_pair(Point::kMerge, std::uint64_t{1}));
  EXPECT_EQ(seen[1], std::make_pair(Point::kMerge, std::uint64_t{2}));
  EXPECT_EQ(seen[2], std::make_pair(Point::kThaw, std::uint64_t{1}));
  FaultInjector::instance().clear();
  EXPECT_EQ(FaultInjector::instance().hits(Point::kMerge), 0u);
}

// ---- Auditor ---------------------------------------------------------------

// Populates a map with towers at several heights, so index layers have
// entries. (The map is neither copyable nor movable, hence the out-param.)
void BuildLayered(Map& m) {
  for (std::uint64_t k = 1; k <= 64; ++k) {
    EXPECT_TRUE(m.insert_with_height(k * 10, k * 10, 0));
  }
  EXPECT_TRUE(m.insert_with_height(1000, 1000, 1));
  EXPECT_TRUE(m.insert_with_height(2000, 2000, 1));
  EXPECT_TRUE(m.insert_with_height(3000, 3000, 2));
}

TEST_F(FaultInjectionTest, CleanMapAuditsClean) {
  Map m(Small());
  BuildLayered(m);
  const auto rep = m.validate_structure();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_GT(rep.nodes_checked, 0u);
  EXPECT_GT(rep.entries_checked, 0u);
  EXPECT_FALSE(rep.truncated);
  EXPECT_NE(rep.to_string().find("audit ok"), std::string::npos);
}

TEST_F(FaultInjectionTest, AuditorCatchesOrphanFlagOnLinkedChild) {
  Map m(Small());
  BuildLayered(m);
  ASSERT_TRUE(m.debug_corrupt(Map::DebugCorruption::kOrphanFlagOnChild));
  const auto rep = m.validate_structure();
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(AuditCode::kOrphanWithParent)) << rep.to_string();
  // The legacy boolean wrapper must agree and carry the report text.
  std::string err;
  EXPECT_FALSE(m.validate(&err));
  EXPECT_NE(err.find("orphan-with-parent"), std::string::npos) << err;
}

TEST_F(FaultInjectionTest, AuditorCatchesIndexKeyMismatch) {
  Map m(Small());
  BuildLayered(m);
  ASSERT_TRUE(m.debug_corrupt(Map::DebugCorruption::kIndexKeyOffByOne));
  const auto rep = m.validate_structure();
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(AuditCode::kEntryChildMismatch) ||
              rep.has(AuditCode::kIndexKeyMissingBelow))
      << rep.to_string();
}

TEST_F(FaultInjectionTest, AuditorCatchesClearedChunk) {
  Map m(Small());
  BuildLayered(m);
  ASSERT_TRUE(m.debug_corrupt(Map::DebugCorruption::kClearNonHeadChunk));
  const auto rep = m.validate_structure();
  ASSERT_FALSE(rep.ok());
  EXPECT_TRUE(rep.has(AuditCode::kEmptyNonOrphan)) << rep.to_string();
}

TEST_F(FaultInjectionTest, AuditReportTruncatesAtCap) {
  Map m(Small());
  BuildLayered(m);
  // Stack several corruptions, then audit with a cap of 1.
  ASSERT_TRUE(m.debug_corrupt(Map::DebugCorruption::kOrphanFlagOnChild));
  ASSERT_TRUE(m.debug_corrupt(Map::DebugCorruption::kClearNonHeadChunk));
  const auto rep = m.validate_structure(/*max_violations=*/1);
  EXPECT_EQ(rep.violations.size(), 1u);
  EXPECT_TRUE(rep.truncated);
}

// A tall insert of a key present at height 0 freezes the index chunks on
// its path before it finds k in the data layer: it must thaw exactly what
// it froze, so no lock word stays frozen and k's neighbours stay writable.
TEST_F(FaultInjectionTest, TallDuplicateInsertThawsWhatItFroze) {
  Map m(Small());
  BuildLayered(m);
  const stats::Snapshot before = m.stats_registry().snapshot();
  EXPECT_FALSE(m.insert_with_height(50, 51, 2));
  const stats::Snapshot d = m.stats_registry().snapshot() - before;
  if (stats::kEnabled) {
    EXPECT_EQ(d[stats::Counter::kFreezes], 2u);
    EXPECT_EQ(d[stats::Counter::kThaws], d[stats::Counter::kFreezes]);
  }
  const auto rep = m.validate_structure();
  EXPECT_FALSE(rep.has(AuditCode::kLockedWhileQuiescent)) << rep.to_string();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  EXPECT_EQ(m.lookup(50), std::optional<std::uint64_t>(50));
  EXPECT_TRUE(m.insert_with_height(49, 49, 0));
  EXPECT_TRUE(m.insert_with_height(51, 51, 2));
  EXPECT_TRUE(m.validate_structure().ok());
}

// ---- Deterministic checkpoint-resume replay --------------------------------

// An injected freeze failure at the second freeze of a height-2 insert forces
// the retry to resume from the layer-2 checkpoint (Listing 3 line 14). The
// whole interleaving is a pure function of the schedule, so two runs must
// produce identical hit traces and identical maps.
TEST_F(FaultInjectionTest, InjectedFreezeFailureReplaysDeterministically) {
  using Snapshot = std::array<std::uint64_t,
                              static_cast<std::size_t>(Point::kCount)>;
  auto run_once = [&]() {
    FaultInjector::instance().clear();
    Map m(Small());
    for (std::uint64_t k : {10, 20, 30, 40, 50}) {
      EXPECT_TRUE(m.insert_with_height(k, k, 0));
    }
    const std::uint64_t restarts_before = Restarts(m);
    // Arm after seeding so hit #2 of kFreeze is the target insert's
    // layer-1 freeze.
    FaultInjector::instance().install(Schedule::parse("freeze@2=fail"));
    EXPECT_TRUE(m.insert_with_height(60, 60, 2));

    // freeze hits: layer2 ok, layer1 injected-fail, then after the resume
    // layer1 ok and data-layer ok.
    EXPECT_EQ(FaultInjector::instance().hits(Point::kFreeze), 4u);
    EXPECT_EQ(FaultInjector::instance().fired_count(Point::kFreeze), 1u);
    EXPECT_EQ(FaultInjector::instance().hits(Point::kResume), 1u)
        << "retry must resume from the frozen checkpoint, not from scratch";
    if (stats::kEnabled) {
      EXPECT_GE(Restarts(m), restarts_before + 1);
    }

    const Snapshot snap = FaultInjector::instance().hit_snapshot();
    std::vector<std::pair<std::uint64_t, std::uint64_t>> contents;
    m.for_each([&](std::uint64_t k, std::uint64_t v) {
      contents.emplace_back(k, v);
    });
    const auto rep = m.validate_structure();
    EXPECT_TRUE(rep.ok()) << rep.to_string();
    FaultInjector::instance().clear();
    return std::make_pair(snap, contents);
  };

  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first) << "hit trace must replay exactly";
  EXPECT_EQ(a.second, b.second);
  ASSERT_EQ(a.second.size(), 6u);
  EXPECT_EQ(a.second.back().first, 60u);
}

TEST_F(FaultInjectionTest, InjectionReportNamesFiredPoints) {
  FaultInjector::instance().install(Schedule::parse("merge@1=yield"));
  FaultInjector::instance().reached(Point::kMerge);
  const std::string rep = FaultInjector::instance().report();
  EXPECT_NE(rep.find("merge"), std::string::npos) << rep;
  EXPECT_NE(rep.find("fired=1"), std::string::npos) << rep;
}

}  // namespace
}  // namespace sv::core
