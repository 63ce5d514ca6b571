// Proves each svbench correctness oracle can fire: every check gets one
// correct input, which must pass, and deliberately wrong ones, which must
// fail. A check that cannot fail would let a broken map report numbers.
// (The structural audit svbench also runs, validate_structure(), has its
// own negative tests in the repository's fault-injection suite.)
#include <cstdio>
#include <initializer_list>

#include "core/skip_vector.h"
#include "oracles.h"
#include "txn/txn.h"

namespace {

using Map = sv::core::SkipVector<std::uint64_t, std::uint64_t>;
using svbench::value_of;

int g_failures = 0;

void expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

svbench::ScanCheck scan_of(std::initializer_list<std::uint64_t> keys) {
  svbench::ScanCheck c(10, 20);
  for (std::uint64_t k : keys) c(k, value_of(k));
  return c;
}

void scan_checks() {
  const svbench::ScanCheck good = scan_of({10, 15, 20});
  expect(good.ok() && good.keys() == 3, "ascending in-range scan passes");
  expect(!scan_of({15, 12}).ok(), "scan with an out-of-order key fails");
  expect(!scan_of({12, 12}).ok(), "scan with a repeated key fails");
  expect(!scan_of({9, 12}).ok(), "scan with a key below lo fails");
  expect(!scan_of({12, 21}).ok(), "scan with a key above hi fails");
  svbench::ScanCheck bad_value(10, 20);
  bad_value(12, value_of(12) + 1);
  expect(!bad_value.ok(), "scan with a wrong value fails");
}

void population_checks() {
  Map m(sv::core::Config::for_elements(1024));
  for (std::uint64_t k = 0; k < 110; ++k) m.insert(k, value_of(k));
  for (std::uint64_t k = 0; k < 5; ++k) m.remove(k);
  // Prefill 100, then 10 inserts and 5 removes that reported success.
  expect(svbench::population_ok(100, 10, 5, svbench::summarize(m)),
         "reconciled population passes");
  expect(!svbench::population_ok(100, 10, 4, svbench::summarize(m)),
         "population with an uncounted remove fails");
  m.update(50, value_of(50) ^ 1);
  expect(!svbench::population_ok(100, 10, 5, svbench::summarize(m)),
         "population with a wrong stored value fails");
}

void increment_checks() {
  constexpr std::uint64_t kRows = 64;
  Map m(sv::core::Config::for_elements(kRows));
  for (std::uint64_t k = 0; k < kRows; ++k) m.insert(k, 0);
  std::uint64_t committed = 0;
  for (int round = 0; round < 2; ++round) {
    sv::txn::Txn<Map> t(m);
    for (std::uint64_t k : {1, 7, 9}) t.put(k, *t.get(k) + 1);
    if (t.commit() == sv::txn::TxnResult::kCommitted) committed += 3;
  }
  expect(committed == 6 &&
             svbench::increments_ok(kRows, committed, svbench::summarize(m)),
         "row sum equal to committed increments passes");
  m.update(7, *m.lookup(7) + 1);  // an increment no transaction counted
  expect(!svbench::increments_ok(kRows, committed, svbench::summarize(m)),
         "row sum with one uncounted increment fails");
}

}  // namespace

int main() {
  scan_checks();
  population_checks();
  increment_checks();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
