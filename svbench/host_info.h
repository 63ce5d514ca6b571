// Host and build provenance for svbench reports, and the guard that refuses
// to produce numbers a comparison could not trust: a run whose worker
// threads plus the sampling thread do not fit on the CPUs it may use, or a
// build that is not optimized.
#pragma once

#include <sched.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "benchutil/json_report.h"
#include "common/simd.h"
#include "stats/stats.h"

namespace svbench {

struct HostInfo {
  unsigned nproc = 0;  // CPUs this process may run on, as `nproc` prints
  unsigned hardware_concurrency = 0;
  std::string cpu_model;
  std::uint64_t l2_bytes = 0;  // per core, from sysfs; 0 when unknown
  std::uint64_t l3_bytes = 0;
  double load_start[3] = {0, 0, 0};
  double load_end[3] = {0, 0, 0};
  std::string simd_tier = sv::simd::kIsaName;
  bool stats_enabled = sv::stats::kEnabled;
  std::string build_type;

  static HostInfo probe(std::string build_type) {
    HostInfo h;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      h.nproc = static_cast<unsigned>(CPU_COUNT(&set));
    }
    h.hardware_concurrency = std::thread::hardware_concurrency();
    if (h.nproc == 0) h.nproc = h.hardware_concurrency;
    h.cpu_model = cpu_model_name();
    h.l2_bytes = cache_bytes(2);
    h.l3_bytes = cache_bytes(3);
    getloadavg(h.load_start, 3);
    h.build_type = std::move(build_type);
    return h;
  }

  void note_end() { getloadavg(load_end, 3); }

  // Empty when this host and build can produce a valid run of `threads`
  // workers; otherwise the reason it cannot.
  std::string invalid_reason(unsigned threads) const {
    if (threads + 1 > nproc) {
      return std::to_string(threads) + " workers + 1 sampling thread need " +
             std::to_string(threads + 1) + " CPUs, but nproc is " +
             std::to_string(nproc);
    }
    if (build_type != "Release") {
      return "build type is '" + build_type + "', not Release";
    }
    return {};
  }

  sv::benchutil::JsonValue to_json() const {
    using sv::benchutil::JsonValue;
    const auto triple = [](const double* v) {
      JsonValue a = JsonValue::array();
      for (int i = 0; i < 3; ++i) a.push(v[i]);
      return a;
    };
    JsonValue o = JsonValue::object();
    o.set("nproc", nproc);
    o.set("hardware_concurrency", hardware_concurrency);
    o.set("cpu_model", cpu_model);
    o.set("l2_bytes", l2_bytes);
    o.set("l3_bytes", l3_bytes);
    o.set("loadavg_start", triple(load_start));
    o.set("loadavg_end", triple(load_end));
    o.set("simd_tier", simd_tier);
    o.set("sv_stats", stats_enabled);
    o.set("build_type", build_type);
    return o;
  }

 private:
  static std::string cpu_model_name() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("model name", 0) == 0) {
        const auto colon = line.find(':');
        if (colon != std::string::npos && colon + 2 <= line.size()) {
          return line.substr(colon + 2);
        }
      }
    }
    return "unknown";
  }

  // Size of the unified cache at `level` seen by CPU 0 ("2048K" in sysfs).
  static std::uint64_t cache_bytes(int level) {
    for (int idx = 0; idx < 8; ++idx) {
      const std::string dir =
          "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(idx);
      std::ifstream lv(dir + "/level");
      int l = 0;
      if (!(lv >> l)) break;
      if (l != level) continue;
      std::ifstream sz(dir + "/size");
      std::uint64_t n = 0;
      char unit = 0;
      if (!(sz >> n)) return 0;
      sz >> unit;
      if (unit == 'K') n <<= 10;
      if (unit == 'M') n <<= 20;
      return n;
    }
    return 0;
  }
};

}  // namespace svbench
