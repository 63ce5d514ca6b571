// Minimal --key=value command-line option parsing for the benchmark
// binaries. Supports integer suffixes K/M/G and power-of-two notation
// "2^20" so paper-scale parameters are easy to type.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace sv::benchutil {

class Options {
 public:
  Options(int argc, char** argv);

  bool help_requested() const noexcept { return help_; }

  std::uint64_t u64(const std::string& name, std::uint64_t def) const;
  double f64(const std::string& name, double def) const;
  std::string str(const std::string& name, const std::string& def) const;
  bool flag(const std::string& name) const;

  // Comma-separated list of u64 (e.g. --threads=1,2,4,8).
  std::vector<std::uint64_t> u64_list(const std::string& name,
                                      std::vector<std::uint64_t> def) const;

  // --threads as one thread count / a comma-separated sweep of them. Every
  // count must be at least 1 and fit `unsigned` (and a sweep must name at
  // least one), else std::invalid_argument: a bench exits 2 before it
  // starts a thread instead of running none or wrapping 2^32 to 0.
  unsigned threads(unsigned def) const;
  std::vector<unsigned> threads_list(std::vector<unsigned> def) const;

  // Throw std::invalid_argument if any parsed option is not in `allowed`.
  // Opt-in so tools can reject typos (--winodw=...) with a usage error
  // instead of silently running with the default.
  void reject_unknown(std::initializer_list<std::string_view> allowed) const;

  static std::uint64_t parse_u64(const std::string& s);

 private:
  std::map<std::string, std::string> kv_;
  bool help_ = false;
};

// The main of every bench binary that takes Options: parses argv and runs
// `body`. A malformed command line -- a positional argument, an unknown
// option, a value that does not parse or is out of range -- makes Options
// throw std::invalid_argument or std::out_of_range; bench_main reports it
// on stderr as "<prog>: <what>" and returns 2 instead of aborting.
int bench_main(const char* prog, int argc, char** argv,
               int (*body)(const Options&));

}  // namespace sv::benchutil
