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

  // Throw std::invalid_argument if any parsed option is not in `allowed`.
  // Opt-in so tools can reject typos (--winodw=...) with a usage error
  // instead of silently running with the default.
  void reject_unknown(std::initializer_list<std::string_view> allowed) const;

  // reject_unknown for a bench's main: reports an unknown option on stderr
  // as "<prog>: unknown option: --x" and returns false, so main can exit 2
  // (bad arguments) rather than abort on the exception.
  bool only_known(const char* prog,
                  std::initializer_list<std::string_view> allowed) const;

  static std::uint64_t parse_u64(const std::string& s);

 private:
  std::map<std::string, std::string> kv_;
  bool help_ = false;
};

}  // namespace sv::benchutil
