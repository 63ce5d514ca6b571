#include "benchutil/options.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

namespace sv::benchutil {

Options::Options(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unrecognized argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_[arg] = "1";  // bare flag
    } else {
      kv_[arg.substr(0, eq)] = arg.substr(eq + 1);
    }
  }
}

void Options::reject_unknown(
    std::initializer_list<std::string_view> allowed) const {
  for (const auto& [key, value] : kv_) {
    bool known = false;
    for (std::string_view a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) throw std::invalid_argument("unknown option: --" + key);
  }
}

int bench_main(const char* prog, int argc, char** argv,
               int (*body)(const Options&)) {
  try {
    const Options opt(argc, argv);
    return body(opt);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
  }
  return 2;
}

namespace {

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

// std::stoull and std::stod name only themselves in what(); rethrow with
// the offending text, keeping the exception type.
template <class Parse>
auto number(const std::string& s, Parse parse) {
  try {
    return parse();
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument("not a number: " + s);
  } catch (const std::out_of_range&) {
    throw std::out_of_range("out of range: " + s);
  }
}

unsigned thread_count(std::uint64_t v) {
  if (v == 0 || v > std::numeric_limits<unsigned>::max()) {
    throw std::invalid_argument("bad thread count: " + std::to_string(v));
  }
  return static_cast<unsigned>(v);
}

}  // namespace

std::uint64_t Options::parse_u64(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("empty integer option");
  const auto caret = s.find('^');
  if (caret != std::string::npos) {
    const std::uint64_t base =
        number(s, [&] { return std::stoull(s.substr(0, caret)); });
    const std::uint64_t exp =
        number(s, [&] { return std::stoull(s.substr(caret + 1)); });
    if (base < 2) return exp == 0 ? 1 : base;
    std::uint64_t v = 1;
    for (std::uint64_t i = 0; i < exp; ++i) {
      if (v > kMax / base) throw std::out_of_range("out of range: " + s);
      v *= base;
    }
    return v;
  }
  std::size_t pos = 0;
  const std::uint64_t v = number(s, [&] { return std::stoull(s, &pos); });
  if (pos == s.size()) return v;
  int shift = 0;
  switch (s[pos]) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    default:
      throw std::invalid_argument("bad integer suffix in: " + s);
  }
  if (v > kMax >> shift) throw std::out_of_range("out of range: " + s);
  return v << shift;
}

std::uint64_t Options::u64(const std::string& name, std::uint64_t def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : parse_u64(it->second);
}

double Options::f64(const std::string& name, double def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  const std::string& s = it->second;
  std::size_t pos = 0;
  const double v = number(s, [&] { return std::stod(s, &pos); });
  if (pos < s.size()) throw std::invalid_argument("not a number: " + s);
  return v;
}

std::string Options::str(const std::string& name,
                         const std::string& def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : it->second;
}

bool Options::flag(const std::string& name) const {
  auto it = kv_.find(name);
  return it != kv_.end() && it->second != "0" && it->second != "false";
}

std::vector<std::uint64_t> Options::u64_list(
    const std::string& name, std::vector<std::uint64_t> def) const {
  auto it = kv_.find(name);
  if (it == kv_.end()) return def;
  std::vector<std::uint64_t> out;
  std::string s = it->second;
  std::size_t start = 0;
  while (start <= s.size()) {
    const auto comma = s.find(',', start);
    const std::string tok = s.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!tok.empty()) out.push_back(parse_u64(tok));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

unsigned Options::threads(unsigned def) const {
  return thread_count(u64("threads", def));
}

std::vector<unsigned> Options::threads_list(std::vector<unsigned> def) const {
  if (kv_.find("threads") == kv_.end()) return def;
  std::vector<unsigned> out;
  for (const std::uint64_t v : u64_list("threads", {})) {
    out.push_back(thread_count(v));
  }
  if (out.empty()) throw std::invalid_argument("no thread count in --threads");
  return out;
}

}  // namespace sv::benchutil
