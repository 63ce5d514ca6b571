#include "benchutil/options.h"

#include <cstdio>
#include <cstdlib>
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

bool Options::only_known(
    const char* prog, std::initializer_list<std::string_view> allowed) const {
  try {
    reject_unknown(allowed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", prog, e.what());
    return false;
  }
  return true;
}

std::uint64_t Options::parse_u64(const std::string& s) {
  if (s.empty()) throw std::invalid_argument("empty integer option");
  const auto caret = s.find('^');
  if (caret != std::string::npos) {
    const std::uint64_t base = std::stoull(s.substr(0, caret));
    const std::uint64_t exp = std::stoull(s.substr(caret + 1));
    std::uint64_t v = 1;
    for (std::uint64_t i = 0; i < exp; ++i) v *= base;
    return v;
  }
  std::size_t pos = 0;
  std::uint64_t v = std::stoull(s, &pos);
  if (pos < s.size()) {
    switch (s[pos]) {
      case 'k': case 'K': v <<= 10; break;
      case 'm': case 'M': v <<= 20; break;
      case 'g': case 'G': v <<= 30; break;
      default:
        throw std::invalid_argument("bad integer suffix in: " + s);
    }
  }
  return v;
}

std::uint64_t Options::u64(const std::string& name, std::uint64_t def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : parse_u64(it->second);
}

double Options::f64(const std::string& name, double def) const {
  auto it = kv_.find(name);
  return it == kv_.end() ? def : std::stod(it->second);
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

}  // namespace sv::benchutil
