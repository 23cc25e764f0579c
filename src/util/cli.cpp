#include "util/cli.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>
#include <system_error>

#include "util/error.hpp"

namespace gcube {

CliArgs::CliArgs(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    GCUBE_REQUIRE(!body.empty(), "bare '--' is not a flag");
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // --key value when the next token is not itself a flag; --flag
    // otherwise.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";
    }
  }
}

void CliArgs::allow(const std::set<std::string>& flags) {
  for (const auto& [key, value] : values_) {
    GCUBE_REQUIRE(flags.contains(key), "unknown flag --" + key);
  }
}

bool CliArgs::has(const std::string& key) const {
  return values_.contains(key);
}

std::string CliArgs::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

// The std::sto* parsers stop at the first character they cannot use, so
// each getter also requires that the whole token was consumed: "2e3" is
// not the integer 2 and "0.05abc" is not the number 0.05.

std::int64_t CliArgs::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const std::int64_t value = std::stoll(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
    // Not a number at all, or out of range: reported below.
  }
  throw std::invalid_argument("flag --" + key + " expects an integer, got '" +
                              it->second + "'");
}

std::uint64_t CliArgs::get_uint(const std::string& key, std::uint64_t fallback,
                                std::uint64_t max) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || stop != end || value > max) {
    const std::string range =
        max == std::numeric_limits<std::uint64_t>::max()
            ? "a non-negative integer"
            : "an integer in [0, " + std::to_string(max) + "]";
    throw std::invalid_argument("flag --" + key + " expects " + range +
                                ", got '" + text + "'");
  }
  return value;
}

double CliArgs::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used == it->second.size()) return value;
  } catch (const std::exception&) {
    // Not a number at all, or out of range: reported below.
  }
  throw std::invalid_argument("flag --" + key + " expects a number, got '" +
                              it->second + "'");
}

}  // namespace gcube
