// Minimal command-line flag parsing for the example tools.
//
// Supports --key=value and --key value forms, --flag booleans, and typed
// lookups with defaults. Unknown flags are an error so typos do not
// silently fall back to defaults.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace gcube {

class CliArgs {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  CliArgs(int argc, const char* const* argv);

  /// Declares the set of accepted flag names; any other --flag given on
  /// the command line throws. Call once before the typed getters.
  void allow(const std::set<std::string>& flags);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  /// Typed getters parse the whole token and throw std::invalid_argument
  /// when any of it is left over.
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  /// A non-negative integer no larger than `max`: the getter for values
  /// stored in unsigned fields, where a negative one would wrap.
  [[nodiscard]] std::uint64_t get_uint(
      const std::string& key, std::uint64_t fallback,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key) const { return has(key); }

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace gcube
