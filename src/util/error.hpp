// Precondition checking.
//
// Library entry points validate their arguments with GCUBE_REQUIRE, which
// throws RequirementError, a std::invalid_argument with a location-tagged
// message: callers of a routing library get diagnosable errors, not UB.
// The exception also carries the plain message on its own, which is what
// a command-line tool shows its user. Internal invariants that cannot be
// violated by any caller use assert().
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace gcube {

/// What GCUBE_REQUIRE throws. what() is "file:line: requirement failed:
/// <condition> — <message>"; message() is the message alone.
class RequirementError : public std::invalid_argument {
 public:
  RequirementError(const std::string& located, std::string message)
      : std::invalid_argument(located), message_(std::move(message)) {}

  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

 private:
  std::string message_;
};

}  // namespace gcube

namespace gcube::detail {

[[noreturn]] inline void fail_requirement(const char* expr, const char* file,
                                          int line, const std::string& msg) {
  throw RequirementError(std::string(file) + ":" + std::to_string(line) +
                             ": requirement failed: " + expr +
                             (msg.empty() ? "" : " — " + msg),
                         msg);
}

}  // namespace gcube::detail

#define GCUBE_REQUIRE(expr, msg)                                          \
  do {                                                                    \
    if (!(expr)) {                                                        \
      ::gcube::detail::fail_requirement(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                     \
  } while (false)
