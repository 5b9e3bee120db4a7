// Error types shared across the eppi libraries.
//
// We follow the C++ Core Guidelines (E.14): use purpose-designed exception
// types derived from std::exception. Protocol code throws ProtocolError for
// violations of a distributed protocol's contract (malformed message, wrong
// round, missing share); ConfigError for invalid user-supplied parameters.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace eppi {

// Invalid user-supplied parameter (epsilon out of range, c < 2, ...).
class ConfigError : public std::invalid_argument {
 public:
  explicit ConfigError(const std::string& what) : std::invalid_argument(what) {}
};

// A distributed protocol's contract was violated at runtime.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

// A peer stopped responding (crash, partition, or message loss past the
// delivery deadline). Derives from ProtocolError so existing catch sites and
// tests that treat any protocol failure uniformly keep working; fault-aware
// callers (dropout recovery, EpochManager degradation) catch PartyFailure
// specifically and can ask which party went silent.
class PartyFailure : public ProtocolError {
 public:
  static constexpr std::uint32_t kUnknownParty = 0xffffffffu;

  explicit PartyFailure(const std::string& what,
                        std::uint32_t party = kUnknownParty)
      : ProtocolError(what), party_(party) {}

  // The party believed to have failed; kUnknownParty when the failure could
  // not be attributed (e.g. a missed broadcast with several candidates).
  std::uint32_t party() const noexcept { return party_; }

 private:
  std::uint32_t party_;
};

// Malformed serialized data.
class SerializeError : public std::runtime_error {
 public:
  explicit SerializeError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void throw_config(const std::string& what) {
  throw ConfigError(what);
}
}  // namespace detail

// Validate a configuration precondition; throws ConfigError on failure.
inline void require(bool cond, const std::string& what) {
  if (!cond) detail::throw_config(what);
}

// Literal messages build no string unless the check fails (hot paths call
// require per identity).
inline void require(bool cond, const char* what) {
  if (!cond) detail::throw_config(what);
}

}  // namespace eppi
