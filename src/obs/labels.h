// Fixed-capacity label sets for metrics registry instruments.
//
// Labels distinguish instances of the same metric name (e.g. one
// `instance` per LocatorService, or a per-party counter). They are
// consulted only at registration time — the hot path holds a Counter&
// and never touches labels again — so plain std::string storage is fine;
// the fixed capacity exists to keep cardinality honest, not for speed.
#pragma once

#include <array>
#include <cstddef>
#include <string>
#include <string_view>

namespace eppi::obs {

struct Label {
  std::string key;
  std::string value;
};

class Labels {
 public:
  // Deliberately tiny: a metric needing more than four dimensions is a
  // metric that should be split.
  static constexpr std::size_t kMax = 4;

  Labels() = default;
  Labels(std::initializer_list<Label> init) {
    for (const Label& l : init) add(l.key, l.value);
  }

  // Appends a label; excess labels past kMax are ignored (the registry is
  // diagnostics, never control flow — silently capping beats throwing from
  // instrumentation).
  Labels& add(std::string_view key, std::string_view value) {
    if (size_ < kMax) {
      labels_[size_].key = std::string(key);
      labels_[size_].value = std::string(value);
      ++size_;
    }
    return *this;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Label& operator[](std::size_t i) const { return labels_[i]; }

  friend bool operator==(const Labels& a, const Labels& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.labels_[i].key != b.labels_[i].key ||
          a.labels_[i].value != b.labels_[i].value) {
        return false;
      }
    }
    return true;
  }

 private:
  std::array<Label, kMax> labels_{};
  std::size_t size_ = 0;
};

}  // namespace eppi::obs
