#include "core/lexicon.h"

#include <algorithm>
#include <array>
#include <bit>
#include <functional>
#include <numeric>
#include <utility>

#include "common/error.h"
#include "common/serialize.h"

namespace eppi::core {

namespace {

// An empty hash slot, or an id with no rank yet.
constexpr std::uint32_t kNone = ~std::uint32_t{0};

std::size_t common_prefix(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

std::size_t name_hash(std::string_view name) noexcept {
  return std::hash<std::string_view>{}(name);
}

// Open addressing over u32 values, kNone marking an empty slot: the
// probe for `name` starts at its hash and steps one slot at a time.
// Returns the first value `holds` accepts, or kNone at an empty slot.
template <typename Holds>
std::uint32_t probe(const std::vector<std::uint32_t>& slots,
                    std::string_view name, Holds&& holds) {
  if (slots.empty()) return kNone;
  const std::size_t mask = slots.size() - 1;
  for (std::size_t i = name_hash(name) & mask;; i = (i + 1) & mask) {
    if (slots[i] == kNone || holds(slots[i])) return slots[i];
  }
}

// Puts `value` in the first empty slot of `name`'s probe sequence.
void place(std::vector<std::uint32_t>& slots, std::string_view name,
           std::uint32_t value) {
  const std::size_t mask = slots.size() - 1;
  std::size_t i = name_hash(name) & mask;
  while (slots[i] != kNone) i = (i + 1) & mask;
  slots[i] = value;
}

}  // namespace

// The sorted, front-coded names. Immutable once built.
struct Lexicon::Base {
  // What find reads of one rank, side by side: a block's entries share
  // cache lines with each other, not with other arrays.
  struct Entry {
    std::uint32_t start;   // arena offset of the suffix
    std::uint32_t prefix;  // shared-prefix length with the previous name
    IdentityId id;
  };
  std::vector<char> arena;             // front-coded suffix bytes
  std::vector<Entry> entries;          // by rank, + one holding the end
  std::vector<std::uint32_t> rank_of;  // id → rank
  // Open addressing over ranks, at most half full; kNone is empty.
  std::vector<std::uint32_t> slots;

  std::size_t size() const noexcept { return rank_of.size(); }

  std::string_view suffix(std::size_t rank) const noexcept {
    const std::uint32_t start = entries[rank].start;
    return {arena.data() + start, entries[rank + 1].start - start};
  }

  // Whether the entry at `rank` is `name`. The suffix and the length are
  // compared first; only then is the shared prefix checked, by walking the
  // block from its restart with `matched` = how much of the name's first
  // entries[rank].prefix bytes the previous entry agrees with. An entry
  // sharing less than that with its predecessor agrees with the target
  // exactly as far as it shares; one sharing more agrees exactly as far as
  // the predecessor did; only one sharing exactly `matched` needs its
  // suffix compared.
  bool holds(std::size_t rank, std::string_view name) const noexcept {
    const std::size_t pfx = entries[rank].prefix;
    const std::string_view tail = suffix(rank);
    if (pfx + tail.size() != name.size() || tail != name.substr(pfx)) {
      return false;
    }
    const std::string_view head = name.substr(0, pfx);
    std::size_t matched = 0;
    for (std::size_t r = rank - rank % kBlock; r < rank; ++r) {
      const std::size_t p = entries[r].prefix;
      if (p < matched) {
        matched = p;
      } else if (p == matched) {
        matched += common_prefix(suffix(r), head.substr(matched));
      }
    }
    return matched == pfx;
  }

  std::optional<IdentityId> find(std::string_view name) const noexcept {
    const std::uint32_t rank = probe(
        slots, name, [&](std::uint32_t r) { return holds(r, name); });
    if (rank == kNone) return std::nullopt;
    return entries[rank].id;
  }

  std::string name_at(std::size_t rank) const {
    std::string name;
    for (std::size_t r = rank - rank % kBlock; r <= rank; ++r) {
      name.resize(entries[r].prefix);
      name.append(suffix(r));
    }
    return name;
  }

  std::size_t memory_bytes() const noexcept {
    return arena.capacity() + entries.capacity() * sizeof(Entry) +
           (rank_of.capacity() + slots.capacity()) * sizeof(std::uint32_t);
  }
};

// Front-codes names given in strictly increasing order into a base, placing
// each rank in the rank table as it goes.
class Lexicon::Builder {
 public:
  explicit Builder(std::size_t count) : count_(count) {
    require(count < kNone, "lexicon: too many owners");
    base_.entries.reserve(count + 1);
    base_.rank_of.assign(count, kNone);
    if (count > 0) base_.slots.assign(std::bit_ceil(2 * count), kNone);
  }

  void add(std::string_view name, IdentityId id) {
    const std::size_t rank = base_.entries.size();
    require(rank < count_, "lexicon: more names than announced");
    require(rank == 0 || std::string_view(prev_) < name,
            "lexicon: duplicate owner name");
    require(id < count_, "lexicon: identity id out of range");
    require(base_.rank_of[id] == kNone, "lexicon: duplicate identity id");
    base_.rank_of[id] = static_cast<std::uint32_t>(rank);
    const std::size_t pfx = rank % kBlock == 0 ? 0 : common_prefix(prev_, name);
    base_.entries.push_back({static_cast<std::uint32_t>(base_.arena.size()),
                             static_cast<std::uint32_t>(pfx), id});
    base_.arena.insert(base_.arena.end(), name.begin() + pfx, name.end());
    require(base_.arena.size() <= 0xffffffffu, "lexicon: names too large");
    place(base_.slots, name, static_cast<std::uint32_t>(rank));
    prev_.assign(name);
  }

  std::shared_ptr<const Base> finish() {
    require(base_.entries.size() == count_,
            "lexicon: fewer names than announced");
    base_.entries.push_back(
        {static_cast<std::uint32_t>(base_.arena.size()), 0, 0});
    base_.arena.shrink_to_fit();
    return std::make_shared<const Base>(std::move(base_));
  }

 private:
  std::size_t count_;
  Base base_;
  std::string prev_;
};

Lexicon::Lexicon(std::shared_ptr<const Base> base) : base_(std::move(base)) {}

Lexicon::Lexicon(std::vector<std::pair<std::string, IdentityId>> pairs) {
  std::vector<std::uint32_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return pairs[a].first < pairs[b].first;
  });
  Builder builder(pairs.size());
  for (const std::uint32_t k : order) {
    builder.add(pairs[k].first, pairs[k].second);
  }
  base_ = builder.finish();
}

std::size_t Lexicon::base_size() const noexcept {
  return base_ != nullptr ? base_->size() : 0;
}

std::string_view Lexicon::pending_name(std::size_t k) const noexcept {
  const std::uint32_t begin = k == 0 ? 0 : pending_ends_[k - 1];
  return {pending_bytes_.data() + begin, pending_ends_[k] - begin};
}

std::optional<IdentityId> Lexicon::find(std::string_view name) const {
  if (base_ != nullptr) {
    if (const auto id = base_->find(name)) return id;
  }
  const std::uint32_t k = probe(pending_slots_, name, [&](std::uint32_t j) {
    return pending_name(j) == name;
  });
  if (k == kNone) return std::nullopt;
  return static_cast<IdentityId>(base_size() + k);
}

std::string Lexicon::name_of(IdentityId id) const {
  require(id < size(), "lexicon: unknown identity id");
  if (id < base_size()) return base_->name_at(base_->rank_of[id]);
  return std::string(pending_name(id - base_size()));
}

std::size_t Lexicon::memory_bytes() const noexcept {
  return (base_ != nullptr ? base_->memory_bytes() : 0) +
         pending_bytes_.capacity() +
         (pending_ends_.capacity() + pending_slots_.capacity()) *
             sizeof(std::uint32_t);
}

std::vector<std::uint32_t> Lexicon::pending_order() const {
  const std::size_t count = pending_size();
  if (count == 0) return {};
  // The prefix every pending name shares tells no two apart, so each
  // name's key is the 8 bytes after it, big-endian and zero-padded:
  // unequal keys order two names as the names themselves do, and only
  // names whose keys tie are compared whole.
  const std::string_view first = pending_name(0);
  std::size_t shared = first.size();
  for (std::size_t k = 1; k < count && shared > 0; ++k) {
    shared = common_prefix(first.substr(0, shared), pending_name(k));
  }
  struct Keyed {
    std::uint64_t key;
    std::uint32_t k;
  };
  std::vector<Keyed> keyed(count);
  std::array<std::array<std::size_t, 256>, 8> histograms{};
  for (std::size_t k = 0; k < count; ++k) {
    const std::string_view rest = pending_name(k).substr(shared);
    std::uint64_t key = 0;
    for (std::size_t b = 0; b < 8 && b < rest.size(); ++b) {
      key |= std::uint64_t{static_cast<unsigned char>(rest[b])} << (56 - 8 * b);
    }
    keyed[k] = {key, static_cast<std::uint32_t>(k)};
    for (std::size_t b = 0; b < 8; ++b) {
      ++histograms[b][(key >> (8 * b)) & 0xff];
    }
  }
  // Sorted by key, one byte a pass from the lowest (a stable LSD radix
  // sort); a byte every key shares moves nothing and is skipped.
  std::vector<Keyed> scratch(count);
  for (std::size_t b = 0; b < 8; ++b) {
    std::array<std::size_t, 256>& start = histograms[b];
    if (start[(keyed[0].key >> (8 * b)) & 0xff] == count) continue;
    std::size_t at = 0;
    for (std::size_t& bucket : start) at += std::exchange(bucket, at);
    for (const Keyed& e : keyed) {
      scratch[start[(e.key >> (8 * b)) & 0xff]++] = e;
    }
    keyed.swap(scratch);
  }
  std::vector<std::uint32_t> order(count);
  for (std::size_t lo = 0, hi = 0; lo < count; lo = hi) {
    while (hi < count && keyed[hi].key == keyed[lo].key) ++hi;
    if (hi - lo > 1) {
      std::sort(keyed.begin() + static_cast<std::ptrdiff_t>(lo),
                keyed.begin() + static_cast<std::ptrdiff_t>(hi),
                [&](const Keyed& a, const Keyed& b) {
                  return pending_name(a.k) < pending_name(b.k);
                });
    }
    for (std::size_t k = lo; k < hi; ++k) order[k] = keyed[k].k;
  }
  return order;
}

template <typename Visit>
void Lexicon::for_each_sorted(Visit&& visit) const {
  const std::size_t n = base_size();
  const std::vector<std::uint32_t> pending = pending_order();
  std::string name;  // base entry `rank`, expanded in rank order
  std::size_t rank = 0;
  std::size_t at = 0;
  const auto expand = [&] {
    name.resize(base_->entries[rank].prefix);
    name.append(base_->suffix(rank));
  };
  if (n > 0) expand();
  while (rank < n || at < pending.size()) {
    if (at < pending.size() &&
        (rank == n || pending_name(pending[at]) < name)) {
      const std::uint32_t k = pending[at++];
      visit(pending_name(k), static_cast<IdentityId>(n + k));
    } else {
      visit(std::string_view(name), base_->entries[rank].id);
      if (++rank < n) expand();
    }
  }
}

void Lexicon::merge() {
  if (pending_size() == 0) return;
  Builder builder(size());
  for_each_sorted([&](std::string_view name, IdentityId id) {
    builder.add(name, id);
  });
  base_ = builder.finish();
  pending_bytes_ = std::vector<char>();
  pending_ends_ = std::vector<std::uint32_t>();
  pending_slots_ = std::vector<std::uint32_t>();
}

IdentityId Lexicon::insert(std::string_view name) {
  if (const auto id = find(name)) return *id;
  const auto id = static_cast<IdentityId>(size());
  require(id < kNone, "lexicon: too many owners");
  require(pending_bytes_.size() + name.size() <= 0xffffffffu,
          "lexicon: names too large");
  pending_bytes_.insert(pending_bytes_.end(), name.begin(), name.end());
  pending_ends_.push_back(static_cast<std::uint32_t>(pending_bytes_.size()));
  const std::size_t count = pending_ends_.size();
  if (2 * count > pending_slots_.size()) {
    // Regrow to a quarter full; every pending name is placed again.
    pending_slots_.assign(std::bit_ceil(4 * count), kNone);
    for (std::size_t k = 0; k < count; ++k) {
      place(pending_slots_, pending_name(k), static_cast<std::uint32_t>(k));
    }
  } else {
    place(pending_slots_, name, static_cast<std::uint32_t>(count - 1));
  }
  return id;
}

std::vector<std::uint8_t> Lexicon::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve((base_ != nullptr ? base_->arena.size() : 0) + size() * 4 + 8);
  put_varint(out, size());
  std::string prev;
  std::size_t rank = 0;
  for_each_sorted([&](std::string_view name, IdentityId id) {
    const std::size_t pfx =
        rank++ % kBlock == 0 ? 0 : common_prefix(prev, name);
    put_varint(out, pfx);
    put_varint(out, name.size() - pfx);
    out.insert(out.end(), name.begin() + static_cast<std::ptrdiff_t>(pfx),
               name.end());
    put_varint(out, id);
    prev.assign(name);
  });
  return out;
}

Lexicon Lexicon::deserialize(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const std::uint64_t count = get_varint(bytes, pos);
  if (count > bytes.size()) {
    // Each entry costs >= 3 bytes on the wire; a count past the byte count
    // is corrupt and would make the reserves below an allocation bomb.
    throw SerializeError("lexicon: implausible entry count");
  }
  try {
    Builder builder(static_cast<std::size_t>(count));
    std::string name;
    for (std::uint64_t rank = 0; rank < count; ++rank) {
      const std::uint64_t pfx = get_varint(bytes, pos);
      const std::uint64_t suffix_len = get_varint(bytes, pos);
      if (pfx > name.size()) {
        throw SerializeError("lexicon: prefix length exceeds previous name");
      }
      if (suffix_len > bytes.size() - pos) {
        throw SerializeError("lexicon: truncated name suffix");
      }
      const std::string_view suffix(
          reinterpret_cast<const char*>(bytes.data() + pos),
          static_cast<std::size_t>(suffix_len));
      pos += static_cast<std::size_t>(suffix_len);
      const std::uint64_t id = get_varint(bytes, pos);
      if (id >= count) {
        throw SerializeError("lexicon: identity id out of range");
      }
      // The name is name[0, pfx) + suffix, so it sorts after the previous
      // one exactly when the suffix sorts after what it replaces.
      if (rank > 0 &&
          !(std::string_view(name).substr(static_cast<std::size_t>(pfx)) <
            suffix)) {
        throw SerializeError("lexicon: names not strictly increasing");
      }
      name.resize(static_cast<std::size_t>(pfx));
      name.append(suffix);
      builder.add(name, static_cast<IdentityId>(id));
    }
    if (pos != bytes.size()) {
      throw SerializeError("lexicon: trailing bytes after entries");
    }
    return Lexicon(builder.finish());
  } catch (const ConfigError& e) {
    // Duplicate ids etc. — corruption from the wire's point of view.
    throw SerializeError(std::string("lexicon: ") + e.what());
  }
}

}  // namespace eppi::core
