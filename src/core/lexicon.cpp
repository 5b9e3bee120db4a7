#include "core/lexicon.h"

#include <algorithm>

#include "common/error.h"

namespace eppi::core {

namespace {

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(std::span<const std::uint8_t> bytes,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  for (;;) {
    if (pos >= bytes.size()) {
      throw SerializeError("lexicon: truncated varint");
    }
    const std::uint8_t b = bytes[pos++];
    if (shift >= 64 || (shift == 63 && (b & 0x7E) != 0)) {
      throw SerializeError("lexicon: varint overflows 64 bits");
    }
    v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

std::size_t common_prefix(std::string_view a, std::string_view b) noexcept {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Lexicon::Lexicon(std::vector<std::pair<std::string, IdentityId>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  const std::size_t n = pairs.size();
  require(n <= 0xffffffffu, "lexicon: too many owners");
  starts_.reserve(n);
  prefix_.reserve(n);
  ids_.reserve(n);
  rank_of_.assign(n, 0xffffffffu);
  std::string_view prev;
  for (std::size_t rank = 0; rank < n; ++rank) {
    const auto& [name, id] = pairs[rank];
    require(rank == 0 || prev < name, "lexicon: duplicate owner name");
    require(id < n, "lexicon: identity id out of range");
    require(rank_of_[id] == 0xffffffffu, "lexicon: duplicate identity id");
    rank_of_[id] = static_cast<std::uint32_t>(rank);
    const std::size_t pfx =
        rank % kBlock == 0 ? 0 : common_prefix(prev, name);
    starts_.push_back(static_cast<std::uint32_t>(arena_.size()));
    prefix_.push_back(static_cast<std::uint32_t>(pfx));
    arena_.insert(arena_.end(), name.begin() + pfx, name.end());
    ids_.push_back(id);
    prev = name;
  }
  arena_.shrink_to_fit();
}

void Lexicon::expand(std::size_t rank, std::string& scratch) const {
  const std::size_t end =
      rank + 1 < starts_.size() ? starts_[rank + 1] : arena_.size();
  scratch.resize(prefix_[rank]);
  scratch.append(arena_.data() + starts_[rank], end - starts_[rank]);
}

std::optional<IdentityId> Lexicon::find(std::string_view name) const {
  if (ids_.empty()) return std::nullopt;
  // Binary search over restart entries (full names, prefix 0) for the last
  // restart whose name <= target.
  const std::size_t restarts = (ids_.size() + kBlock - 1) / kBlock;
  std::size_t lo = 0, hi = restarts;  // invariant: name(restart lo*kBlock) <= target or lo == 0
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::size_t rank = mid * kBlock;
    const std::size_t end =
        rank + 1 < starts_.size() ? starts_[rank + 1] : arena_.size();
    const std::string_view restart(arena_.data() + starts_[rank],
                                   end - starts_[rank]);
    if (restart <= name) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  // Scan the block in place. `matched` is how much of the target the
  // previous entry agreed with. An entry sharing less than that with its
  // predecessor is past the target (it differs from the predecessor, hence
  // from the target, upward at that byte); one sharing more still trails
  // it; only an entry sharing exactly `matched` needs its suffix compared.
  const std::size_t first = lo * kBlock;
  const std::size_t last = std::min(first + kBlock, ids_.size());
  std::size_t matched = 0;
  for (std::size_t rank = first; rank < last; ++rank) {
    const std::size_t pfx = prefix_[rank];
    if (pfx < matched) break;
    if (pfx > matched) continue;
    const std::size_t end =
        rank + 1 < starts_.size() ? starts_[rank + 1] : arena_.size();
    const std::string_view suffix(arena_.data() + starts_[rank],
                                  end - starts_[rank]);
    const std::string_view rest = name.substr(matched);
    const std::size_t common = common_prefix(suffix, rest);
    if (common == suffix.size()) {
      if (common == rest.size()) return ids_[rank];
      // The entry is a proper prefix of the target, so below it.
    } else if (common == rest.size() ||
               static_cast<unsigned char>(suffix[common]) >
                   static_cast<unsigned char>(rest[common])) {
      break;  // the entry sorts after the target
    }
    matched += common;
  }
  return std::nullopt;
}

std::string Lexicon::name_of(IdentityId id) const {
  require(id < ids_.size(), "lexicon: unknown identity id");
  const std::size_t rank = rank_of_[id];
  std::string scratch;
  for (std::size_t r = rank - rank % kBlock; r <= rank; ++r) {
    expand(r, scratch);
  }
  return scratch;
}

std::vector<std::pair<std::string, IdentityId>> Lexicon::entries() const {
  std::vector<std::pair<std::string, IdentityId>> out;
  out.reserve(ids_.size());
  std::string scratch;
  for (std::size_t rank = 0; rank < ids_.size(); ++rank) {
    expand(rank, scratch);
    out.emplace_back(scratch, ids_[rank]);
  }
  return out;
}

std::size_t Lexicon::memory_bytes() const noexcept {
  return arena_.capacity() * sizeof(char) +
         starts_.capacity() * sizeof(std::uint32_t) +
         prefix_.capacity() * sizeof(std::uint32_t) +
         ids_.capacity() * sizeof(IdentityId) +
         rank_of_.capacity() * sizeof(std::uint32_t);
}

std::vector<std::uint8_t> Lexicon::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(arena_.size() + ids_.size() * 4 + 8);
  put_varint(out, ids_.size());
  for (std::size_t rank = 0; rank < ids_.size(); ++rank) {
    const std::size_t end =
        rank + 1 < starts_.size() ? starts_[rank + 1] : arena_.size();
    put_varint(out, prefix_[rank]);
    put_varint(out, end - starts_[rank]);
    out.insert(out.end(), arena_.data() + starts_[rank],
               arena_.data() + end);
    put_varint(out, ids_[rank]);
  }
  return out;
}

Lexicon Lexicon::deserialize(std::span<const std::uint8_t> bytes) {
  std::size_t pos = 0;
  const std::uint64_t count = get_varint(bytes, pos);
  if (count > bytes.size()) {
    // Each entry costs >= 3 bytes on the wire; a count past the byte count
    // is corrupt and would make the reserve below an allocation bomb.
    throw SerializeError("lexicon: implausible entry count");
  }
  std::vector<std::pair<std::string, IdentityId>> pairs;
  pairs.reserve(static_cast<std::size_t>(count));
  std::string prev;
  for (std::uint64_t rank = 0; rank < count; ++rank) {
    const std::uint64_t pfx = get_varint(bytes, pos);
    const std::uint64_t suffix_len = get_varint(bytes, pos);
    if (pfx > prev.size()) {
      throw SerializeError("lexicon: prefix length exceeds previous name");
    }
    if (suffix_len > bytes.size() - pos) {
      throw SerializeError("lexicon: truncated name suffix");
    }
    std::string name = prev.substr(0, static_cast<std::size_t>(pfx));
    name.append(reinterpret_cast<const char*>(bytes.data() + pos),
                static_cast<std::size_t>(suffix_len));
    pos += static_cast<std::size_t>(suffix_len);
    const std::uint64_t id = get_varint(bytes, pos);
    if (id >= count) {
      throw SerializeError("lexicon: identity id out of range");
    }
    if (rank > 0 && !(prev < name)) {
      throw SerializeError("lexicon: names not strictly increasing");
    }
    pairs.emplace_back(name, static_cast<IdentityId>(id));
    prev = std::move(name);
  }
  if (pos != bytes.size()) {
    throw SerializeError("lexicon: trailing bytes after entries");
  }
  try {
    return Lexicon(std::move(pairs));
  } catch (const ConfigError& e) {
    // Duplicate ids etc. — corruption from the wire's point of view.
    throw SerializeError(std::string("lexicon: ") + e.what());
  }
}

}  // namespace eppi::core
