// Owner-name → identity-id lexicon: the serving tier's only owner catalog.
//
// The names live in two parts:
//
//   * the base — every name sorted and front-coded (each name keeps only
//     the suffix after its common prefix with the previous one) in a single
//     arena, with a full restart name every kBlock entries: the classic
//     term-dictionary layout (PISA/Lucene lexicons). It is immutable and
//     held by shared_ptr, so a copy (a snapshot's) shares it. `find` goes
//     through an open-addressing table of u32 ranks, built with the base
//     and never serialized; a candidate rank is checked against the target
//     by walking the front coding from its block's restart, without
//     building the name.
//   * the pending names — those inserted since the last merge, in id order
//     with their own small hash table. New names get the ids size(),
//     size() + 1, ...; merge() folds them into a new base (one sort of the
//     pending names, one linear merge with the base).
//
// Ids are NOT required to arrive in name order — registration order
// assigns ids, names sort differently — so the base keeps rank→id (for
// find) and id→rank (for name_of). Serialization writes the merged form:
// the varint count, then per name-sorted entry varint prefix_len /
// varint suffix_len / suffix bytes / varint id; the bytes do not depend on
// which names are still pending. A serialized lexicon's id set is exactly
// {0..count-1} and its names are strictly sorted; `fsck_index_file`
// re-checks both on load.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/ppi_index.h"

namespace eppi::core {

class Lexicon {
 public:
  // Builds a base from (name, id) pairs; names must be unique, ids must be
  // a permutation of [0, pairs.size()). Throws ConfigError otherwise.
  explicit Lexicon(std::vector<std::pair<std::string, IdentityId>> pairs);

  Lexicon() = default;

  std::size_t size() const noexcept { return base_size() + pending_size(); }
  bool empty() const noexcept { return size() == 0; }
  // Names inserted since the last merge.
  std::size_t pending_size() const noexcept { return pending_ends_.size(); }

  // Name → id, or nullopt if absent: one hashed probe sequence in the base,
  // then one in the pending names.
  std::optional<IdentityId> find(std::string_view name) const;

  // Id → name; throws ConfigError for an id not in the lexicon.
  std::string name_of(IdentityId id) const;

  // Heap bytes held: the base's arena, tables and rank table, plus the
  // pending names and their table. The honest footprint counterpart to
  // PostingIndex::memory_footprint().
  std::size_t memory_bytes() const noexcept;

  // The merged wire form (see the file comment).
  std::vector<std::uint8_t> serialize() const;

  // Parses and validates (names strictly increasing, ids a dense
  // permutation) into a base. Throws SerializeError on malformed input.
  static Lexicon deserialize(std::span<const std::uint8_t> bytes);

  // --- writer side ----------------------------------------------------------
  // The id of `name`: a known name keeps its id, a new one gets size() and
  // joins the pending names.
  IdentityId insert(std::string_view name);

  // Folds the pending names into a new base that re-front-codes every name
  // and rebuilds the rank table. No-op with nothing pending.
  void merge();

  static constexpr std::size_t kBlock = 16;

 private:
  struct Base;
  class Builder;

  explicit Lexicon(std::shared_ptr<const Base> base);
  std::size_t base_size() const noexcept;
  std::string_view pending_name(std::size_t k) const noexcept;
  // The pending names' ks in name order.
  std::vector<std::uint32_t> pending_order() const;
  // Calls visit(name, id) for every entry in name order, base and pending
  // names interleaved.
  template <typename Visit>
  void for_each_sorted(Visit&& visit) const;

  std::shared_ptr<const Base> base_;
  // Pending name k (id base_size() + k) is pending_bytes_ from
  // pending_ends_[k - 1] (0 for k = 0) to pending_ends_[k]; pending_slots_
  // holds the ks, open addressing at most half full.
  std::vector<char> pending_bytes_;
  std::vector<std::uint32_t> pending_ends_;
  std::vector<std::uint32_t> pending_slots_;
};

}  // namespace eppi::core
