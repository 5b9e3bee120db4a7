#include "dataset/collection_table.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <istream>
#include <ostream>
#include <string_view>

#include "common/error.h"

namespace eppi::dataset {

namespace {

// Stable counting sort of `from` into `to` by key(fact) < buckets.
template <typename Key>
void counting_sort(const std::vector<CollectionFacts::Fact>& from,
                   std::vector<CollectionFacts::Fact>& to, std::size_t buckets,
                   Key key) {
  std::vector<std::size_t> start(buckets + 1, 0);
  for (const auto& f : from) ++start[key(f) + 1];
  for (std::size_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
  to.resize(from.size());
  for (const auto& f : from) to[start[key(f)]++] = f;
}

// Names interned to ids in order of first appearance. A line usually
// repeats the previous line's name in a field (the files are grouped by one
// of the two), so that case is one comparison. Any other name is one
// lookup by string_view in an open-addressing table of ids, whose keys are
// the names themselves; only a new name is copied, once.
class Interner {
 public:
  explicit Interner(std::vector<std::string>& names)
      : names_(names), slots_(1024, 0) {}

  std::uint32_t id(std::string_view name) {
    if (last_ < names_.size() && names_[last_] == name) return last_;
    const std::size_t hash = std::hash<std::string_view>{}(name);
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask; slots_[i] != 0; i = (i + 1) & mask) {
      if (names_[slots_[i] - 1] == name) return last_ = slots_[i] - 1;
    }
    last_ = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    if (2 * names_.size() > slots_.size()) {
      slots_.assign(2 * slots_.size(), 0);
      for (std::uint32_t id = 0; id < names_.size(); ++id) {
        place(std::hash<std::string_view>{}(names_[id]), id);
      }
    } else {
      place(hash, last_);
    }
    return last_;
  }

 private:
  void place(std::size_t hash, std::uint32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = id + 1;
  }

  std::vector<std::string>& names_;
  std::vector<std::uint32_t> slots_;  // id + 1; 0 is empty; at most half full
  std::uint32_t last_ = ~std::uint32_t{0};
};

// Bytes read from the stream at a time. A line longer than the buffer
// doubles it.
constexpr std::size_t kReadBlock = std::size_t{1} << 20;

// The CSV's names and facts, facts in file order (duplicates kept).
CollectionFacts parse_collection(std::istream& in) {
  CollectionFacts out;
  Interner providers(out.provider_names);
  Interner identities(out.identity_names);
  std::size_t line_no = 0;
  const auto parse_line = [&](std::string_view line) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty() || line[0] == '#') return;
    const auto comma = line.find(',');
    if (comma == std::string_view::npos || comma == 0 ||
        comma + 1 >= line.size()) {
      throw SerializeError("collection table: malformed line " +
                           std::to_string(line_no));
    }
    const std::uint32_t p = providers.id(line.substr(0, comma));
    out.facts.push_back({p, identities.id(line.substr(comma + 1))});
  };

  // Whole lines are parsed out of each block; the unfinished last line is
  // moved to the front and completed by the next read.
  std::vector<char> buf(kReadBlock);
  std::size_t have = 0;
  for (;;) {
    if (have == buf.size()) buf.resize(2 * buf.size());
    in.read(buf.data() + have, static_cast<std::streamsize>(buf.size() - have));
    have += static_cast<std::size_t>(in.gcount());
    const bool last = !in;
    const char* data = buf.data();
    std::size_t pos = 0;
    while (const void* nl = std::memchr(data + pos, '\n', have - pos)) {
      const auto end = static_cast<std::size_t>(static_cast<const char*>(nl) -
                                                data);
      parse_line(std::string_view(data + pos, end - pos));
      pos = end + 1;
    }
    if (last) {
      if (pos < have) parse_line(std::string_view(data + pos, have - pos));
      return out;
    }
    std::memmove(buf.data(), data + pos, have - pos);
    have -= pos;
  }
}

}  // namespace

CollectionFacts load_collection_facts(std::istream& in) {
  CollectionFacts out = parse_collection(in);
  // Two stable counting passes (identity, then provider) leave the facts
  // provider-major with identities ascending; duplicates end up adjacent.
  // A file grouped by identity is in identity order already, and the
  // first pass is skipped.
  const auto by_identity_key = [](const CollectionFacts::Fact& f) {
    return f.identity;
  };
  std::vector<CollectionFacts::Fact> by_identity;
  if (std::ranges::is_sorted(out.facts, {}, by_identity_key)) {
    by_identity.swap(out.facts);
  } else {
    counting_sort(out.facts, by_identity, out.identity_names.size(),
                  by_identity_key);
  }
  counting_sort(by_identity, out.facts, out.provider_names.size(),
                [](const CollectionFacts::Fact& f) { return f.provider; });
  out.facts.erase(std::unique(out.facts.begin(), out.facts.end()),
                  out.facts.end());
  return out;
}

CollectionTable load_collection_table(std::istream& in) {
  CollectionFacts parsed = parse_collection(in);
  CollectionTable table;
  table.network.membership =
      BitMatrix(parsed.provider_names.size(), parsed.identity_names.size());
  for (const auto& f : parsed.facts) {
    table.network.membership.set(f.provider, f.identity, true);
  }
  table.provider_names = std::move(parsed.provider_names);
  table.identity_names = std::move(parsed.identity_names);
  return table;
}

void save_collection_table(std::ostream& out, const Network& network,
                           const std::vector<std::string>& provider_names,
                           const std::vector<std::string>& identity_names) {
  const auto synth_name = [](char prefix, std::size_t index) {
    std::string name(1, prefix);
    name += std::to_string(index);
    return name;
  };
  const auto provider_name = [&](std::size_t i) {
    return i < provider_names.size() ? provider_names[i] : synth_name('p', i);
  };
  const auto identity_name = [&](std::size_t j) {
    return j < identity_names.size() ? identity_names[j] : synth_name('t', j);
  };
  for (std::size_t i = 0; i < network.providers(); ++i) {
    for (std::size_t j = 0; j < network.identities(); ++j) {
      if (network.membership.get(i, j)) {
        out << provider_name(i) << ',' << identity_name(j) << '\n';
      }
    }
  }
}

}  // namespace eppi::dataset
