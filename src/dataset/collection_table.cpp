#include "dataset/collection_table.h"

#include <algorithm>
#include <istream>
#include <ostream>

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

// The CSV's names and facts, facts in file order (duplicates kept).
CollectionFacts parse_collection(std::istream& in) {
  std::unordered_map<std::string, std::uint32_t> provider_ids;
  std::unordered_map<std::string, std::uint32_t> identity_ids;
  CollectionFacts out;

  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos || comma == 0 || comma + 1 >= line.size()) {
      throw SerializeError("collection table: malformed line " +
                           std::to_string(line_no));
    }
    const std::string provider = line.substr(0, comma);
    const std::string identity = line.substr(comma + 1);
    const auto [pit, p_new] = provider_ids.try_emplace(
        provider, static_cast<std::uint32_t>(provider_ids.size()));
    if (p_new) out.provider_names.push_back(provider);
    const auto [iit, i_new] = identity_ids.try_emplace(
        identity, static_cast<std::uint32_t>(identity_ids.size()));
    if (i_new) out.identity_names.push_back(identity);
    out.facts.push_back({pit->second, iit->second});
  }
  return out;
}

}  // namespace

CollectionFacts load_collection_facts(std::istream& in) {
  CollectionFacts out = parse_collection(in);
  // Two stable counting passes (identity, then provider) leave the facts
  // provider-major with identities ascending; duplicates end up adjacent.
  std::vector<CollectionFacts::Fact> by_identity;
  counting_sort(out.facts, by_identity, out.identity_names.size(),
                [](const CollectionFacts::Fact& f) { return f.identity; });
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
