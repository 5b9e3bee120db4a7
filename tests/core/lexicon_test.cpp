// Lexicon::find against a std::map built from the same names.
//
// find scans a front-coded block in place, comparing only the suffix bytes
// of entries whose shared prefix equals how much of the target the previous
// entry matched. The probes here cover every way that scan can go wrong:
// present names, absent names that sort between neighbours, proper
// prefixes and extensions of present names, names around the restart
// boundaries (every Lexicon::kBlock-th entry is stored whole), bytes above
// 0x7f (ordering is by unsigned byte, as std::string's), and the empty name.

#include "core/lexicon.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"

namespace eppi::core {
namespace {

// Names over a small alphabet so neighbours share long prefixes.
std::set<std::string> random_names(eppi::Rng& rng, std::size_t count) {
  static const std::string kAlphabet = std::string("ab.z") + '\x7f' + '\x80' +
                                       '\xff';
  std::set<std::string> names;
  while (names.size() < count) {
    std::string name;
    const std::size_t len = 1 + rng.next_below(9);
    for (std::size_t k = 0; k < len; ++k) {
      name.push_back(kAlphabet[rng.next_below(kAlphabet.size())]);
    }
    names.insert(name);
  }
  return names;
}

// Every probe worth asking about the sorted `names`.
std::vector<std::string> probes_for(const std::vector<std::string>& names) {
  std::vector<std::string> probes = {"", std::string(10, '\xff'),
                                     std::string(1, '\0')};
  for (const std::string& name : names) {
    probes.push_back(name);
    for (std::size_t len = 0; len < name.size(); ++len) {
      probes.push_back(name.substr(0, len));  // proper prefixes
    }
    probes.push_back(name + '\0');  // extensions
    probes.push_back(name + 'a');
    probes.push_back(name + '\xff');
    if (name.empty()) continue;
    std::string up = name;  // between this entry and the next
    up.back() = static_cast<char>(static_cast<unsigned char>(up.back()) + 1);
    probes.push_back(up);
    std::string down = name;  // between the previous entry and this one
    down.back() = static_cast<char>(static_cast<unsigned char>(down.back()) - 1);
    probes.push_back(down);
    down.push_back('\xff');
    probes.push_back(down);
  }
  return probes;
}

void expect_matches_map(const std::vector<std::string>& names) {
  std::vector<std::pair<std::string, IdentityId>> pairs;
  std::map<std::string, IdentityId> oracle;
  // Ids in reverse name order: find must return the id, not the rank.
  for (std::size_t k = 0; k < names.size(); ++k) {
    const auto id = static_cast<IdentityId>(names.size() - 1 - k);
    pairs.emplace_back(names[k], id);
    oracle.emplace(names[k], id);
  }
  const Lexicon lexicon(pairs);
  for (const std::string& probe : probes_for(names)) {
    const auto it = oracle.find(probe);
    const std::optional<IdentityId> got = lexicon.find(probe);
    if (it == oracle.end()) {
      EXPECT_FALSE(got.has_value()) << "absent probe found, size "
                                    << probe.size();
    } else {
      ASSERT_TRUE(got.has_value()) << "present probe missed, size "
                                   << probe.size();
      EXPECT_EQ(*got, it->second);
    }
  }
}

TEST(LexiconTest, FindMatchesAMapOnRandomFrontCodedNames) {
  eppi::Rng rng(21);
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{2}, Lexicon::kBlock - 1, Lexicon::kBlock,
        Lexicon::kBlock + 1, std::size_t{5} * Lexicon::kBlock,
        std::size_t{700}}) {
    const std::set<std::string> names = random_names(rng, count);
    expect_matches_map(std::vector<std::string>(names.begin(), names.end()));
  }
}

// Chains of prefixes: every entry extends the one before it, across block
// boundaries, so the scan's shared-prefix lengths only grow and then fall.
TEST(LexiconTest, FindMatchesAMapOnPrefixChains) {
  std::set<std::string> names = {""};
  std::string chain;
  for (std::size_t k = 0; k < 3 * Lexicon::kBlock + 5; ++k) {
    chain.push_back(static_cast<char>('a' + k % 3));
    names.insert(chain);
    names.insert(chain + "zz");
  }
  expect_matches_map(std::vector<std::string>(names.begin(), names.end()));
}

// The benchmark's owner-name shape, around the restart boundaries.
TEST(LexiconTest, FindMatchesAMapAroundRestartBoundaries) {
  std::set<std::string> names;
  for (std::size_t t = 0; t < 40 * Lexicon::kBlock; ++t) {
    names.insert("owner" + std::to_string(t));
  }
  const std::vector<std::string> sorted(names.begin(), names.end());
  expect_matches_map(sorted);
  // Each restart entry and its neighbours again, explicitly.
  std::vector<std::pair<std::string, IdentityId>> pairs;
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    pairs.emplace_back(sorted[k], static_cast<IdentityId>(k));
  }
  const Lexicon lexicon(pairs);
  for (std::size_t r = 0; r < sorted.size(); r += Lexicon::kBlock) {
    for (const std::size_t k : {r == 0 ? r : r - 1, r, r + 1}) {
      if (k >= sorted.size()) continue;
      EXPECT_EQ(lexicon.find(sorted[k]), static_cast<IdentityId>(k));
    }
  }
}

TEST(LexiconTest, EmptyLexiconFindsNothing) {
  const Lexicon lexicon(std::vector<std::pair<std::string, IdentityId>>{});
  EXPECT_FALSE(lexicon.find("").has_value());
  EXPECT_FALSE(lexicon.find("owner").has_value());
}

}  // namespace
}  // namespace eppi::core
