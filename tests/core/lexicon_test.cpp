// Lexicon against a std::map built from the same names.
//
// find probes the rank table and checks a candidate rank by walking the
// front coding from its block's restart, comparing only the suffix bytes of
// entries whose shared prefix equals how much of the target the previous
// entry matched; names inserted since the last merge are found through
// their own hash table. The probes here cover every way that can go wrong:
// present names, absent names that sort between neighbours, proper
// prefixes and extensions of present names, names around the restart
// boundaries (every Lexicon::kBlock-th entry is stored whole), bytes above
// 0x7f (ordering is by unsigned byte, as std::string's), the empty name,
// absent names aimed at occupied rank-table slots, pending names, and
// names that move from the pending names into the base at a merge.

#include "core/lexicon.h"

#include <gtest/gtest.h>

#include <bit>
#include <functional>
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

// Every probe of `probes` resolves as in `oracle`, and every id names back.
void expect_same_as(const Lexicon& lexicon,
                    const std::map<std::string, IdentityId>& oracle,
                    const std::vector<std::string>& probes) {
  ASSERT_EQ(lexicon.size(), oracle.size());
  for (const std::string& probe : probes) {
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
  for (const auto& [name, id] : oracle) EXPECT_EQ(lexicon.name_of(id), name);
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
  const Lexicon fresh;
  EXPECT_FALSE(fresh.find("owner").has_value());
  EXPECT_EQ(fresh.serialize(), lexicon.serialize());
}

// Names inserted after the base was built: they take the next ids, are
// found while pending, keep their ids when a merge moves them into the
// base, and the serialized form never depends on which names are pending.
TEST(LexiconTest, PendingAndMergeMatchAMap) {
  eppi::Rng rng(23);
  const std::set<std::string> all = random_names(rng, 900);
  const std::vector<std::string> names(all.begin(), all.end());
  // Shuffled: registration order is not name order.
  std::vector<std::string> order = names;
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.next_below(k)]);
  }
  const std::size_t in_base = 500;
  std::vector<std::pair<std::string, IdentityId>> pairs;
  std::map<std::string, IdentityId> oracle;
  for (std::size_t k = 0; k < in_base; ++k) {
    pairs.emplace_back(order[k], static_cast<IdentityId>(k));
    oracle.emplace(order[k], static_cast<IdentityId>(k));
  }
  Lexicon lexicon(pairs);
  const std::vector<std::string> probes = probes_for(names);

  // New names one at a time, their pending table regrowing as it goes;
  // known names (base or pending) inserted again keep their ids.
  for (std::size_t k = in_base; k < order.size(); ++k) {
    EXPECT_EQ(lexicon.insert(order[k]), static_cast<IdentityId>(k));
    oracle.emplace(order[k], static_cast<IdentityId>(k));
    const std::string& known = order[rng.next_below(k + 1)];
    EXPECT_EQ(lexicon.insert(known), oracle.at(known));
    if (k == in_base + 200) {
      EXPECT_EQ(lexicon.pending_size(), 201u);
      expect_same_as(lexicon, oracle, probes);
    }
  }
  EXPECT_EQ(lexicon.pending_size(), 400u);
  expect_same_as(lexicon, oracle, probes);

  // The merged wire form, before and after the merge.
  std::vector<std::pair<std::string, IdentityId>> everything(oracle.begin(),
                                                             oracle.end());
  const std::vector<std::uint8_t> want = Lexicon(everything).serialize();
  EXPECT_EQ(lexicon.serialize(), want);
  lexicon.merge();
  EXPECT_EQ(lexicon.pending_size(), 0u);
  expect_same_as(lexicon, oracle, probes);
  EXPECT_EQ(lexicon.serialize(), want);
  expect_same_as(Lexicon::deserialize(want), oracle, probes);

  // From empty, every name pending, then merged.
  Lexicon fresh;
  for (IdentityId id = 0; id < everything.size(); ++id) {
    EXPECT_EQ(fresh.insert(lexicon.name_of(id)), id);
  }
  EXPECT_EQ(fresh.pending_size(), everything.size());
  EXPECT_EQ(fresh.serialize(), want);
  fresh.merge();
  expect_same_as(fresh, oracle, probes);
}

// A merge sorts the pending names by the 8 bytes past the prefix they all
// share and compares whole names only where those keys tie. Here every
// name shares a long prefix, and most tie on the key: the same 8 bytes
// followed by different tails, and names that end inside the key, so
// zero padding ties them with names that go on with '\0' bytes.
TEST(LexiconTest, MergeOrdersNamesThatTieOnTheSortKey) {
  const std::string prefix(40, 'p');
  const std::vector<std::string> keys = {"", "a", std::string(1, '\0'),
                                         "abcdefgh", "abcdefg",
                                         std::string("abc\0", 4),
                                         std::string(8, '\xff')};
  const std::vector<std::string> tails = {"", std::string(1, '\0'), "x",
                                          "xy", std::string(2, '\0'),
                                          "\x80", std::string(9, 'z')};
  std::set<std::string> all;
  for (const std::string& key : keys) {
    for (const std::string& tail : tails) all.insert(prefix + key + tail);
  }
  std::vector<std::string> order(all.begin(), all.end());
  eppi::Rng rng(29);
  for (std::size_t k = order.size(); k > 1; --k) {
    std::swap(order[k - 1], order[rng.next_below(k)]);
  }
  // Half the names in a base, the other half pending, then all pending
  // in a fresh lexicon: both merges must give the oracle's order.
  const std::size_t in_base = order.size() / 2;
  std::vector<std::pair<std::string, IdentityId>> pairs;
  std::map<std::string, IdentityId> oracle;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k < in_base) pairs.emplace_back(order[k], static_cast<IdentityId>(k));
    oracle.emplace(order[k], static_cast<IdentityId>(k));
  }
  Lexicon lexicon(pairs);
  Lexicon fresh;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k >= in_base) {
      EXPECT_EQ(lexicon.insert(order[k]), k);
    }
    EXPECT_EQ(fresh.insert(order[k]), k);
  }
  const std::vector<std::uint8_t> want =
      Lexicon(std::vector<std::pair<std::string, IdentityId>>(oracle.begin(),
                                                              oracle.end()))
          .serialize();
  const std::vector<std::string> probes = probes_for(order);
  for (Lexicon* merged : {&lexicon, &fresh}) {
    EXPECT_EQ(merged->serialize(), want);
    merged->merge();
    expect_same_as(*merged, oracle, probes);
    EXPECT_EQ(merged->serialize(), want);
  }
}

// Absent names aimed at occupied rank-table slots: same length and suffix
// as a present name, with the shared prefix changed, so only the walk from
// the block's restart can tell them apart. The home slot is worked out as
// the base places a name: std::hash<std::string_view> masked to the table
// size, the power of two at least twice the name count.
TEST(LexiconTest, AbsentNamesCollidingInTheRankTableAreAbsent) {
  std::vector<std::pair<std::string, IdentityId>> pairs;
  std::map<std::string, IdentityId> oracle;
  for (std::size_t t = 0; t < 300; ++t) {
    std::string name = "owner" + std::to_string(100000 + t * 7);
    pairs.emplace_back(name, static_cast<IdentityId>(t));
    oracle.emplace(name, static_cast<IdentityId>(t));
  }
  const Lexicon lexicon(pairs);
  const std::size_t mask = std::bit_ceil(2 * pairs.size()) - 1;
  const auto home_slot = [&](std::string_view name) {
    return std::hash<std::string_view>{}(name) & mask;
  };
  std::set<std::size_t> occupied;
  for (const auto& [name, id] : pairs) occupied.insert(home_slot(name));

  std::vector<std::string> probes;
  std::size_t aimed = 0;  // probes that start at their own source's slot
  for (const auto& [name, id] : pairs) {
    for (std::size_t at = 0; at + 2 < name.size(); ++at) {
      for (const char c : std::string("0123456789oOwx\xff")) {
        std::string probe = name;
        probe[at] = c;
        const std::size_t slot = home_slot(probe);
        if (oracle.count(probe) != 0 || occupied.count(slot) == 0) continue;
        probes.push_back(probe);
        if (slot == home_slot(name)) ++aimed;
      }
    }
  }
  ASSERT_GT(probes.size(), 1000u);
  ASSERT_GT(aimed, 5u);
  for (const std::string& probe : probes) {
    EXPECT_FALSE(lexicon.find(probe).has_value()) << probe;
  }
  expect_same_as(lexicon, oracle, {});
}

// A copy is frozen: inserts and merges on the original never show in it.
TEST(LexiconTest, CopiesNeverChange) {
  Lexicon writer;
  writer.insert("a");
  writer.insert("c");
  const auto view = std::make_shared<const Lexicon>(writer);
  writer.insert("b");
  writer.insert("a");
  writer.merge();
  EXPECT_EQ(writer.pending_size(), 0u);
  EXPECT_EQ(writer.find("b"), IdentityId{2});
  const auto merged = std::make_shared<const Lexicon>(writer);
  writer.insert("d");
  writer.merge();
  EXPECT_EQ(view->size(), 2u);
  EXPECT_EQ(view->pending_size(), 2u);
  EXPECT_FALSE(view->find("b").has_value());
  EXPECT_EQ(view->find("c"), IdentityId{1});
  EXPECT_EQ(view->name_of(1), "c");
  EXPECT_EQ(merged->size(), 3u);
  EXPECT_FALSE(merged->find("d").has_value());
  EXPECT_EQ(merged->name_of(2), "b");
}

}  // namespace
}  // namespace eppi::core
