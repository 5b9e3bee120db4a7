#include <gtest/gtest.h>

#include <sstream>

#include "common/error.h"
#include "dataset/collection_table.h"
#include "dataset/synthetic.h"

namespace eppi::dataset {
namespace {

TEST(SyntheticTest, ExactFrequenciesAreHonored) {
  eppi::Rng rng(1);
  const std::vector<std::uint64_t> freqs{0, 1, 5, 10};
  const auto net = make_network_with_frequencies(10, freqs, rng);
  EXPECT_EQ(net.providers(), 10u);
  EXPECT_EQ(net.identities(), 4u);
  EXPECT_EQ(net.frequencies(), freqs);
}

TEST(SyntheticTest, FrequencyAboveProvidersRejected) {
  eppi::Rng rng(2);
  const std::vector<std::uint64_t> freqs{11};
  EXPECT_THROW(make_network_with_frequencies(10, freqs, rng),
               eppi::ConfigError);
}

TEST(SyntheticTest, HoldersAreDistinctProviders) {
  eppi::Rng rng(3);
  const std::vector<std::uint64_t> freqs{7};
  const auto net = make_network_with_frequencies(7, freqs, rng);
  EXPECT_EQ(net.membership.col_count(0), 7u);  // all distinct
}

TEST(SyntheticTest, ZipfNetworkHasDecreasingFrequencies) {
  eppi::Rng rng(4);
  SyntheticConfig config;
  config.providers = 100;
  config.identities = 50;
  config.zipf_exponent = 1.0;
  config.max_fraction = 0.8;
  const auto net = make_zipf_network(config, rng);
  const auto freqs = net.frequencies();
  EXPECT_EQ(freqs[0], 80u);
  for (std::size_t j = 1; j < freqs.size(); ++j) {
    EXPECT_LE(freqs[j], freqs[j - 1]);
    EXPECT_GE(freqs[j], 1u);
  }
}

TEST(SyntheticTest, RandomEpsilonsInRange) {
  eppi::Rng rng(5);
  const auto eps = random_epsilons(1000, rng, 0.2, 0.8);
  for (const double e : eps) {
    EXPECT_GE(e, 0.2);
    EXPECT_LE(e, 0.8);
  }
  EXPECT_THROW(random_epsilons(10, rng, 0.5, 0.2), eppi::ConfigError);
}

TEST(CollectionTableTest, RoundTripThroughCsv) {
  eppi::Rng rng(6);
  const auto net = make_network_with_frequencies(
      5, std::vector<std::uint64_t>{2, 3, 0}, rng);
  std::stringstream ss;
  save_collection_table(ss, net);
  const auto table = load_collection_table(ss);
  // Identity 2 has no memberships, so it does not round-trip; the loaded
  // matrix must contain exactly the saved facts.
  EXPECT_EQ(table.network.membership.popcount(), net.membership.popcount());
}

TEST(CollectionTableTest, ParsesNamesAndComments) {
  std::stringstream ss(
      "# comment line\n"
      "hospital-a,alice\n"
      "hospital-b,alice\n"
      "hospital-a,bob\n"
      "\n");
  const auto table = load_collection_table(ss);
  EXPECT_EQ(table.provider_names,
            (std::vector<std::string>{"hospital-a", "hospital-b"}));
  EXPECT_EQ(table.identity_names,
            (std::vector<std::string>{"alice", "bob"}));
  EXPECT_TRUE(table.network.membership.get(0, 0));
  EXPECT_TRUE(table.network.membership.get(1, 0));
  EXPECT_TRUE(table.network.membership.get(0, 1));
  EXPECT_FALSE(table.network.membership.get(1, 1));
}

TEST(CollectionTableTest, DuplicateFactsAreIdempotent) {
  std::stringstream ss("p,t\np,t\n");
  const auto table = load_collection_table(ss);
  EXPECT_EQ(table.network.membership.popcount(), 1u);
}

TEST(CollectionTableTest, MalformedLineThrows) {
  std::stringstream no_comma("just-a-token\n");
  EXPECT_THROW(load_collection_table(no_comma), eppi::SerializeError);
  std::stringstream empty_field(",identity\n");
  EXPECT_THROW(load_collection_table(empty_field), eppi::SerializeError);
}

// A file saved with CRLF line ends — a blank line and a comment among
// them — parses exactly like its LF twin: no name keeps the '\r'.
TEST(CollectionTableTest, CrlfFileParsesLikeItsLfTwin) {
  const std::string lf =
      "# comment line\n"
      "prov1,alice\n"
      "\n"
      "prov2,alice\n"
      "prov2,bob\n"
      "prov1,alice\n";
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::stringstream lf_in(lf), crlf_in(crlf);
  const CollectionFacts a = load_collection_facts(lf_in);
  const CollectionFacts b = load_collection_facts(crlf_in);
  EXPECT_EQ(b.provider_names, (std::vector<std::string>{"prov1", "prov2"}));
  EXPECT_EQ(b.identity_names, (std::vector<std::string>{"alice", "bob"}));
  EXPECT_EQ(a.provider_names, b.provider_names);
  EXPECT_EQ(a.identity_names, b.identity_names);
  EXPECT_EQ(a.facts, b.facts);
  // The last line may end without a line break, either way.
  std::stringstream open_end("prov1,alice\r\nprov2,bob");
  EXPECT_EQ(load_collection_facts(open_end).identity_names,
            (std::vector<std::string>{"alice", "bob"}));
  // A malformed CRLF line is reported at its own line number.
  std::stringstream bad("prov1,alice\r\n\r\nprov2,\r\n");
  try {
    load_collection_facts(bad);
    ADD_FAILURE() << "no exception";
  } catch (const eppi::SerializeError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// Lines that straddle the parser's read blocks, and one line longer than
// a block, parse whole: names in first-appearance order, facts in file
// order.
TEST(CollectionTableTest, LinesAcrossReadBlocksParseWhole) {
  std::string csv;
  std::vector<std::string> owners;
  for (std::size_t j = 0; j < 60000; ++j) {
    owners.emplace_back("owner-");
    owners.back() += std::to_string(j * 7919 % 60000);
    csv += "prov-";
    csv += std::to_string(j % 3);
    csv += ',';
    csv += owners.back();
    csv += '\n';
  }
  const std::string long_name(3u << 20, 'x');  // past two read blocks
  csv += "prov-long," + long_name + "\nprov-0,owner-0\n";
  std::stringstream in(csv);
  const CollectionTable table = load_collection_table(in);
  ASSERT_EQ(table.identity_names.size(), owners.size() + 1);
  for (std::size_t j = 0; j < owners.size(); ++j) {
    ASSERT_EQ(table.identity_names[j], owners[j]);
  }
  EXPECT_EQ(table.identity_names.back(), long_name);
  EXPECT_EQ(table.provider_names,
            (std::vector<std::string>{"prov-0", "prov-1", "prov-2",
                                      "prov-long"}));
  EXPECT_EQ(table.network.membership.popcount(), owners.size() + 1);
}

TEST(CollectionTableTest, SaveUsesProvidedNames) {
  eppi::Rng rng(7);
  Network net;
  net.membership = eppi::BitMatrix(1, 1);
  net.membership.set(0, 0, true);
  std::stringstream ss;
  save_collection_table(ss, net, {"clinic"}, {"carol"});
  EXPECT_EQ(ss.str(), "clinic,carol\n");
}

}  // namespace
}  // namespace eppi::dataset
