// The daemon's HTTP routes (core/locator_http.h), called directly: the
// /query answer, written from provider ids and the name table, must equal
// byte for byte the name-based reference encoding — query_ppi_many's names
// as `owner,provider\n`, request order, providers ascending — on a seeded
// collection; routing, percent-decoding and the unknown-owner 404 are
// pinned alongside.
#include "core/locator_http.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "dataset/synthetic.h"

namespace eppi::core {
namespace {

// Owner names with spaces and reserved URL characters, owner and provider
// names both shorter and longer than the encoder's fixed copy widths, so
// the byte comparison has something to catch.
// (Appended piece by piece: `"p" + std::to_string(i)` draws a false
// -Wrestrict from GCC 12 in Release builds.)
std::string owner_name(std::size_t j) {
  std::string name = "owner ";
  name += std::to_string(j);
  name += j % 3 == 0 ? "&co/x" : "";
  name += j % 5 == 0 ? "/a-name-longer-than-the-prefix-width" : "";
  return name;
}
std::string provider_name(std::size_t i) {
  std::string name = i % 2 == 0 ? "p" : "provider-with-a-long-name-";
  name += std::to_string(i);
  return name;
}

class LocatorHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    eppi::Rng rng(11);
    dataset::SyntheticConfig config;
    config.providers = 40;
    config.identities = 200;
    const auto net = dataset::make_zipf_network(config, rng);
    for (std::size_t i = 0; i < net.providers(); ++i) {
      for (std::size_t j = 0; j < net.identities(); ++j) {
        if (net.membership.get(i, j)) {
          service_.delegate(owner_name(j), 0.6, provider_name(i));
        }
      }
    }
    service_.construct_ppi();
  }

  static LocatorService::Options options() {
    LocatorService::Options o;
    o.distributed = false;
    o.seed = 5;
    return o;
  }

  // The reference encoding, built from names through query_ppi_many.
  std::string old_encoding(const std::vector<std::string>& owners) const {
    const auto result = service_.query_ppi_many(owners);
    std::ostringstream lines;
    for (std::size_t i = 0; i < owners.size(); ++i) {
      for (const auto& prov : result.providers[i]) {
        lines << owners[i] << ',' << prov << '\n';
      }
    }
    return lines.str();
  }

  net::HttpResponse call(const std::string& method, const std::string& path,
                         const std::string& body = "") {
    net::HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = body;
    return routes_(req);
  }

  LocatorService service_{options()};
  LocatorHttp routes_{service_};
};

TEST_F(LocatorHttpTest, PostQueryMatchesOldEncodingByteForByte) {
  std::vector<std::string> owners;
  for (std::size_t j = 0; j < 200; j += 7) owners.push_back(owner_name(j));
  // Repeats, including back to back, answer again in request order.
  owners.push_back(owner_name(0));
  owners.push_back(owner_name(0));
  owners.push_back(owner_name(14));
  std::string body;
  for (std::size_t k = 0; k < owners.size(); ++k) {
    body += owners[k] + (k % 2 == 0 ? "\r\n" : "\n");
    if (k == 3) body += "\n";  // blank lines are skipped
  }
  const net::HttpResponse resp = call("POST", "/query", body);
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.content_type, "text/csv; charset=utf-8");
  const std::string expected = old_encoding(owners);
  ASSERT_GT(expected.size(), 1000u);
  EXPECT_EQ(resp.body, expected);

  // The bytes are the ids' order: each owner's providers ascend by id.
  LocatorService::BatchIds answer;
  service_.query_ppi_ids(owners, answer);
  for (std::size_t k = 0; k < owners.size(); ++k) {
    const auto ids = answer.providers(k);
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    EXPECT_FALSE(ids.empty());
  }
}

TEST_F(LocatorHttpTest, GetQueryPercentDecodesOwnerEndingAtAmpersand) {
  const std::string owner = owner_name(3);  // "owner 3&co/x"
  const net::HttpResponse resp =
      call("GET", "/query?x=1&owner=owner%203%26co%2fx&y=2");
  ASSERT_EQ(resp.status, 200) << resp.body;
  EXPECT_EQ(resp.body, old_encoding({owner}));

  // Unencoded, the value ends at the first '&': "owner 3" is no owner.
  EXPECT_EQ(call("GET", "/query?owner=owner%203&co/x").status, 404);
}

TEST_F(LocatorHttpTest, UnknownOwnerAnswers404WithTheErrorMessage) {
  const std::string message = "error: LocatorService: unknown owner\n";
  const net::HttpResponse post =
      call("POST", "/query", owner_name(1) + "\nnobody\n" + owner_name(2));
  EXPECT_EQ(post.status, 404);
  EXPECT_EQ(post.body, message);
  const net::HttpResponse get = call("GET", "/query?owner=nobody");
  EXPECT_EQ(get.status, 404);
  EXPECT_EQ(get.body, message);
  EXPECT_THROW(service_.query_ppi("nobody"), UnknownOwnerError);
  EXPECT_EQ(service_.metrics().unknown_owners, 3u);
}

TEST_F(LocatorHttpTest, OnlyQueryAndQueryStringRouteToQuery) {
  EXPECT_EQ(call("GET", "/queryfoo?owner=x").status, 404);
  EXPECT_EQ(call("POST", "/queryfoo", owner_name(1)).body, "not found\n");
  EXPECT_EQ(call("GET", "/query").status, 400);
  EXPECT_EQ(call("GET", "/query?").body, "no owners given\n");
  EXPECT_EQ(call("GET", "/query?owner=").status, 400);
  EXPECT_EQ(call("POST", "/query?trace=1", owner_name(1)).status, 200);
}

TEST_F(LocatorHttpTest, BadPercentEscapeIs400) {
  for (const char* path : {"/query?owner=a%2", "/query?owner=a%zz",
                           "/query?owner=%"}) {
    const net::HttpResponse resp = call("GET", path);
    EXPECT_EQ(resp.status, 400) << path;
  }
}

TEST_F(LocatorHttpTest, AdminRoutesApplyChurnToTheNextEpoch) {
  EXPECT_EQ(call("POST", "/delegate", "newcomer,0.6,p0\r\n").body,
            "delegated 1\n");
  EXPECT_EQ(call("GET", "/query?owner=newcomer").status, 404);
  const net::HttpResponse rebuilt = call("POST", "/rebuild");
  EXPECT_EQ(rebuilt.status, 200);
  EXPECT_EQ(rebuilt.body.rfind("epoch=", 0), 0u) << rebuilt.body;
  const net::HttpResponse found = call("GET", "/query?owner=newcomer");
  ASSERT_EQ(found.status, 200);
  EXPECT_NE(found.body.find("newcomer,p0\n"), std::string::npos);
  EXPECT_EQ(call("POST", "/delegate", "bad line").status, 400);
  EXPECT_EQ(call("POST", "/retire", "no-such-provider").status, 400);
  EXPECT_EQ(call("GET", "/delegate").status, 404);
}

TEST(QueryParamTest, FindsKeyAndDecodes) {
  EXPECT_EQ(query_param("owner=a%20b", "owner"), "a b");
  EXPECT_EQ(query_param("x=1&owner=a&owner=b", "owner"), "a");
  EXPECT_EQ(query_param("owners=a&owner=b", "owner"), "b");
  EXPECT_EQ(query_param("x=1", "owner"), "");
  EXPECT_EQ(query_param("owner=a+b%2B", "owner"), "a+b+");
  EXPECT_THROW(query_param("owner=%g1", "owner"), eppi::ConfigError);
}

}  // namespace
}  // namespace eppi::core
