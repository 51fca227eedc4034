// io/request.h: the aqo_serve request header is a pure function of the
// payload. Covers the strict header tokens (a token that is neither a
// number nor `optimizer=` is an error, not deadline 0) and family
// detection past leading comment lines.

#include "io/request.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "io/serialization.h"

namespace aqo {
namespace {

std::string Fixture(const std::string& name) {
  std::ifstream in(std::string(AQO_EXAMPLES_DIR) + "/fixtures/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.is_open()) << name;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(RequestHeader, SplitsHeadBodyAndFields) {
  const std::string payload = "req r1 250 optimizer=greedy\nqon 1\nrel 0 1\n";
  RequestHeader h = ParseRequestHeader(payload);
  EXPECT_EQ(h.verb, "req");
  EXPECT_EQ(h.id, "r1");
  EXPECT_EQ(h.head, "req r1 250 optimizer=greedy");
  EXPECT_EQ(h.body, "qon 1\nrel 0 1\n");
  ASSERT_TRUE(h.deadline_ms.has_value());
  EXPECT_EQ(*h.deadline_ms, 250.0);
  EXPECT_EQ(h.optimizer, "greedy");
  EXPECT_EQ(h.family, "qon");
  EXPECT_EQ(h.error, "");
  // Every view points into the payload.
  for (std::string_view v : {h.verb, h.id, h.head, h.body, h.optimizer,
                             h.family}) {
    EXPECT_GE(v.data(), payload.data());
    EXPECT_LE(v.data() + v.size(), payload.data() + payload.size());
  }
}

TEST(RequestHeader, DefaultsWhenTokensAreAbsent) {
  RequestHeader h = ParseRequestHeader("req r2\nqoh 1 170 0.5\n");
  EXPECT_FALSE(h.deadline_ms.has_value());
  EXPECT_EQ(h.optimizer, "");
  EXPECT_EQ(h.family, "qoh");
  RequestHeader bare = ParseRequestHeader("req");
  EXPECT_EQ(bare.verb, "req");
  EXPECT_EQ(bare.id, "");
  EXPECT_EQ(bare.body, "");
  EXPECT_EQ(bare.family, "");
}

TEST(RequestHeader, LastTokenOfEachKindWins) {
  RequestHeader h =
      ParseRequestHeader("req r3 5 optimizer=dp\t7 optimizer=ii\n");
  EXPECT_EQ(*h.deadline_ms, 7.0);
  EXPECT_EQ(h.optimizer, "ii");
  EXPECT_EQ(h.error, "");
}

TEST(RequestHeader, NonNumericTokenIsAnError) {
  for (const char* token : {"junk", "5ms", "1e", "optimizer", "--x"}) {
    const std::string payload = std::string("req r1 ") + token + "\nqon 1\n";
    RequestHeader h = ParseRequestHeader(payload);
    EXPECT_EQ(h.error, std::string("bad request header: ") + token);
    EXPECT_EQ(h.id, "r1");
  }
  // The first bad token is the one reported.
  EXPECT_EQ(ParseRequestHeader("req r1 10 bad1 bad2\n").error,
            "bad request header: bad1");
}

TEST(RequestHeader, StrtodNumbersAreDeadlines) {
  EXPECT_EQ(*ParseRequestHeader("req a inf\n").deadline_ms,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(*ParseRequestHeader("req a 1e300\n").deadline_ms, 1e300);
  EXPECT_EQ(*ParseRequestHeader("req a -5\n").deadline_ms, -5.0);
  EXPECT_TRUE(std::isnan(*ParseRequestHeader("req a nan\n").deadline_ms));
}

TEST(RequestHeader, OtherVerbsIgnoreTrailingTokens) {
  RequestHeader h = ParseRequestHeader("ping p1 junk");
  EXPECT_EQ(h.verb, "ping");
  EXPECT_EQ(h.id, "p1");
  EXPECT_EQ(h.error, "");
}

TEST(RequestHeader, FamilySkipsLeadingComments) {
  // The committed fixture opens with a '#' comment; sent verbatim as a
  // request body it must reach the QO_N reader and parse.
  const std::string body = Fixture("qon_valid.txt");
  ASSERT_EQ(body.rfind("#", 0), 0u);
  const std::string payload = "req r1\n" + body;
  RequestHeader h = ParseRequestHeader(payload);
  EXPECT_EQ(h.family, "qon");
  EXPECT_TRUE(ParseQonInstance(h.body).ok());
  EXPECT_EQ(ParseRequestHeader("req r1\n\n  \nc note\nqoh 1 9 0.5\n").family,
            "qoh");
  EXPECT_EQ(ParseRequestHeader("req r1\n# only comments\n").family, "");
}

}  // namespace
}  // namespace aqo
