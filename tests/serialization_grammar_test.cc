// Grammar differential for io/serialization.h: the std::string_view
// readers must accept exactly what the istream readers they replaced
// accepted (tests/serialization_oracle.cc), with bit-identical values and
// the same error strings. Three input sets: every committed fixture, a
// table of the grammar's corner cases, and seeded byte mutations of
// serve-shaped QO_N/QO_H bodies. Also pins that each Parse* overload
// moves the io.parse fault ordinal exactly once per call.

#include "io/serialization.h"

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "qo/workloads.h"
#include "tests/serialization_oracle.h"
#include "util/fault_injection.h"
#include "util/random.h"

namespace aqo {
namespace {

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string QonText(const QonInstance& inst) {
  std::ostringstream os;
  WriteQonInstance(inst, os);
  return os.str();
}

std::string QohText(const QohInstance& inst) {
  std::ostringstream os;
  WriteQohInstance(inst, os);
  return os.str();
}

TEST(SerializationGrammar, EveryFixtureMatchesOracle) {
  int files = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           std::string(AQO_EXAMPLES_DIR) + "/fixtures")) {
    if (!entry.is_regular_file()) continue;
    std::string text = ReadFile(entry.path());
    EXPECT_EQ(oracle::Mismatch(text), "") << entry.path();
    // Request fixtures carry a header line; compare their bodies too.
    size_t eol = text.find('\n');
    if (eol != std::string::npos) {
      EXPECT_EQ(oracle::Mismatch(text.substr(eol + 1)), "") << entry.path();
    }
    ++files;
  }
  EXPECT_GE(files, 20);
}

// ---------------------------------------------------------------------------
// Corner cases. Each row must match the oracle; the rows with an expected
// value also pin what the grammar reads.

TEST(SerializationGrammar, QuirkTableMatchesOracle) {
  const std::vector<std::string> rows = {
      // Trailing tokens are ignored.
      "qon 1\nrel 0 3.5 junk\n", "qon 2 trailing\n",
      "qoh 2 170 0.5 extra\nrel 0 1\n", "graph 2 1 x\ne 0 1 y\n",
      // Numbers need no separator.
      "qon 2\nrel 1.5\n", "qon 2\nedge 0 1-1\n", "qon 1\nrel 0 0x10\n",
      "qon 1\nrel 0 1.5.3\n", "qon 2\nedge 0 1-1e1x\n",
      "qon 3\nedge 0 1 -1e+1\n", "qon 3\nedge 0 1 -1E-1\n",
      "qon 1\nrel 0 5e5e5\n", "qon 1\nrel 0 1.e3\n",
      // Signs, bare points, zeros.
      "qon 1\nrel +0 +2\n", "qon 1\nrel 0 1.\n", "qon 1\nrel 0 -.5\n",
      "qon 1\nrel 0 -0\n", "qon 1\nrel 0 0000.25\n", "qon 1\nrel -0 1\n",
      "qon 1\nrel 0 +-1\n", "qon 1\nrel 0 -+1\n", "qon 1\nrel 0 .\n",
      "qon 1\nrel 0 -.\n", "qon 1\nrel 0 .e5\n", "qon 1\nrel 0 +\n",
      "qon 1\nrel 0 -\n", "qon 1\nrel + 1\n", "qon +1\n", "qon 01\n",
      // Rejected numbers.
      "qon 1\nrel 0 1e\n", "qon 1\nrel 0 1e+\n", "qon 1\nrel 0 e5\n",
      "qon 1\nrel 0 inf\n", "qon 1\nrel 0 nan\n", "qon 1\nrel 0 1e400\n",
      "qon 1\nrel 0 -1e400\n", "qon 1\nrel 2147483648 1\n",
      "qon 1\nrel -2147483649 1\n", "qon 99999999999\n",
      "qon 1\nrel 0 1.7976931348623159e308\n",
      // Underflow and subnormals.
      "qon 1\nrel 0 1e-400\n", "qon 1\nrel 0 -1e-400\n",
      "qon 1\nrel 0 1e-310\n", "qon 1\nrel 0 4.9e-324\n",
      "qon 1\nrel 0 2.4703282292062328e-324\n", "qon 1\nrel 0 2e-324\n",
      "qon 1\nrel 0 1.7976931348623157e308\n",
      "qon 1\nrel 0 0.000000000000000000000000000000000000001e-300\n",
      "qon 1\nrel 0 123456789012345678901234567890123456789e-20\n",
      // Blank, comment and whitespace-only lines.
      "qon 2\nrel 0 1\n\v\n", "qon 2\n\f\n", "qon 3\nedge 0 1 -1\n \v \n",
      "qon 3\nw 0 1 1\n\v\n", "qoh 2 170 0.5\n\v\n",
      "qoh 2 170 0.5\nrel 0 1\n\f\n", "\v\nqon 1\n", "qon 1\nc\n",
      "qon 1\nc comment\nc\tcomment\n  # x\n\t\r\n", "c x\nqon 1\n",
      "qon 1\r\nrel 0 2\r\n", "qon 1\nrel\t0\v2\f\n", "qon\v1\n",
      "  qon 1\n", "#\nqon 1", "qon 1\nrel 0 2",
      // Access costs.
      "qon 2\nrel 0 4\nrel 1 6\nedge 0 1 -2\nw 0 1 5\n",
      "qon 2\nrel 0 4\nrel 1 6\nedge 0 1 -2\nw 0 1 7\n",
      "qon 2\nrel 0 4\nrel 1 6\nw 0 1 6\nw 1 0 4\n",
      "qon 2\nedge 0 1 -1\nedge 1 0 -1\n",
      // QO_H headers.
      "qoh 2 170 1\n", "qoh 2 0 0.5\n", "qoh 2 1e400 0.5\n",
      "qoh 2 1e-400 0.5\n", "qoh 2 170 1e-400\n", "qoh 2 170 .5x\n",
      "qoh 2 170\n",
      // Graph and DIMACS.
      "graph 3 2\ne 0 1\ne 1 2\nanything after m edges\n",
      "graph 2 1\ne 0 1-\n", "graph 2 1\ne+0 +1\n",
      "p cnf 2 1\n1 -2 0 -\n", "p cnf 2 1\n1 -2 0 x\n",
      "p cnf 2 1\n1 0 99999999999\n", "p cnf 2 1\n1 0 99999999999 1\n",
      "p cnf 3 1\n1 0 2 0\n", "p cnf 3 1\n1 0 2\n", "p cnf 3 2\n1\n-2 0 3 0\n",
      "p cnf 2 1\n1-2 0\n", "p cnf 2 1\n+1 0\n", "p cnf 2 1\n1 0\v\n",
      "c\np cnf 1 1\n1 0\n", "p cnf 1 0 trailing\n", "p  cnf\t1 1\n1 0",
  };
  for (const std::string& row : rows) {
    EXPECT_EQ(oracle::Mismatch(row), "") << "input: " << row;
  }
  // Embedded NUL bytes end a number like any non-number byte.
  const std::string with_nul("qon 1\nrel 0 2\0junk\n", 19);
  EXPECT_EQ(oracle::Mismatch(with_nul), "");
  EXPECT_EQ(oracle::Mismatch(std::string("qon 1\0\nrel 0 2\n", 15)), "");
}

double RelLog2(const std::string& text, int i) {
  ParseResult<QonInstance> r = ParseQonInstance(text);
  EXPECT_TRUE(r.ok()) << text << " -> " << r.error;
  return r.ok() ? r.value->size(i).Log2() : std::nan("");
}

TEST(SerializationGrammar, QuirkValuesArePinned) {
  EXPECT_EQ(RelLog2("qon 1\nrel 0 3.5 junk\n", 0), 3.5);
  EXPECT_TRUE(ParseQonInstance("qon 2 trailing\n").ok());
  EXPECT_EQ(RelLog2("qon 2\nrel 1.5\n", 1), 0.5);
  ParseResult<QonInstance> edge = ParseQonInstance("qon 2\nedge 0 1-1\n");
  ASSERT_TRUE(edge.ok()) << edge.error;
  EXPECT_EQ(edge.value->selectivity(0, 1).Log2(), -1.0);
  EXPECT_EQ(RelLog2("qon 1\nrel 0 0x10\n", 0), 0.0);
  EXPECT_EQ(RelLog2("qon 1\nrel 0 1.5.3\n", 0), 1.5);
  EXPECT_EQ(RelLog2("qon 1\nrel +0 +2\n", 0), 2.0);
  EXPECT_EQ(RelLog2("qon 1\nrel 0 1.\n", 0), 1.0);
  EXPECT_EQ(RelLog2("qon 1\nrel 0 -.5\n", 0), -0.5);
  EXPECT_TRUE(std::signbit(RelLog2("qon 1\nrel 0 -0\n", 0)));
  for (const char* bad : {"1e", "e5", "inf", "1e400", "nan"}) {
    ParseResult<QonInstance> r =
        ParseQonInstance(std::string("qon 1\nrel 0 ") + bad + "\n");
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.error, std::string("bad rel line: rel 0 ") + bad);
  }
  EXPECT_FALSE(ParseQonInstance("qon 1\nrel 2147483648 1\n").ok());
  EXPECT_FALSE(ParseQonInstance("qon 99999999999\n").ok());

  double underflow = RelLog2("qon 1\nrel 0 1e-400\n", 0);
  EXPECT_EQ(underflow, 0.0);
  EXPECT_FALSE(std::signbit(underflow));
  EXPECT_TRUE(std::signbit(RelLog2("qon 1\nrel 0 -1e-400\n", 0)));
  double subnormal = RelLog2("qon 1\nrel 0 1e-310\n", 0);
  EXPECT_EQ(subnormal, std::strtod("1e-310", nullptr));
  EXPECT_LT(subnormal, 2.2250738585072014e-308);

  EXPECT_EQ(ParseQonInstance("qon 2\nrel 0 1\n\v\n").error,
            "bad rel line: \v");
  EXPECT_EQ(ParseQonInstance("qon 2\n\f\n").error, "unknown qon line: \f");
  EXPECT_EQ(ParseQonInstance("qon 3\nedge 0 1 -1\n\v\n").error,
            "bad edge line: \v");
  EXPECT_EQ(ParseQohInstance("qoh 2 170 0.5\n\v\n").error,
            "unknown qoh line: \v");
}

// The oracle takes std::abs(INT_MIN) here, which is undefined; the
// production reader rejects the literal instead (see Mismatch()).
TEST(SerializationGrammar, MostNegativeDimacsLiteralIsOutOfRange) {
  ParseResult<CnfFormula> r = ParseDimacs("p cnf 2 1\n-2147483648 0\n");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.error, "DIMACS literal out of range: -2147483648 0");
  EXPECT_TRUE(ParseDimacs("p cnf 2147483647 1\n-2147483647 0\n").ok());
}

// ---------------------------------------------------------------------------
// Seeded byte mutations of serve-shaped bodies.

// Bytes the grammar treats specially, so mutations hit its edges far more
// often than uniform random bytes would.
constexpr char kGrammarBytes[] = " \t\v\f\r\n#c+-.eEx0123456789";

char MutationByte(Rng* rng) {
  if (rng->UniformInt(0, 1) == 0) {
    return static_cast<char>(rng->UniformInt(0, 255));
  }
  return kGrammarBytes[rng->UniformInt(0, sizeof(kGrammarBytes) - 2)];
}

std::string Mutate(std::string text, Rng* rng) {
  int edits = static_cast<int>(rng->UniformInt(1, 3));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    size_t at = static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(text.size()) - 1));
    switch (rng->UniformInt(0, 3)) {
      case 0:  // flip one bit
        text[at] = static_cast<char>(text[at] ^ (1 << rng->UniformInt(0, 7)));
        break;
      case 1:  // insert a byte
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(at),
                    MutationByte(rng));
        break;
      case 2:  // delete a short range
        text.erase(at, static_cast<size_t>(rng->UniformInt(1, 4)));
        break;
      case 3:  // truncate
        text.resize(at);
        break;
    }
  }
  return text;
}

// A serve-shaped body: the random workloads aqo_loadgen sends, with a
// few non-default access costs on every third QO_N body so `w` lines
// are mutated too.
std::string ServeBody(int index, Rng* rng) {
  int n = 10 + index % 21;
  if (index % 2 == 1) return QohText(RandomQohWorkload(n, rng));
  QonInstance inst = RandomQonWorkload(n, rng);
  if (index % 3 == 0) {
    for (int k = 0; k < 3; ++k) {
      int i = static_cast<int>(rng->UniformInt(0, n - 1));
      int j = static_cast<int>(rng->UniformInt(0, n - 1));
      if (i != j) inst.SetAccessCost(i, j, inst.size(j));
    }
  }
  return QonText(inst);
}

TEST(SerializationGrammar, SeededMutationsMatchOracle) {
  constexpr int kMutations = 2400;
  Rng rng(20021001);
  int accepted = 0;
  int mismatches = 0;
  for (int index = 0; index < kMutations; ++index) {
    std::string text = Mutate(ServeBody(index, &rng), &rng);
    // The one literal the oracle cannot read without undefined behaviour.
    if (text.find("2147483648") != std::string::npos) continue;
    std::string why = oracle::Mismatch(text);
    if (!why.empty() && ++mismatches <= 5) {
      ADD_FAILURE() << "mutant " << index << ": " << why;
    }
    bool ok = index % 2 == 1 ? ParseQohInstance(text).ok()
                             : ParseQonInstance(text).ok();
    accepted += ok ? 1 : 0;
  }
  EXPECT_EQ(mismatches, 0);
  // Both outcomes must be well represented for the set to mean anything.
  EXPECT_GT(accepted, kMutations / 10);
  EXPECT_LT(accepted, kMutations * 9 / 10);
}

TEST(SerializationGrammar, IstreamOverloadsMatchViewOverloads) {
  Rng rng(7);
  for (int index = 0; index < 40; ++index) {
    std::string text = Mutate(ServeBody(index, &rng), &rng);
    std::istringstream qon(text);
    ParseResult<QonInstance> a = ParseQonInstance(qon);
    ParseResult<QonInstance> b = ParseQonInstance(std::string_view(text));
    EXPECT_EQ(a.ok(), b.ok());
    EXPECT_EQ(a.error, b.error);
    if (a.ok() && b.ok()) {
      EXPECT_EQ(QonText(*a.value), QonText(*b.value));
    }
    std::istringstream qoh(text);
    ParseResult<QohInstance> c = ParseQohInstance(qoh);
    ParseResult<QohInstance> d = ParseQohInstance(std::string_view(text));
    EXPECT_EQ(c.ok(), d.ok());
    EXPECT_EQ(c.error, d.error);
    if (c.ok() && d.ok()) {
      EXPECT_EQ(QohText(*c.value), QohText(*d.value));
    }
  }
}

// ---------------------------------------------------------------------------
// The io.parse fault ordinal.

// Arms the next io.parse probe, parses, and returns the ordinal the
// injected error reports.
uint64_t NextParseOrdinal() {
  FaultInjector::Get().Arm("io.parse", FaultInjector::kAnyOrdinal, 1);
  ParseResult<Graph> r = ParseGraph(std::string_view("graph 1 0\n"));
  FaultInjector::Get().Disarm();
  const std::string prefix = "injected fault at io.parse#";
  EXPECT_EQ(r.error.rfind(prefix, 0), 0u) << r.error;
  return std::strtoull(r.error.c_str() + prefix.size(), nullptr, 10);
}

TEST(SerializationGrammar, EveryOverloadCountsOneParseOrdinal) {
  const std::string graph = "graph 2 1\ne 0 1\n";
  const std::string dimacs = "p cnf 1 1\n1 0\n";
  const std::string qon = "qon 1\nrel 0 1\n";
  const std::string qoh = "qoh 1 170 0.5\nrel 0 1\n";
  auto in = [](const std::string& text) {
    return std::make_shared<std::istringstream>(text);
  };
  const std::vector<std::pair<const char*, std::function<bool()>>> calls = {
      {"ParseGraph(view)", [&] { return ParseGraph(graph).ok(); }},
      {"ParseGraph(istream)", [&] { return ParseGraph(*in(graph)).ok(); }},
      {"ParseDimacs(view)", [&] { return ParseDimacs(dimacs).ok(); }},
      {"ParseDimacs(istream)", [&] { return ParseDimacs(*in(dimacs)).ok(); }},
      {"ParseQonInstance(view)", [&] { return ParseQonInstance(qon).ok(); }},
      {"ParseQonInstance(istream)",
       [&] { return ParseQonInstance(*in(qon)).ok(); }},
      {"ParseQohInstance(view)", [&] { return ParseQohInstance(qoh).ok(); }},
      {"ParseQohInstance(istream)",
       [&] { return ParseQohInstance(*in(qoh)).ok(); }},
      {"GraphFromString",
       [&] { return GraphFromString(graph).NumEdges() == 1; }},
      {"QonFromString",
       [&] { return QonFromString(qon).NumRelations() == 1; }},
  };
  for (const auto& [name, call] : calls) {
    uint64_t before = NextParseOrdinal();
    EXPECT_TRUE(call()) << name;
    EXPECT_EQ(NextParseOrdinal(), before + 2) << name;
  }
}

}  // namespace
}  // namespace aqo
