// The istream line readers that io/serialization.cc used before its
// single-pass std::string_view scanner, kept verbatim (minus the io.parse
// fault probe, so oracle calls never move the fault ordinal) as the
// reference the grammar differential test and fuzz_serialization compare
// the production readers against. Test-only: nothing under src/ links it.

#include "tests/serialization_oracle.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <istream>
#include <sstream>
#include <tuple>

namespace aqo {
namespace oracle {

namespace {

// Reads the next non-comment, non-empty line into `line`; returns false at
// EOF.
bool NextLine(std::istream& is, std::string* line) {
  while (std::getline(is, *line)) {
    size_t start = line->find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if ((*line)[start] == '#') continue;
    if ((*line)[start] == 'c' && start + 1 < line->size() &&
        ((*line)[start + 1] == ' ' || (*line)[start + 1] == '\t')) {
      continue;  // DIMACS comment
    }
    return true;
  }
  return false;
}

template <typename T>
ParseResult<T> Fail(const std::string& reason) {
  ParseResult<T> r;
  r.error = reason;
  return r;
}

template <typename T>
ParseResult<T> Fail(const std::string& reason, const std::string& line) {
  return Fail<T>(reason + ": " + line);
}

}  // namespace

ParseResult<Graph> ParseGraph(std::istream& is) {
  using R = ParseResult<Graph>;
  R out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<Graph>("missing graph header");
  std::istringstream header(line);
  std::string tag;
  int n = -1, m = -1;
  header >> tag >> n >> m;
  if (header.fail() || tag != "graph" || n < 0 || m < 0) {
    return Fail<Graph>("bad graph header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<Graph>("graph header n exceeds supported maximum", line);
  }
  Graph g(n);
  for (int i = 0; i < m; ++i) {
    if (!NextLine(is, &line)) return Fail<Graph>("truncated graph edge list");
    std::istringstream edge(line);
    int u = -1, v = -1;
    edge >> tag >> u >> v;
    if (edge.fail() || tag != "e") return Fail<Graph>("bad edge line", line);
    if (u < 0 || u >= n || v < 0 || v >= n) {
      return Fail<Graph>("edge vertex out of range", line);
    }
    if (u == v) return Fail<Graph>("self-loop edge", line);
    if (g.HasEdge(u, v)) return Fail<Graph>("duplicate edge in input", line);
    g.AddEdge(u, v);
  }
  out.value = std::move(g);
  return out;
}

ParseResult<CnfFormula> ParseDimacs(std::istream& is) {
  using R = ParseResult<CnfFormula>;
  R out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<CnfFormula>("missing DIMACS header");
  std::istringstream header(line);
  std::string p, cnf;
  int vars = -1, clauses = -1;
  header >> p >> cnf >> vars >> clauses;
  if (header.fail() || p != "p" || cnf != "cnf" || vars < 0 || clauses < 0) {
    return Fail<CnfFormula>("bad DIMACS header", line);
  }
  CnfFormula f(vars);
  Clause current;
  int read = 0;
  while (read < clauses && NextLine(is, &line)) {
    std::istringstream body(line);
    Lit l;
    while (body >> l) {
      if (l == 0) {
        if (current.empty()) {
          return Fail<CnfFormula>("empty DIMACS clause", line);
        }
        f.AddClause(current);
        current.clear();
        ++read;
      } else {
        if (std::abs(l) > vars) {
          return Fail<CnfFormula>("DIMACS literal out of range", line);
        }
        current.push_back(l);
      }
    }
    if (!body.eof()) return Fail<CnfFormula>("bad DIMACS body line", line);
  }
  if (read != clauses) return Fail<CnfFormula>("truncated DIMACS body");
  out.value = std::move(f);
  return out;
}

ParseResult<QonInstance> ParseQonInstance(std::istream& is) {
  using R = ParseResult<QonInstance>;
  R out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<QonInstance>("missing qon header");
  std::istringstream header(line);
  std::string tag;
  int n = -1;
  header >> tag >> n;
  if (header.fail() || tag != "qon" || n < 1) {
    return Fail<QonInstance>("bad qon header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<QonInstance>("qon header n exceeds supported maximum", line);
  }

  std::vector<LogDouble> sizes(static_cast<size_t>(n), LogDouble::One());
  std::vector<std::tuple<int, int, double>> edges;
  std::vector<std::tuple<int, int, double>> costs;
  while (NextLine(is, &line)) {
    std::istringstream body(line);
    body >> tag;
    if (tag == "rel") {
      int i = -1;
      double lg = 0.0;
      body >> i >> lg;
      if (body.fail() || i < 0 || i >= n || !std::isfinite(lg)) {
        return Fail<QonInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QonInstance>("bad edge line", line);
      }
      if (lg > 0.0) {
        return Fail<QonInstance>("edge selectivity above 1", line);
      }
      edges.emplace_back(i, j, lg);
    } else if (tag == "w") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QonInstance>("bad w line", line);
      }
      costs.emplace_back(i, j, lg);
    } else {
      return Fail<QonInstance>("unknown qon line", line);
    }
  }
  Graph g(n);
  for (const auto& [i, j, lg] : edges) {
    if (g.HasEdge(i, j)) {
      std::ostringstream os;
      os << "duplicate edge " << i << " " << j;
      return Fail<QonInstance>(os.str());
    }
    g.AddEdge(i, j);
  }
  QonInstance inst(std::move(g), std::move(sizes));
  for (const auto& [i, j, lg] : edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  for (const auto& [i, j, lg] : costs) {
    // SetAccessCost CHECK-fails outside [t_j s, t_j]; pre-validate so a
    // malformed file reports instead of aborting.
    LogDouble w = LogDouble::FromLog2(lg);
    LogDouble lo = inst.size(j) * inst.selectivity(i, j);
    LogDouble hi = inst.size(j);
    if (!(lo <= w && w <= hi)) {
      std::ostringstream os;
      os << "access cost out of [t_j s, t_j] at (" << i << "," << j << ")";
      return Fail<QonInstance>(os.str());
    }
    inst.SetAccessCost(i, j, w);
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

ParseResult<QohInstance> ParseQohInstance(std::istream& is) {
  using R = ParseResult<QohInstance>;
  R out;
  std::string line;
  if (!NextLine(is, &line)) return Fail<QohInstance>("missing qoh header");
  std::istringstream header(line);
  std::string tag;
  int n = -1;
  double memory = 0.0, eta = 0.5;
  header >> tag >> n >> memory >> eta;
  if (header.fail() || tag != "qoh" || n < 1 || !std::isfinite(memory) ||
      memory <= 0.0 || !std::isfinite(eta) || eta <= 0.0 || eta >= 1.0) {
    return Fail<QohInstance>("bad qoh header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<QohInstance>("qoh header n exceeds supported maximum", line);
  }

  std::vector<LogDouble> sizes(static_cast<size_t>(n), LogDouble::One());
  std::vector<std::tuple<int, int, double>> edges;
  while (NextLine(is, &line)) {
    std::istringstream body(line);
    body >> tag;
    if (tag == "rel") {
      int i = -1;
      double lg = 0.0;
      body >> i >> lg;
      if (body.fail() || i < 0 || i >= n || !std::isfinite(lg)) {
        return Fail<QohInstance>("bad rel line", line);
      }
      sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge") {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return Fail<QohInstance>("bad edge line", line);
      }
      if (lg > 0.0) {
        return Fail<QohInstance>("edge selectivity above 1", line);
      }
      edges.emplace_back(i, j, lg);
    } else {
      return Fail<QohInstance>("unknown qoh line", line);
    }
  }
  Graph g(n);
  for (const auto& [i, j, lg] : edges) {
    if (g.HasEdge(i, j)) {
      std::ostringstream os;
      os << "duplicate edge " << i << " " << j;
      return Fail<QohInstance>(os.str());
    }
    g.AddEdge(i, j);
  }
  QohInstance inst(std::move(g), std::move(sizes), memory, eta);
  for (const auto& [i, j, lg] : edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

namespace {

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

bool SameBits(LogDouble a, LogDouble b) {
  return Bits(a.Log2()) == Bits(b.Log2());
}

std::string Differ(const Graph& a, const Graph& b) {
  return a == b ? "" : "graphs differ";
}

std::string Differ(const CnfFormula& a, const CnfFormula& b) {
  if (a.num_vars() != b.num_vars()) return "num_vars differ";
  return a.clauses() == b.clauses() ? "" : "clauses differ";
}

template <typename Instance>
std::string DifferSizesAndSelectivities(const Instance& a, const Instance& b) {
  if (a.NumRelations() != b.NumRelations()) return "n differs";
  if (!(a.graph() == b.graph())) return "graphs differ";
  int n = a.NumRelations();
  for (int i = 0; i < n; ++i) {
    if (!SameBits(a.size(i), b.size(i))) {
      return "size bits differ at " + std::to_string(i);
    }
    for (int j = 0; j < n; ++j) {
      if (i != j && !SameBits(a.selectivity(i, j), b.selectivity(i, j))) {
        return "selectivity bits differ at (" + std::to_string(i) + "," +
               std::to_string(j) + ")";
      }
    }
  }
  return "";
}

std::string Differ(const QonInstance& a, const QonInstance& b) {
  std::string why = DifferSizesAndSelectivities(a, b);
  if (!why.empty()) return why;
  int n = a.NumRelations();
  for (int k = 0; k < n; ++k) {
    for (int j = 0; j < n; ++j) {
      if (k != j && !SameBits(a.AccessCost(k, j), b.AccessCost(k, j))) {
        return "access cost bits differ at (" + std::to_string(k) + "," +
               std::to_string(j) + ")";
      }
    }
  }
  return "";
}

std::string Differ(const QohInstance& a, const QohInstance& b) {
  std::string why = DifferSizesAndSelectivities(a, b);
  if (!why.empty()) return why;
  if (Bits(a.memory()) != Bits(b.memory())) return "memory bits differ";
  if (Bits(a.eta()) != Bits(b.eta())) return "eta bits differ";
  return "";
}

template <typename T>
std::string Compare(const char* reader, const ParseResult<T>& got,
                    const ParseResult<T>& want) {
  std::string why;
  if (got.ok() != want.ok()) {
    why = got.ok() ? "accepted; oracle rejected with: " + want.error
                   : "rejected with: " + got.error + "; oracle accepted";
  } else if (!got.ok() && got.error != want.error) {
    why = "error '" + got.error + "' != oracle '" + want.error + "'";
  } else if (got.ok()) {
    why = Differ(*got.value, *want.value);
  }
  return why.empty() ? "" : std::string(reader) + ": " + why;
}

template <typename T>
ParseResult<T> ViaOracle(ParseResult<T> (*parse)(std::istream&),
                         std::string_view text) {
  std::istringstream is{std::string(text)};
  return parse(is);
}

}  // namespace

std::string Mismatch(std::string_view text) {
  std::string why =
      Compare("graph", aqo::ParseGraph(text), ViaOracle(&ParseGraph, text));
  if (why.empty()) {
    why = Compare("dimacs", aqo::ParseDimacs(text),
                  ViaOracle(&ParseDimacs, text));
  }
  if (why.empty()) {
    why = Compare("qon", aqo::ParseQonInstance(text),
                  ViaOracle(&ParseQonInstance, text));
  }
  if (why.empty()) {
    why = Compare("qoh", aqo::ParseQohInstance(text),
                  ViaOracle(&ParseQohInstance, text));
  }
  return why;
}

}  // namespace oracle
}  // namespace aqo
