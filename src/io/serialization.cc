#include "io/serialization.h"

#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <tuple>

#include "util/check.h"
#include "util/fault_injection.h"

namespace aqo {

namespace {

// The classic-locale isspace set, which is what istream's `>>` skips.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Blank lines (only ' ', '\t', '\r'), '#' comments and DIMACS "c "
// comments carry no record.
bool IsSkippedLine(std::string_view line) {
  size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string_view::npos) return true;
  if (line[start] == '#') return true;
  return line[start] == 'c' && start + 1 < line.size() &&
         (line[start + 1] == ' ' || line[start + 1] == '\t');
}

// Yields the record lines of a text, split on '\n', in order.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  // Advances to the next record line; false at the end of the text.
  bool Next(std::string_view* line) {
    while (!rest_.empty()) {
      size_t eol = rest_.find('\n');
      *line = rest_.substr(0, eol);
      rest_ = eol == std::string_view::npos ? std::string_view()
                                            : rest_.substr(eol + 1);
      if (!IsSkippedLine(*line)) return true;
    }
    return false;
  }

 private:
  std::string_view rest_;
};

// Reads whitespace-delimited tokens from one line with the fail/eof
// semantics of a std::istringstream over it: a failed read fails every
// later read and leaves its target unchanged, and eof() reports that a
// read ran into the end of the line. See serialization.h for the grammar.
class TokenReader {
 public:
  explicit TokenReader(std::string_view line)
      : at_(line.data()), end_(line.data() + line.size()) {}

  bool fail() const { return fail_; }
  bool eof() const { return eof_; }
  explicit operator bool() const { return !fail_; }

  TokenReader& operator>>(std::string_view& tag) {
    if (!SkipSpace()) return *this;
    const char* start = at_;
    while (at_ != end_ && !IsSpace(*at_)) ++at_;
    eof_ = at_ == end_;
    tag = std::string_view(start, static_cast<size_t>(at_ - start));
    return *this;
  }

  TokenReader& operator>>(int& value) {
    if (!SkipSpace()) return *this;
    // from_chars takes '-' but not '+'.
    const char* first = *at_ == '+' ? at_ + 1 : at_;
    SkipSign();
    bool digits = SkipDigits();
    eof_ = at_ == end_;
    int parsed = 0;
    if (!digits || std::from_chars(first, at_, parsed).ec != std::errc()) {
      return Failed();  // no digits, or outside int
    }
    value = parsed;
    return *this;
  }

  TokenReader& operator>>(double& value) {
    if (!SkipSpace()) return *this;
    const char* start = at_;
    SkipSign();
    bool mantissa = SkipDigits();
    if (at_ != end_ && *at_ == '.') {
      ++at_;
      mantissa |= SkipDigits();
    }
    bool exponent = true;
    if (mantissa && at_ != end_ && (*at_ == 'e' || *at_ == 'E')) {
      ++at_;
      SkipSign();
      exponent = SkipDigits();
    }
    eof_ = at_ == end_;
    if (!mantissa || !exponent) return Failed();
    double parsed = 0.0;
    const char* first = *start == '+' ? start + 1 : start;
    std::from_chars_result r = std::from_chars(first, at_, parsed);
    if (r.ec != std::errc() || r.ptr != at_) {
      // Out of range (or anything else from_chars declines): strtod
      // decides, as it does inside istream. Underflow keeps its 0 or
      // subnormal; overflow to +-inf is rejected.
      parsed = std::strtod(std::string(start, at_).c_str(), nullptr);
      if (std::isinf(parsed)) return Failed();
    }
    value = parsed;
    return *this;
  }

 private:
  // The istream sentry: fails once anything has failed or hit the end,
  // else skips whitespace and fails at the end of the line.
  bool SkipSpace() {
    if (fail_ || eof_) {
      fail_ = true;
      return false;
    }
    while (at_ != end_ && IsSpace(*at_)) ++at_;
    if (at_ == end_) {
      fail_ = eof_ = true;
      return false;
    }
    return true;
  }

  void SkipSign() {
    if (at_ != end_ && (*at_ == '+' || *at_ == '-')) ++at_;
  }

  // True when at least one digit was skipped.
  bool SkipDigits() {
    const char* from = at_;
    while (at_ != end_ && IsDigit(*at_)) ++at_;
    return at_ != from;
  }

  TokenReader& Failed() {
    fail_ = true;
    return *this;
  }

  const char* at_;
  const char* end_;
  bool fail_ = false;
  bool eof_ = false;
};

// What is left of `is`, for the istream overloads.
std::string ReadAll(std::istream& is) {
  std::string text;
  char buf[4096];
  while (is.read(buf, sizeof(buf)) || is.gcount() > 0) {
    text.append(buf, static_cast<size_t>(is.gcount()));
  }
  return text;
}

// Writes a log2 value with enough digits to round-trip.
void WriteLog2(std::ostream& os, LogDouble v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v.Log2());
  os << buf;
}

// The "io.parse" fault site: ordinals count Parse* entries process-wide,
// so "fail the k-th parse" is exact regardless of which reader runs.
// Returns a ready-made error string when the armed ordinal is hit.
std::atomic<uint64_t> parse_ordinal{0};

bool InjectedParseFault(std::string* error) {
  uint64_t ordinal = parse_ordinal.fetch_add(1, std::memory_order_relaxed);
  if (!FaultInjector::Get().ShouldFail("io.parse", ordinal)) return false;
  *error = "injected fault at io.parse#" + std::to_string(ordinal);
  return true;
}

template <typename T>
ParseResult<T> Fail(std::string reason) {
  ParseResult<T> r;
  r.error = std::move(reason);
  return r;
}

// The value of a parse whose input is trusted; aborts on an error.
template <typename T>
T Checked(ParseResult<T> r) {
  AQO_CHECK(r.ok()) << r.error;
  return *std::move(r.value);
}

std::string WithLine(std::string_view reason, std::string_view line) {
  std::string error(reason);
  error += ": ";
  error += line;
  return error;
}

template <typename T>
ParseResult<T> Fail(std::string_view reason, std::string_view line) {
  return Fail<T>(WithLine(reason, line));
}

// The records after a qon/qoh header line.
struct InstanceRecords {
  std::vector<LogDouble> sizes;
  std::vector<std::tuple<int, int, double>> edges;
  std::vector<std::tuple<int, int, double>> costs;  // QO_N `w` lines
  Graph graph;
};

// Reads the rel, edge and (QO_N only) w lines after the header of a
// `family` ("qon" or "qoh") instance with n relations, then builds its
// join graph. Returns the error, or "" when every record is good.
std::string ReadInstanceRecords(LineReader* lines, std::string_view family,
                                int n, InstanceRecords* out) {
  out->sizes.assign(static_cast<size_t>(n), LogDouble::One());
  std::string_view line;
  std::string_view tag = family;
  while (lines->Next(&line)) {
    TokenReader body(line);
    body >> tag;  // a line with no token keeps the previous line's tag
    if (tag == "rel") {
      int i = -1;
      double lg = 0.0;
      body >> i >> lg;
      if (body.fail() || i < 0 || i >= n || !std::isfinite(lg)) {
        return WithLine("bad rel line", line);
      }
      out->sizes[static_cast<size_t>(i)] = LogDouble::FromLog2(lg);
    } else if (tag == "edge" || (tag == "w" && family == "qon")) {
      int i = -1, j = -1;
      double lg = 0.0;
      body >> i >> j >> lg;
      if (body.fail() || i < 0 || i >= n || j < 0 || j >= n || i == j ||
          !std::isfinite(lg)) {
        return WithLine(tag == "w" ? "bad w line" : "bad edge line", line);
      }
      if (tag == "w") {
        out->costs.emplace_back(i, j, lg);
      } else if (lg > 0.0) {
        return WithLine("edge selectivity above 1", line);
      } else {
        out->edges.emplace_back(i, j, lg);
      }
    } else {
      return WithLine("unknown " + std::string(family) + " line", line);
    }
  }
  out->graph = Graph(n);
  for (const auto& [i, j, lg] : out->edges) {
    if (out->graph.HasEdge(i, j)) {
      return "duplicate edge " + std::to_string(i) + " " + std::to_string(j);
    }
    out->graph.AddEdge(i, j);
  }
  return "";
}

}  // namespace

std::string_view FirstTag(std::string_view text) {
  LineReader lines(text);
  std::string_view line;
  std::string_view tag;
  if (lines.Next(&line)) TokenReader(line) >> tag;
  return tag;
}

void WriteGraph(const Graph& g, std::ostream& os) {
  os << "graph " << g.NumVertices() << " " << g.NumEdges() << "\n";
  for (const auto& [u, v] : g.Edges()) os << "e " << u << " " << v << "\n";
}

ParseResult<Graph> ParseGraph(std::string_view text) {
  ParseResult<Graph> out;
  if (InjectedParseFault(&out.error)) return out;
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line)) return Fail<Graph>("missing graph header");
  TokenReader header(line);
  std::string_view tag;
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
    if (!lines.Next(&line)) return Fail<Graph>("truncated graph edge list");
    TokenReader edge(line);
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

ParseResult<Graph> ParseGraph(std::istream& is) {
  return ParseGraph(ReadAll(is));
}

void WriteDimacs(const CnfFormula& f, std::ostream& os) {
  os << "p cnf " << f.num_vars() << " " << f.NumClauses() << "\n";
  for (const Clause& c : f.clauses()) {
    for (Lit l : c) os << l << " ";
    os << "0\n";
  }
}

ParseResult<CnfFormula> ParseDimacs(std::string_view text) {
  ParseResult<CnfFormula> out;
  if (InjectedParseFault(&out.error)) return out;
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line)) return Fail<CnfFormula>("missing DIMACS header");
  TokenReader header(line);
  std::string_view p, cnf;
  int vars = -1, clauses = -1;
  header >> p >> cnf >> vars >> clauses;
  if (header.fail() || p != "p" || cnf != "cnf" || vars < 0 || clauses < 0) {
    return Fail<CnfFormula>("bad DIMACS header", line);
  }
  CnfFormula f(vars);
  Clause current;
  int read = 0;
  while (read < clauses && lines.Next(&line)) {
    TokenReader body(line);
    Lit l = 0;
    while (body >> l) {
      if (l == 0) {
        if (current.empty()) {
          return Fail<CnfFormula>("empty DIMACS clause", line);
        }
        f.AddClause(current);
        current.clear();
        ++read;
      } else {
        // std::abs of the most negative Lit is undefined.
        if (l == std::numeric_limits<Lit>::min() || std::abs(l) > vars) {
          return Fail<CnfFormula>("DIMACS literal out of range", line);
        }
        current.push_back(l);
      }
    }
    // A read that failed short of the end of the line hit a non-literal.
    if (!body.eof()) return Fail<CnfFormula>("bad DIMACS body line", line);
  }
  if (read != clauses) return Fail<CnfFormula>("truncated DIMACS body");
  out.value = std::move(f);
  return out;
}

ParseResult<CnfFormula> ParseDimacs(std::istream& is) {
  return ParseDimacs(ReadAll(is));
}

void WriteQonInstance(const QonInstance& inst, std::ostream& os) {
  int n = inst.NumRelations();
  os << "qon " << n << "\n";
  for (int i = 0; i < n; ++i) {
    os << "rel " << i << " ";
    WriteLog2(os, inst.size(i));
    os << "\n";
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    os << "edge " << u << " " << v << " ";
    WriteLog2(os, inst.selectivity(u, v));
    os << "\n";
  }
  // Only non-default access costs are emitted.
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      LogDouble def = inst.size(j) * inst.selectivity(i, j);
      if (!inst.AccessCost(i, j).ApproxEquals(def, 1e-12)) {
        os << "w " << i << " " << j << " ";
        WriteLog2(os, inst.AccessCost(i, j));
        os << "\n";
      }
    }
  }
}

ParseResult<QonInstance> ParseQonInstance(std::string_view text) {
  ParseResult<QonInstance> out;
  if (InjectedParseFault(&out.error)) return out;
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line)) return Fail<QonInstance>("missing qon header");
  TokenReader header(line);
  std::string_view tag;
  int n = -1;
  header >> tag >> n;
  if (header.fail() || tag != "qon" || n < 1) {
    return Fail<QonInstance>("bad qon header", line);
  }
  if (n > kMaxSerializedRelations) {
    return Fail<QonInstance>("qon header n exceeds supported maximum", line);
  }

  InstanceRecords records;
  std::string error = ReadInstanceRecords(&lines, "qon", n, &records);
  if (!error.empty()) return Fail<QonInstance>(std::move(error));
  QonInstance inst(std::move(records.graph), std::move(records.sizes));
  for (const auto& [i, j, lg] : records.edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  for (const auto& [i, j, lg] : records.costs) {
    // SetAccessCost CHECK-fails outside [t_j s, t_j]; pre-validate so a
    // malformed file reports instead of aborting.
    LogDouble w = LogDouble::FromLog2(lg);
    LogDouble lo = inst.size(j) * inst.selectivity(i, j);
    LogDouble hi = inst.size(j);
    if (!(lo <= w && w <= hi)) {
      return Fail<QonInstance>("access cost out of [t_j s, t_j] at (" +
                               std::to_string(i) + "," + std::to_string(j) +
                               ")");
    }
    inst.SetAccessCost(i, j, w);
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

ParseResult<QonInstance> ParseQonInstance(std::istream& is) {
  return ParseQonInstance(ReadAll(is));
}

void WriteQohInstance(const QohInstance& inst, std::ostream& os) {
  int n = inst.NumRelations();
  char memory[40];
  std::snprintf(memory, sizeof(memory), "%.17g", inst.memory());
  char eta[40];
  std::snprintf(eta, sizeof(eta), "%.17g", inst.eta());
  os << "qoh " << n << " " << memory << " " << eta << "\n";
  for (int i = 0; i < n; ++i) {
    os << "rel " << i << " ";
    WriteLog2(os, inst.size(i));
    os << "\n";
  }
  for (const auto& [u, v] : inst.graph().Edges()) {
    os << "edge " << u << " " << v << " ";
    WriteLog2(os, inst.selectivity(u, v));
    os << "\n";
  }
}

ParseResult<QohInstance> ParseQohInstance(std::string_view text) {
  ParseResult<QohInstance> out;
  if (InjectedParseFault(&out.error)) return out;
  LineReader lines(text);
  std::string_view line;
  if (!lines.Next(&line)) return Fail<QohInstance>("missing qoh header");
  TokenReader header(line);
  std::string_view tag;
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

  InstanceRecords records;
  std::string error = ReadInstanceRecords(&lines, "qoh", n, &records);
  if (!error.empty()) return Fail<QohInstance>(std::move(error));
  QohInstance inst(std::move(records.graph), std::move(records.sizes), memory,
                   eta);
  for (const auto& [i, j, lg] : records.edges) {
    inst.SetSelectivity(i, j, LogDouble::FromLog2(lg));
  }
  inst.Validate();
  out.value = std::move(inst);
  return out;
}

ParseResult<QohInstance> ParseQohInstance(std::istream& is) {
  return ParseQohInstance(ReadAll(is));
}

std::string GraphToString(const Graph& g) {
  std::ostringstream os;
  WriteGraph(g, os);
  return os.str();
}

Graph GraphFromString(const std::string& s) {
  return Checked(ParseGraph(std::string_view(s)));
}

std::string QonToString(const QonInstance& inst) {
  std::ostringstream os;
  WriteQonInstance(inst, os);
  return os.str();
}

QonInstance QonFromString(const std::string& s) {
  return Checked(ParseQonInstance(std::string_view(s)));
}

}  // namespace aqo
