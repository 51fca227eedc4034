#ifndef AQO_IO_SERIALIZATION_H_
#define AQO_IO_SERIALIZATION_H_

// Plain-text serialization for the library's instance types, so generated
// hardness instances can be shipped to / consumed by external optimizers.
//
// Formats (line-oriented, '#' comments):
//
//   graph:      "graph <n> <m>" then m lines "e <u> <v>"
//   cnf:        DIMACS: "p cnf <vars> <clauses>" then clauses, 0-terminated
//   qon:        "qon <n>"
//               "rel <i> <log2_size>"                      (n lines)
//               "edge <i> <j> <log2_selectivity>"          (per predicate)
//               "w <i> <j> <log2_cost>"                    (only overrides)
//   qoh:        "qoh <n> <memory> <eta>" + rel/edge lines as above
//
// Sizes/selectivities/costs are written as log2 values: the gap instances
// do not fit in any linear-domain notation.
//
// Grammar. Every Parse* reader splits its text on '\n' and skips blank
// lines (only ' ', '\t', '\r'), lines whose first other character is
// '#', and lines whose first other character is 'c' followed by ' ' or
// '\t' (DIMACS comments; this holds in every format). Each remaining line
// is read as tokens with the exact semantics of `std::istringstream >>`
// in the classic locale:
//
//   * Tokens are separated by any of ' ' '\t' '\v' '\f' '\r'.
//   * tag:    a maximal run of non-separator bytes.
//   * int:    [+-]?[0-9]+, value within int. The token ends at the first
//             non-digit, so no separator is needed before the next one.
//   * double: [+-]? ( [0-9]+ ('.' [0-9]*)? | '.' [0-9]+ )
//             ( [eE] [+-]? [0-9]+ )?, where an 'e' with no digits after
//             it fails the read. It ends at the first byte outside that
//             shape. The value is the correctly rounded double; one that
//             overflows to +-inf fails, an underflow is kept (0 or the
//             subnormal, sign included).
//   * Once a read fails, every later read on that line fails.
//   * Tokens after the last field a record needs are ignored.
//
// Consequences that parsers rely on staying fixed (the grammar
// differential test pins each): "rel 0 3.5 junk" and "qon 2 trailing"
// are accepted; "rel 1.5" reads i=1, lg=.5; "edge 0 1-1" reads lg=-1;
// "rel 0 0x10" reads lg=0; "rel 0 1.5.3" reads lg=1.5; "+1", "1." and
// "-.5" are numbers and "-0" keeps its sign; "1e", "e5", "inf", "1e400"
// and ints beyond int are rejected; "1e-400" reads 0. A line holding
// only '\v' or '\f' is not blank but has no token, so a qon/qoh body
// line like that reuses the previous line's tag (after a rel line it is
// a bad rel line, right after the header an unknown qon/qoh line). In
// DIMACS bodies, literals are read until a read fails; the line is bad
// unless that read ran into the end of the line. The literal -2147483648
// is out of range for every variable count.
//
// Error handling: the Parse* readers never abort on malformed input —
// they validate every line (tags, indices, ranges, duplicates, semantic
// constraints like selectivity <= 1) and return a ParseResult carrying
// either the value or a one-line reason. The *FromString conveniences are
// AQO_CHECK wrappers over them, for tests whose inputs are
// program-generated and therefore trusted. User-facing tools must use
// Parse* and report `error: <file>: <reason>`.

#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "graph/graph.h"
#include "qo/qoh.h"
#include "qo/qon.h"
#include "sat/cnf.h"
// ParseResult<T> lives in util/parse_result.h so lower layers (the binary
// persistence in qo/persist.h) can report recoverable decode errors the
// same way without depending on aqo_io.
#include "util/parse_result.h"

namespace aqo {

// Ceiling on the relation/vertex count a parser will accept. Instance
// state is quadratic in n, so the bound is what keeps a 12-byte
// "qon 2000000000" header from costing gigabytes before any admission
// check can run (the fuzz harnesses under fuzz/ hammer exactly this).
// Far above anything the optimizers can process anyway.
inline constexpr int kMaxSerializedRelations = 4096;

// Recoverable readers: structured error instead of abort, for any
// malformed input reachable from files a user hands to a tool. Also the
// "io.parse" fault-injection site (util/fault_injection.h): the k-th
// Parse* call process-wide can be armed to fail with an injected error;
// every call counts once, whichever overload it enters through. The
// istream overloads read the rest of the stream and parse that text.
ParseResult<Graph> ParseGraph(std::string_view text);
ParseResult<Graph> ParseGraph(std::istream& is);
ParseResult<CnfFormula> ParseDimacs(std::string_view text);
ParseResult<CnfFormula> ParseDimacs(std::istream& is);
ParseResult<QonInstance> ParseQonInstance(std::string_view text);
ParseResult<QonInstance> ParseQonInstance(std::istream& is);
ParseResult<QohInstance> ParseQohInstance(std::string_view text);
ParseResult<QohInstance> ParseQohInstance(std::istream& is);

// The first token of the first line a Parse* reader would read ("qon",
// "qoh", "graph", "p", ...): how a caller picks the reader for a text.
// Empty when there is no such line or it has no token.
std::string_view FirstTag(std::string_view text);

void WriteGraph(const Graph& g, std::ostream& os);
void WriteDimacs(const CnfFormula& f, std::ostream& os);
void WriteQonInstance(const QonInstance& inst, std::ostream& os);
void WriteQohInstance(const QohInstance& inst, std::ostream& os);

// Convenience string round-trips for tests; the readers abort on
// malformed input.
std::string GraphToString(const Graph& g);
Graph GraphFromString(const std::string& s);
std::string QonToString(const QonInstance& inst);
QonInstance QonFromString(const std::string& s);

}  // namespace aqo

#endif  // AQO_IO_SERIALIZATION_H_
