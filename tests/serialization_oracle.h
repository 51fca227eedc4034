#ifndef AQO_TESTS_SERIALIZATION_ORACLE_H_
#define AQO_TESTS_SERIALIZATION_ORACLE_H_

// Test-only reference readers for io/serialization.h: the istream line
// readers the library used before its std::string_view scanner. They
// define the accepted grammar (serialization.h documents it), and
// Mismatch() checks the production readers against them.

#include <iosfwd>
#include <string>
#include <string_view>

#include "io/serialization.h"

namespace aqo {
namespace oracle {

ParseResult<Graph> ParseGraph(std::istream& is);
ParseResult<CnfFormula> ParseDimacs(std::istream& is);
ParseResult<QonInstance> ParseQonInstance(std::istream& is);
ParseResult<QohInstance> ParseQohInstance(std::istream& is);

// Runs all four production readers (string_view overloads) and their
// oracles on `text`. Returns "" when every pair agrees — both accept with
// bit-identical values or both reject with the same error string — and
// otherwise a one-line description of the first disagreement.
//
// One divergence is expected: the oracle takes std::abs of a DIMACS
// literal, which is undefined for -2147483648; the production reader
// rejects that literal. Callers must not hand such text to the oracle.
std::string Mismatch(std::string_view text);

}  // namespace oracle
}  // namespace aqo

#endif  // AQO_TESTS_SERIALIZATION_ORACLE_H_
