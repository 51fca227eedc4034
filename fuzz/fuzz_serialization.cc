// Fuzz target: io/serialization.h Parse* readers. Malformed text must
// come back as a ParseResult error (never a crash or unbounded
// allocation — the kMaxSerializedRelations guard); every reader must
// agree with the istream oracle it replaced (tests/serialization_oracle.h:
// same accept/reject, bit-identical values, same error string); accepted
// values must survive a write/reparse round trip.

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>

#include "io/serialization.h"
#include "tests/serialization_oracle.h"
#include "util/check.h"

namespace {

template <typename T, typename ParseFn, typename WriteFn>
void CheckRoundTrip(std::string_view text, ParseFn parse, WriteFn write) {
  aqo::ParseResult<T> parsed = parse(text);
  if (!parsed.ok()) {
    AQO_CHECK(!parsed.error.empty());
    return;
  }
  // Anything we accept must round-trip through our own writer.
  std::ostringstream os;
  write(*parsed.value, os);
  aqo::ParseResult<T> reparsed = parse(os.str());
  AQO_CHECK(reparsed.ok()) << "round-trip reparse failed: " << reparsed.error;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  constexpr size_t kMaxInput = 1 << 14;
  if (size > kMaxInput) size = kMaxInput;
  std::string_view text(reinterpret_cast<const char*>(data), size);

  // The oracle's std::abs(INT_MIN) is undefined; see Mismatch().
  if (text.find("2147483648") == std::string_view::npos) {
    std::string mismatch = aqo::oracle::Mismatch(text);
    AQO_CHECK(mismatch.empty()) << "reader differs from oracle: " << mismatch;
  }

  CheckRoundTrip<aqo::Graph>(
      text, [](std::string_view t) { return aqo::ParseGraph(t); },
      [](const aqo::Graph& g, std::ostream& os) { aqo::WriteGraph(g, os); });
  CheckRoundTrip<aqo::CnfFormula>(
      text, [](std::string_view t) { return aqo::ParseDimacs(t); },
      [](const aqo::CnfFormula& f, std::ostream& os) {
        aqo::WriteDimacs(f, os);
      });
  CheckRoundTrip<aqo::QonInstance>(
      text, [](std::string_view t) { return aqo::ParseQonInstance(t); },
      [](const aqo::QonInstance& inst, std::ostream& os) {
        aqo::WriteQonInstance(inst, os);
      });
  CheckRoundTrip<aqo::QohInstance>(
      text, [](std::string_view t) { return aqo::ParseQohInstance(t); },
      [](const aqo::QohInstance& inst, std::ostream& os) {
        aqo::WriteQohInstance(inst, os);
      });
  return 0;
}
