// Fuzz target: io/request.h ParseRequestHeader, the first thing
// aqo_serve does with a frame payload. Any bytes must split into views
// that lie inside the payload, with an error only for `req` headers; a
// body whose family is qon/qoh then goes through its reader exactly as
// the server would hand it over.

#include <cstdint>
#include <string>
#include <string_view>

#include "io/request.h"
#include "io/serialization.h"
#include "util/check.h"

namespace {

void CheckInside(std::string_view part, std::string_view payload) {
  if (part.empty()) return;
  AQO_CHECK(part.data() >= payload.data() &&
            part.data() + part.size() <= payload.data() + payload.size());
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string_view payload(reinterpret_cast<const char*>(data), size);
  aqo::RequestHeader h = aqo::ParseRequestHeader(payload);
  for (std::string_view part :
       {h.verb, h.id, h.head, h.body, h.optimizer, h.family}) {
    CheckInside(part, payload);
  }
  AQO_CHECK(h.head.find('\n') == std::string_view::npos);
  AQO_CHECK(h.body.empty() || h.head.size() + 1 + h.body.size() == size);
  if (h.verb != "req") {
    AQO_CHECK(h.error.empty() && !h.deadline_ms && h.optimizer.empty() &&
              h.family.empty());
    return 0;
  }
  if (!h.error.empty()) {
    AQO_CHECK(h.error.rfind("bad request header: ", 0) == 0) << h.error;
    return 0;
  }
  AQO_CHECK(h.family == aqo::FirstTag(h.body));
  if (h.family == "qon") {
    aqo::ParseResult<aqo::QonInstance> r = aqo::ParseQonInstance(h.body);
    AQO_CHECK(r.ok() || !r.error.empty());
  } else if (h.family == "qoh") {
    aqo::ParseResult<aqo::QohInstance> r = aqo::ParseQohInstance(h.body);
    AQO_CHECK(r.ok() || !r.error.empty());
  }
  return 0;
}
