#include "io/request.h"

#include <cstdlib>

#include "io/serialization.h"

namespace aqo {

namespace {

constexpr std::string_view kSpace = " \t\n\v\f\r";

// Pops the next whitespace-delimited token off `*rest`; empty at the end.
std::string_view NextToken(std::string_view* rest) {
  size_t start = rest->find_first_not_of(kSpace);
  if (start == std::string_view::npos) {
    *rest = {};
    return {};
  }
  size_t end = rest->find_first_of(kSpace, start);
  if (end == std::string_view::npos) end = rest->size();
  std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

// The token as a number when strtod reads all of it.
std::optional<double> WholeNumber(std::string_view token) {
  std::string text(token);
  char* end = nullptr;
  double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return std::nullopt;
  return value;
}

}  // namespace

RequestHeader ParseRequestHeader(std::string_view payload) {
  RequestHeader header;
  size_t eol = payload.find('\n');
  header.head = payload.substr(0, eol);
  if (eol != std::string_view::npos) header.body = payload.substr(eol + 1);
  std::string_view rest = header.head;
  header.verb = NextToken(&rest);
  header.id = NextToken(&rest);
  if (header.verb != "req") return header;
  constexpr std::string_view kOptimizer = "optimizer=";
  for (std::string_view token = NextToken(&rest); !token.empty();
       token = NextToken(&rest)) {
    if (token.substr(0, kOptimizer.size()) == kOptimizer) {
      header.optimizer = token.substr(kOptimizer.size());
    } else if (std::optional<double> ms = WholeNumber(token)) {
      header.deadline_ms = ms;
    } else {
      header.error = "bad request header: " + std::string(token);
      break;
    }
  }
  header.family = FirstTag(header.body);
  return header;
}

}  // namespace aqo
