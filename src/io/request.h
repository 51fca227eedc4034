#ifndef AQO_IO_REQUEST_H_
#define AQO_IO_REQUEST_H_

// The request header of one aqo_serve frame payload (tools/aqo_serve.cc):
//
//   <verb> <id> [token...]\n
//   <body>
//
// Header tokens are separated by ' ' '\t' '\v' '\f' '\r'. For `req`, each
// token after the id is either `optimizer=<name>` (registry entry for this
// request) or a number that strtod reads whole (a deadline override in
// ms; inf and nan are numbers). The last of each kind wins; any other
// token makes the header bad. Other verbs ignore tokens after the id.
//
// A pure function of the payload bytes; every view points into the
// payload.

#include <optional>
#include <string>
#include <string_view>

namespace aqo {

struct RequestHeader {
  std::string_view verb;  // first header token; empty for an empty line
  std::string_view id;    // second header token; empty when absent
  std::string_view head;  // the first line, without its '\n'
  std::string_view body;  // everything after the first '\n'

  // `req` only.
  std::optional<double> deadline_ms;
  std::string_view optimizer;  // empty: the server's configured entry
  // The instance family: the first token of the body's first record line
  // (io/serialization.h FirstTag), so leading comments are skipped.
  std::string_view family;
  // "bad request header: <token>" for the first token that is neither a
  // number nor `optimizer=`; empty when the header is good.
  std::string error;
};

RequestHeader ParseRequestHeader(std::string_view payload);

}  // namespace aqo

#endif  // AQO_IO_REQUEST_H_
