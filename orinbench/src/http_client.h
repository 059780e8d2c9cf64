// A blocking HTTP/1.1 client for the daemon's two routes the benchmark
// drives: streaming completions (SSE) and the /metrics scrape.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "tracer.h"

namespace orinbench {

// Status code of an HTTP status line ("HTTP/1.1 200 OK"); 0 if malformed.
int parse_status_line(std::string_view head);

// Incremental parser of one HTTP response carrying a Server-Sent Events
// body. Socket reads may split a line, an event or the header block
// anywhere, or coalesce several events into one read; feed() accepts any
// such slicing and yields the same events.
class SseParser {
 public:
  void feed(std::string_view bytes);

  bool head_complete() const { return head_done_; }
  // Status code from the status line; 0 until the head is complete or if
  // the status line is malformed.
  int status() const { return status_; }
  // The `data:` payloads completed since the last call, in order.
  std::vector<std::string> take_events();

 private:
  void parse_events();

  std::string buf_;
  bool head_done_ = false;
  int status_ = 0;
  std::vector<std::string> events_;
};

struct CompletionResult {
  int status = 0;                    // 0: transport failure
  std::string error;                 // transport or protocol problem
  double send_s = 0.0;               // request bytes handed to the socket
  double head_s = 0.0;               // status line received
  std::vector<double> token_times;   // now_s() at which each token arrived
  std::string text;                  // concatenated token texts
  std::size_t usage_completion_tokens = 0;
  bool done = false;                 // saw "data: [DONE]"
};

// POSTs a streaming completion to 127.0.0.1:port and reads the SSE stream
// to its end. Spans (http.connect, http.head, http.first_token,
// http.stream) go under the caller's open span when the tracer is enabled.
CompletionResult stream_completion(std::uint16_t port, const std::string& prompt,
                                   std::size_t max_tokens, Tracer& tracer,
                                   std::int64_t request_id);

struct GetResult {
  int status = 0;
  std::string body;
};
GetResult http_get(std::uint16_t port, const std::string& path);

}  // namespace orinbench
