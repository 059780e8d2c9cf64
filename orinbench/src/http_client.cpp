#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "server/json.h"
#include "stats.h"

namespace orinbench {

int parse_status_line(std::string_view head) {
  // "HTTP/1.1 200 OK"
  const std::size_t sp = head.find(' ');
  if (head.substr(0, 5) != "HTTP/" || sp == std::string_view::npos || sp + 4 > head.size()) {
    return 0;
  }
  int code = 0;
  for (std::size_t i = sp + 1; i < sp + 4; ++i) {
    const char c = head[i];
    if (c < '0' || c > '9') return 0;
    code = code * 10 + (c - '0');
  }
  return code;
}

void SseParser::feed(std::string_view bytes) {
  buf_.append(bytes);
  if (!head_done_) {
    const std::size_t end = buf_.find("\r\n\r\n");
    if (end == std::string::npos) return;
    status_ = parse_status_line(std::string_view(buf_).substr(0, end));
    head_done_ = true;
    buf_.erase(0, end + 4);
  }
  parse_events();
}

void SseParser::parse_events() {
  // Complete lines only; a trailing partial line waits for the next feed.
  std::size_t start = 0;
  std::string data;
  bool have_data = false;
  std::size_t consumed = 0;
  while (true) {
    const std::size_t nl = buf_.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(buf_.data() + start, nl - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    start = nl + 1;
    if (line.empty()) {
      if (have_data) events_.push_back(std::move(data));
      data.clear();
      have_data = false;
      consumed = start;  // an event ends at a blank line
      continue;
    }
    if (line.substr(0, 5) == "data:") {
      std::string_view payload = line.substr(5);
      if (!payload.empty() && payload.front() == ' ') payload.remove_prefix(1);
      if (have_data) data.push_back('\n');
      data.append(payload);
      have_data = true;
    }
  }
  // Lines of an unfinished event stay buffered and are re-read next time.
  buf_.erase(0, consumed);
}

std::vector<std::string> SseParser::take_events() {
  std::vector<std::string> out;
  out.swap(events_);
  return out;
}

namespace {

constexpr int kIoTimeoutMs = 120000;

int connect_local(std::uint16_t port, std::string& error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

// One read with a timeout: >0 bytes, 0 on orderly close, -1 on error/timeout.
ssize_t recv_some(int fd, char* buf, std::size_t cap) {
  while (true) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, kIoTimeoutMs);
    if (pr < 0 && errno == EINTR) continue;
    if (pr <= 0) return -1;
    const ssize_t n = ::recv(fd, buf, cap, 0);
    if (n < 0 && errno == EINTR) continue;
    return n;
  }
}

class Socket {
 public:
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() {
    if (fd_ >= 0) ::close(fd_);
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  int get() const { return fd_; }

 private:
  int fd_;
};

}  // namespace

CompletionResult stream_completion(std::uint16_t port, const std::string& prompt,
                                   std::size_t max_tokens, Tracer& tracer,
                                   std::int64_t request_id) {
  CompletionResult r;
  const std::int64_t connect_span = tracer.begin("http.connect", request_id);
  Socket sock(connect_local(port, r.error));
  tracer.end(connect_span);
  if (sock.get() < 0) return r;

  const std::string body = "{\"prompt\": \"" + json_escape(prompt) +
                           "\", \"max_tokens\": " + std::to_string(max_tokens) +
                           ", \"stream\": true}";
  const std::string request = "POST /v1/completions HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Content-Type: application/json\r\nContent-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  std::int64_t phase = tracer.begin("http.head", request_id);
  if (!send_all(sock.get(), request)) {
    tracer.end(phase);
    r.error = "send failed";
    return r;
  }
  r.send_s = now_s();

  SseParser parser;
  char buf[8192];
  bool saw_final = false;
  while (!r.done) {
    const ssize_t n = recv_some(sock.get(), buf, sizeof(buf));
    if (n <= 0) break;
    const double t = now_s();
    const bool had_head = parser.head_complete();
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    if (!had_head && parser.head_complete()) {
      r.head_s = t;
      r.status = parser.status();
      tracer.end(phase);
      phase = tracer.begin("http.first_token", request_id);
      if (r.status != 200) break;
    }
    for (const std::string& ev : parser.take_events()) {
      if (ev == "[DONE]") {
        r.done = true;
        break;
      }
      orinsim::server::JsonValue v;
      const orinsim::server::JsonValue* choices = nullptr;
      if (!orinsim::server::JsonValue::parse(ev, v) || !v.is_object() ||
          (choices = v.find("choices")) == nullptr || choices->items().empty()) {
        r.error = "malformed SSE event: " + ev.substr(0, 80);
        continue;
      }
      const orinsim::server::JsonValue& choice = choices->items().front();
      const orinsim::server::JsonValue* text = choice.find("text");
      const orinsim::server::JsonValue* finish = choice.find("finish_reason");
      if (finish != nullptr && finish->is_string()) {
        saw_final = true;
        if (const orinsim::server::JsonValue* usage = v.find("usage"); usage != nullptr) {
          if (const orinsim::server::JsonValue* ct = usage->find("completion_tokens");
              ct != nullptr && ct->is_number()) {
            r.usage_completion_tokens = static_cast<std::size_t>(ct->as_number());
          }
        }
        continue;
      }
      if (text == nullptr || !text->is_string()) {
        r.error = "SSE token without text";
        continue;
      }
      if (r.token_times.empty()) {
        tracer.end(phase);
        phase = tracer.begin("http.stream", request_id);
      }
      r.token_times.push_back(t);
      r.text += text->as_string();
    }
  }
  tracer.end(phase);
  if (r.status == 200 && !r.done && r.error.empty()) r.error = "stream ended before [DONE]";
  if (r.status == 200 && r.done && !saw_final && r.error.empty()) {
    r.error = "stream had no final chunk";
  }
  return r;
}

GetResult http_get(std::uint16_t port, const std::string& path) {
  GetResult r;
  std::string error;
  Socket sock(connect_local(port, error));
  if (sock.get() < 0) return r;
  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  if (!send_all(sock.get(), request)) return r;
  std::string raw;
  char buf[8192];
  while (true) {
    const ssize_t n = recv_some(sock.get(), buf, sizeof(buf));
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  const std::size_t end = raw.find("\r\n\r\n");
  if (end == std::string::npos) return r;
  r.status = parse_status_line(std::string_view(raw).substr(0, end));
  r.body = raw.substr(end + 4);
  return r;
}

}  // namespace orinbench
