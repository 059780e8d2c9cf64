#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include "server/json.h"
#include "server/metrics.h"

namespace orinsim::server {

namespace {

bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

std::string error_body(std::string_view message, std::string_view type) {
  return "{\"error\":{\"message\":" + json_string(message) +
         ",\"type\":" + json_string(type) + "}}\n";
}

bool send_error(int fd, int status, std::string_view message, std::string_view type) {
  return send_all(fd, http_response(status, "application/json", error_body(message, type)));
}

// Self-pipe for run_until_signal: the handler must be async-signal-safe, so
// it only writes one byte.
int g_signal_pipe[2] = {-1, -1};

void signal_handler(int) {
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

struct Server::Connection {
  std::thread thread;
  std::shared_ptr<std::atomic<bool>> done;
};

Server::Server(EngineHost& host, ServerConfig config)
    : host_(host), config_(std::move(config)) {}

Server::~Server() { shutdown(); }

bool Server::start(std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message + ": " + std::strerror(errno);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  };

  // SSE writes race client disconnects by design; failures surface as
  // send() errors, not process-killing SIGPIPEs.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return fail("inet_pton(" + config_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, config_.listen_backlog) != 0) return fail("listen");

  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);

  if (::pipe(wake_pipe_) != 0) return fail("pipe");

  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int pr = ::poll(fds, 2, 250);
    if (pr < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load()) break;
    {
      std::lock_guard<std::mutex> lk(conn_mu_);
      reap_finished_locked();
    }
    if (pr == 0 || !(fds[0].revents & POLLIN)) continue;

    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // SSE sends one small write per token: without TCP_NODELAY, Nagle holds
    // each write until the client's delayed ACK, stretching inter-token gaps.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::lock_guard<std::mutex> lk(conn_mu_);
    if (live_connections_ >= config_.max_connections) {
      // Bounded accept: shed load at the door instead of queueing threads.
      send_error(fd, 503, "connection limit reached", "overloaded");
      ::close(fd);
      continue;
    }
    ++live_connections_;
    auto done = std::make_shared<std::atomic<bool>>(false);
    connections_.push_back(Connection{
        std::thread([this, fd, done] {
          handle_connection(fd);
          ::close(fd);
          std::lock_guard<std::mutex> inner(conn_mu_);
          --live_connections_;
          done->store(true);
        }),
        done});
  }
}

void Server::reap_finished_locked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done->load()) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::handle_connection(int fd) {
  HttpParser parser(config_.http_limits);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.receive_timeout_ms);
  while (!parser.done() && !parser.failed()) {
    pollfd p{fd, POLLIN, 0};
    const int pr = ::poll(&p, 1, 250);
    if (stopping_.load() && !parser.done()) {
      send_error(fd, 503, "server is shutting down", "shutting_down");
      return;
    }
    if (pr < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (pr == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        send_error(fd, 400, "timed out waiting for request", "timeout");
        return;
      }
      continue;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) return;  // client closed (or error) before completing a request
    parser.feed(std::string_view(buf, static_cast<std::size_t>(n)));
  }
  if (parser.failed()) {
    send_error(fd, parser.error_status(), parser.error_reason(), "bad_request");
    return;
  }
  serve_request(fd, parser.request());
}

void Server::serve_request(int fd, const HttpRequest& request) {
  if (request.path == "/healthz") {
    send_all(fd, http_response(200, "text/plain", "ok\n"));
    return;
  }
  if (request.path == "/metrics") {
    if (request.method != "GET") {
      send_error(fd, 405, "use GET", "method_not_allowed");
      return;
    }
    send_all(fd, http_response(200, prometheus_content_type(),
                               render_prometheus(host_.metrics())));
    return;
  }
  if (request.path == "/v1/completions") {
    if (request.method != "POST") {
      send_error(fd, 405, "use POST", "method_not_allowed");
      return;
    }
    serve_completion(fd, request);
    return;
  }
  send_error(fd, 404, "no such route: " + request.path, "not_found");
}

void Server::serve_completion(int fd, const HttpRequest& request) {
  JsonValue body;
  std::string parse_error;
  if (!JsonValue::parse(request.body, body, &parse_error) || !body.is_object()) {
    send_error(fd, 400, "body must be a JSON object (" + parse_error + ")",
               "invalid_request_error");
    return;
  }
  const JsonValue* prompt = body.find("prompt");
  if (prompt == nullptr || !prompt->is_string()) {
    send_error(fd, 400, "\"prompt\" must be a string", "invalid_request_error");
    return;
  }
  std::size_t max_tokens = 16;
  if (const JsonValue* mt = body.find("max_tokens"); mt != nullptr) {
    const double v = mt->is_number() ? mt->as_number() : -1.0;
    if (v < 1.0 || v > 1e9 || v != std::floor(v)) {
      send_error(fd, 400, "\"max_tokens\" must be a positive integer",
                 "invalid_request_error");
      return;
    }
    max_tokens = static_cast<std::size_t>(v);
  }
  bool stream = true;
  if (const JsonValue* s = body.find("stream"); s != nullptr) {
    if (!s->is_bool()) {
      send_error(fd, 400, "\"stream\" must be a boolean", "invalid_request_error");
      return;
    }
    stream = s->as_bool();
  }

  EngineHost::Submission sub = host_.submit(prompt->as_string(), max_tokens);
  switch (sub.status) {
    case EngineHost::SubmitStatus::kRejected:
      send_error(fd, 429, "engine queue is full, retry later", "overloaded");
      return;
    case EngineHost::SubmitStatus::kDraining:
      send_error(fd, 503, "server is draining", "shutting_down");
      return;
    case EngineHost::SubmitStatus::kInvalid:
      send_error(fd, 400, sub.error, "invalid_request_error");
      return;
    case EngineHost::SubmitStatus::kOk:
      break;
  }

  if (stream) {
    if (!send_all(fd, sse_response_head())) {
      sub.stream->cancel();
      return;
    }
    std::string token;
    while (sub.stream->next_token(token)) {
      const std::string payload =
          "{\"object\":\"text_completion.chunk\",\"model\":" +
          json_string(config_.model_name) + ",\"choices\":[{\"index\":0,\"text\":" +
          json_string(token) + ",\"finish_reason\":null}]}";
      if (!send_all(fd, sse_event(payload))) {
        // Client went away mid-stream: stop delivering, let the engine run
        // the request to completion on its own.
        sub.stream->cancel();
        return;
      }
    }
    const CompletionStream::Final& fin = sub.stream->final_info();
    const std::string last =
        "{\"object\":\"text_completion.chunk\",\"model\":" +
        json_string(config_.model_name) +
        ",\"choices\":[{\"index\":0,\"text\":\"\",\"finish_reason\":\"length\"}]"
        ",\"usage\":{\"prompt_tokens\":" + std::to_string(fin.prompt_tokens) +
        ",\"completion_tokens\":" + std::to_string(fin.completion_tokens) +
        ",\"total_tokens\":" + std::to_string(fin.prompt_tokens + fin.completion_tokens) +
        "}}";
    if (!send_all(fd, sse_event(last))) return;
    send_all(fd, sse_event("[DONE]"));
    return;
  }

  std::string text;
  std::string token;
  while (sub.stream->next_token(token)) text += token;
  const CompletionStream::Final& fin = sub.stream->final_info();
  const std::string response_body =
      "{\"object\":\"text_completion\",\"model\":" + json_string(config_.model_name) +
      ",\"choices\":[{\"index\":0,\"text\":" + json_string(text) +
      ",\"finish_reason\":\"length\"}],\"usage\":{\"prompt_tokens\":" +
      std::to_string(fin.prompt_tokens) + ",\"completion_tokens\":" +
      std::to_string(fin.completion_tokens) + ",\"total_tokens\":" +
      std::to_string(fin.prompt_tokens + fin.completion_tokens) + "}}\n";
  send_all(fd, http_response(200, "application/json", response_body));
}

void Server::run_until_signal() {
  if (::pipe(g_signal_pipe) != 0) return;
  struct sigaction sa{};
  sa.sa_handler = signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);

  char byte = 0;
  while (true) {
    const ssize_t n = ::read(g_signal_pipe[0], &byte, 1);
    if (n > 0 || (n < 0 && errno != EINTR)) break;
  }
  shutdown();
  ::close(g_signal_pipe[0]);
  ::close(g_signal_pipe[1]);
  g_signal_pipe[0] = g_signal_pipe[1] = -1;
}

void Server::shutdown() {
  if (shut_down_) return;
  shut_down_ = true;
  stopping_.store(true);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Let every in-flight request retire and flush its stream, then join the
  // connection threads that are writing those bytes out.
  host_.drain();
  std::list<Connection> remaining;
  {
    std::lock_guard<std::mutex> lk(conn_mu_);
    remaining.swap(connections_);
  }
  for (Connection& c : remaining) {
    if (c.thread.joinable()) c.thread.join();
  }

  for (int& fd : wake_pipe_) {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }
}

}  // namespace orinsim::server
