#include "net/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/events.h"
#include "obs/metrics.h"

namespace tpset::net {

namespace {

obs::Counter& RequestsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_net_http_requests_total",
      "HTTP responses written by the introspection server (any status)");
  return c;
}

obs::Counter& ErrorsCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_net_http_errors_total",
      "HTTP responses with a 4xx/5xx status (parse errors, unknown paths, "
      "timeouts, saturation)");
  return c;
}

obs::Counter& SaturatedCounter() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tpset_net_http_saturated_total",
      "connections shed with an immediate 503 because the pending queue was "
      "full");
  return c;
}

obs::Histogram& RequestLatencyHistogram() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tpset_net_http_request_usec",
      "wall microseconds per served connection (read to response written)");
  return h;
}

obs::Gauge& PendingGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tpset_net_http_pending_connections",
      "accepted connections waiting for a worker");
  return g;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string PercentDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '%' && i + 2 < text.size()) {
      const int hi = HexValue(text[i + 1]), lo = HexValue(text[i + 2]);
      if (hi >= 0 && lo >= 0) {
        out.push_back(static_cast<char>(hi * 16 + lo));
        i += 2;
        continue;
      }
    }
    out.push_back(text[i] == '+' ? ' ' : text[i]);
  }
  return out;
}

std::string_view TrimSpace(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' ||
                        s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

/// Writes all of `data` to `fd`, tolerating short writes; gives up on error
/// or send-timeout expiry (the peer stopped reading — abandon, don't block).
bool SendAll(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent > 0) {
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

// ---- HttpRequest / HttpResponse ---------------------------------------------

std::string HttpRequest::QueryParam(const std::string& name,
                                    const std::string& fallback) const {
  auto it = query.find(name);
  return it == query.end() ? fallback : it->second;
}

HttpResponse HttpResponse::Text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::Json(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "application/json; charset=utf-8";
  r.body = std::move(body);
  return r;
}

HttpResponse HttpResponse::Html(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.content_type = "text/html; charset=utf-8";
  r.body = std::move(body);
  return r;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Response";
  }
}

// ---- RequestParser ----------------------------------------------------------

RequestParser::RequestParser(std::size_t max_header_bytes,
                             std::size_t max_body_bytes)
    : max_header_bytes_(max_header_bytes < 64 ? 64 : max_header_bytes),
      max_body_bytes_(max_body_bytes) {}

RequestParser::State RequestParser::Fail(int status) {
  state_ = State::kError;
  error_status_ = status;
  buffer_.clear();
  return state_;
}

RequestParser::State RequestParser::Feed(const char* data, std::size_t n) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(data, n);
  if (!in_body_) {
    // Look for the end of the header block. CRLFCRLF per spec; bare LFLF is
    // tolerated (hand-typed requests over netcat).
    std::size_t header_end = buffer_.find("\r\n\r\n");
    std::size_t sep_len = 4;
    if (header_end == std::string::npos) {
      header_end = buffer_.find("\n\n");
      sep_len = 2;
    }
    if (header_end == std::string::npos) {
      if (buffer_.size() > max_header_bytes_) return Fail(431);
      return State::kNeedMore;
    }
    if (header_end > max_header_bytes_) return Fail(431);
    const State parsed = ParseHeaders(header_end);
    if (parsed == State::kError) return parsed;
    // Shift any body bytes that arrived with the headers to the front.
    buffer_.erase(0, header_end + sep_len);
    in_body_ = true;
  }
  if (buffer_.size() >= body_expected_) {
    request_.body = buffer_.substr(0, body_expected_);
    buffer_.clear();
    state_ = State::kDone;
  }
  return state_;
}

RequestParser::State RequestParser::ParseHeaders(std::size_t header_end) {
  const std::string_view block(buffer_.data(), header_end);

  // Request line: METHOD SP request-target SP HTTP/major.minor
  const std::size_t line_end = block.find('\n');
  std::string_view line =
      TrimSpace(block.substr(0, std::min(line_end, block.size())));
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return Fail(400);
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = TrimSpace(line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = line.substr(sp2 + 1);
  if (method.empty() || target.empty() || target[0] != '/') return Fail(400);
  for (char c : method) {
    if (!std::isupper(static_cast<unsigned char>(c))) return Fail(400);
  }
  if (version.rfind("HTTP/", 0) != 0) return Fail(400);
  if (version != "HTTP/1.1" && version != "HTTP/1.0") return Fail(505);
  request_.method.assign(method);
  request_.target.assign(target);

  // Split target into path + decoded query parameters.
  const std::size_t qmark = target.find('?');
  request_.path = PercentDecode(target.substr(0, qmark));
  if (qmark != std::string_view::npos) {
    std::string_view qs = target.substr(qmark + 1);
    while (!qs.empty()) {
      const std::size_t amp = qs.find('&');
      const std::string_view pair = qs.substr(0, amp);
      const std::size_t eq = pair.find('=');
      if (!pair.empty()) {
        request_.query[PercentDecode(pair.substr(0, eq))] =
            eq == std::string_view::npos
                ? std::string()
                : PercentDecode(pair.substr(eq + 1));
      }
      if (amp == std::string_view::npos) break;
      qs.remove_prefix(amp + 1);
    }
  }

  // Header fields: Name ':' value, one per line.
  std::size_t pos = line_end == std::string_view::npos ? block.size()
                                                       : line_end + 1;
  while (pos < block.size()) {
    std::size_t eol = block.find('\n', pos);
    if (eol == std::string_view::npos) eol = block.size();
    const std::string_view raw = TrimSpace(block.substr(pos, eol - pos));
    pos = eol + 1;
    if (raw.empty()) continue;
    const std::size_t colon = raw.find(':');
    if (colon == std::string_view::npos || colon == 0) return Fail(400);
    std::string name(TrimSpace(raw.substr(0, colon)));
    std::transform(name.begin(), name.end(), name.begin(), [](unsigned char c) {
      return static_cast<char>(std::tolower(c));
    });
    request_.headers[std::move(name)] =
        std::string(TrimSpace(raw.substr(colon + 1)));
  }

  // Body length. Chunked encoding is not supported (the introspection plane
  // is GET-shaped); reject rather than misread the framing.
  auto te = request_.headers.find("transfer-encoding");
  if (te != request_.headers.end() && !te->second.empty()) return Fail(400);
  auto cl = request_.headers.find("content-length");
  if (cl != request_.headers.end()) {
    const std::string& text = cl->second;
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos) {
      return Fail(400);
    }
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), nullptr, 10);
    if (errno != 0 || v > max_body_bytes_) return Fail(413);
    body_expected_ = static_cast<std::size_t>(v);
  }
  return State::kNeedMore;
}

// ---- HttpServer lifecycle ---------------------------------------------------

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.worker_threads < 1) options_.worker_threads = 1;
  if (options_.max_queued_connections < 1) options_.max_queued_connections = 1;
  if (options_.request_timeout_ms < 10) options_.request_timeout_ms = 10;
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Route(const std::string& path, Handler handler) {
  routes_[path] = std::move(handler);
}

Status HttpServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("HTTP server is already running on " +
                                   address());
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" +
                                   options_.bind_address + "'");
  }

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("bind " + options_.bind_address + ":" +
                           std::to_string(options_.port) + ": " + err);
  }
  if (::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("getsockname: " + err);
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;

  stop_requested_ = false;
  running_.store(true, std::memory_order_release);
  workers_.reserve(options_.worker_threads);
  for (std::size_t i = 0; i < options_.worker_threads; ++i) {
    workers_.emplace_back([this]() { WorkerLoop(); });
  }
  acceptor_ = std::thread([this]() { AcceptLoop(); });
  obs::EmitEvent(obs::Severity::kInfo, "net",
                 "http server listening addr=%.32s port=%u workers=%zu",
                 options_.bind_address.c_str(), static_cast<unsigned>(port_),
                 options_.worker_threads);
  return Status::OK();
}

void HttpServer::Stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_requested_ = true;
  }
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Workers drain everything already accepted (graceful), then exit on the
  // empty queue + stop flag.
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  running_.store(false, std::memory_order_release);
  obs::EmitEvent(obs::Severity::kInfo, "net",
                 "http server stopped port=%u served=%llu shed=%llu",
                 static_cast<unsigned>(port_),
                 static_cast<unsigned long long>(
                     served_.load(std::memory_order_relaxed)),
                 static_cast<unsigned long long>(
                     saturated_.load(std::memory_order_relaxed)));
}

std::string HttpServer::address() const {
  return options_.bind_address + ":" + std::to_string(port_);
}

HttpServerStats HttpServer::stats() const {
  HttpServerStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.served = served_.load(std::memory_order_relaxed);
  s.saturated = saturated_.load(std::memory_order_relaxed);
  s.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  s.timeouts = timeouts_.load(std::memory_order_relaxed);
  return s;
}

// ---- Accept loop ------------------------------------------------------------

void HttpServer::AcceptLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stop_requested_) return;
    }
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout (recheck stop) or EINTR
    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    // Per-connection socket deadlines: a read that stalls past the request
    // timeout wakes ServeConnection (which checks the absolute deadline); a
    // peer that stops reading its response unblocks send() the same way.
    timeval tv;
    tv.tv_sec = options_.request_timeout_ms / 1000;
    tv.tv_usec = (options_.request_timeout_ms % 1000) * 1000;
    ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(conn, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

    bool shed = false;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (stop_requested_ || pending_.size() >= options_.max_queued_connections) {
        shed = true;
      } else {
        pending_.push_back(conn);
        PendingGauge().Set(static_cast<std::int64_t>(pending_.size()));
      }
    }
    if (shed) {
      // Load-shedding at the door: answer 503 without consuming a worker.
      // Observability must not become the DoS vector — beyond the bounded
      // queue, every connection costs one canned write and nothing else.
      // Counted before the write, so a client that has read its 503 also
      // sees it in stats().
      saturated_.fetch_add(1, std::memory_order_relaxed);
      SaturatedCounter().Increment();
      ErrorsCounter().Increment();
      static constexpr char k503[] =
          "HTTP/1.1 503 Service Unavailable\r\n"
          "Content-Type: text/plain; charset=utf-8\r\n"
          "Content-Length: 21\r\nConnection: close\r\n\r\n"
          "server saturated, 503";
      SendAll(conn, k503, sizeof(k503) - 1);
      ::close(conn);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    queue_cv_.notify_one();
  }
}

// ---- Workers ----------------------------------------------------------------

void HttpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this]() { return stop_requested_ || !pending_.empty(); });
      if (pending_.empty()) return;  // stop requested and fully drained
      fd = pending_.front();
      pending_.pop_front();
      PendingGauge().Set(static_cast<std::int64_t>(pending_.size()));
    }
    ServeConnection(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline =
      t0 + std::chrono::milliseconds(options_.request_timeout_ms);
  RequestParser parser(options_.max_header_bytes, options_.max_body_bytes);
  char buf[4096];
  bool closed_early = false;

  while (parser.state() == RequestParser::State::kNeedMore) {
    if (std::chrono::steady_clock::now() >= deadline) {
      timeouts_.fetch_add(1, std::memory_order_relaxed);
      WriteResponse(fd, HttpResponse::Text(408, "request timeout\n"),
                    /*head_only=*/false);
      ::close(fd);
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      parser.Feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;  // interrupted or SO_RCVTIMEO tick; the deadline check rules
    }
    closed_early = true;  // peer hung up mid-request
    break;
  }

  if (parser.state() == RequestParser::State::kError) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    WriteResponse(fd,
                  HttpResponse::Text(parser.error_status(),
                                     std::string(StatusReason(
                                         parser.error_status())) +
                                         "\n"),
                  /*head_only=*/false);
    ::close(fd);
    return;
  }
  if (closed_early || parser.state() != RequestParser::State::kDone) {
    ::close(fd);  // nothing (or half a request) arrived; no one is listening
    return;
  }

  const HttpRequest& request = parser.request();
  const bool head_only = request.method == "HEAD";
  HttpResponse response;
  if (request.method != "GET" && !head_only) {
    response = HttpResponse::Text(
        405, "method " + request.method + " not allowed; this server is "
             "GET/HEAD only\n");
  } else {
    auto it = routes_.find(request.path);
    if (it == routes_.end()) {
      response = HttpResponse::Text(404, "no endpoint " + request.path + "\n");
    } else {
      try {
        response = it->second(request);
      } catch (const std::exception& e) {
        response = HttpResponse::Text(
            500, std::string("handler failed: ") + e.what() + "\n");
      } catch (...) {
        response = HttpResponse::Text(500, "handler failed\n");
      }
    }
  }
  WriteResponse(fd, response, head_only);
  ::close(fd);
  RequestLatencyHistogram().Observe(obs::ElapsedUsec(t0));
}

void HttpServer::WriteResponse(int fd, const HttpResponse& response,
                               bool head_only) {
  std::string out;
  out.reserve(128 + (head_only ? 0 : response.body.size()));
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += StatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  if (!head_only) out += response.body;
  SendAll(fd, out.data(), out.size());
  served_.fetch_add(1, std::memory_order_relaxed);
  RequestsCounter().Increment();
  if (response.status >= 400) ErrorsCounter().Increment();
}

}  // namespace tpset::net
