#include "serve/http_server.h"

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace ides {

namespace {

bool equalsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trimSpaces(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

HttpParseResult bad(int status, std::string message) {
  HttpParseResult result;
  result.status = HttpParseStatus::Bad;
  result.errorStatus = status;
  result.error = std::move(message);
  return result;
}

/// Strict non-negative decimal within `max`; nullopt on anything else
/// (signs, spaces, hex, overflow — a daemon should not guess here).
std::optional<std::size_t> parseContentLength(std::string_view value,
                                              std::size_t max) {
  if (value.empty() || value.size() > 12) return std::nullopt;
  std::size_t length = 0;
  for (const char c : value) {
    if (c < '0' || c > '9') return std::nullopt;
    length = length * 10 + static_cast<std::size_t>(c - '0');
  }
  if (length > max) return std::nullopt;
  return length;
}

}  // namespace

const std::string* HttpRequest::header(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (equalsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

HttpParseResult parseHttpRequest(std::string_view buffer, HttpRequest& out,
                                 const HttpLimits& limits) {
  out = HttpRequest{};

  // Header block first: everything up to the blank line.
  const std::size_t headerEnd = buffer.find("\r\n\r\n");
  if (headerEnd == std::string_view::npos) {
    if (buffer.size() > limits.maxHeaderBytes) {
      return bad(431, "header block exceeds " +
                          std::to_string(limits.maxHeaderBytes) + " bytes");
    }
    // A lone LF-terminated request is a client speaking the wrong dialect,
    // not an incomplete CRLF one — reject instead of waiting forever.
    if (buffer.find("\n\n") != std::string_view::npos) {
      return bad(400, "header lines must be CRLF-terminated");
    }
    return HttpParseResult{};  // NeedMore
  }
  if (headerEnd + 4 > limits.maxHeaderBytes) {
    return bad(431, "header block exceeds " +
                        std::to_string(limits.maxHeaderBytes) + " bytes");
  }

  // Request line: METHOD SP target SP HTTP/1.x
  std::size_t lineEnd = buffer.find("\r\n");
  if (lineEnd > limits.maxRequestLine) {
    return bad(414, "request line exceeds " +
                        std::to_string(limits.maxRequestLine) + " bytes");
  }
  const std::string_view requestLine = buffer.substr(0, lineEnd);
  const std::size_t sp1 = requestLine.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? std::string_view::npos
                                    : requestLine.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
      requestLine.find(' ', sp2 + 1) != std::string_view::npos) {
    return bad(400, "malformed request line");
  }
  const std::string_view method = requestLine.substr(0, sp1);
  const std::string_view target =
      requestLine.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = requestLine.substr(sp2 + 1);
  if (method.empty() || target.empty() || target.front() != '/') {
    return bad(400, "malformed request line");
  }
  for (const char c : method) {
    if (c < 'A' || c > 'Z') return bad(400, "malformed method");
  }
  if (version != "HTTP/1.1" && version != "HTTP/1.0") {
    return bad(505, "unsupported protocol version");
  }

  // Header lines.
  std::optional<std::size_t> contentLength;
  std::size_t pos = lineEnd + 2;
  while (pos < headerEnd + 2) {
    const std::size_t next = buffer.find("\r\n", pos);
    const std::string_view line = buffer.substr(pos, next - pos);
    pos = next + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return bad(400, "malformed header line");
    }
    const std::string_view name = line.substr(0, colon);
    if (name.find(' ') != std::string_view::npos ||
        name.find('\t') != std::string_view::npos) {
      return bad(400, "whitespace in header name");
    }
    const std::string_view value = trimSpaces(line.substr(colon + 1));
    if (out.headers.size() >= limits.maxHeaderCount) {
      return bad(431, "more than " +
                          std::to_string(limits.maxHeaderCount) +
                          " headers");
    }
    out.headers.emplace_back(std::string(name), std::string(value));
    if (equalsIgnoreCase(name, "Transfer-Encoding")) {
      return bad(501, "Transfer-Encoding is not supported");
    }
    if (equalsIgnoreCase(name, "Content-Length")) {
      const std::optional<std::size_t> parsed =
          parseContentLength(value, limits.maxBodyBytes);
      if (!parsed.has_value()) {
        return bad(parseContentLength(value,
                                      std::numeric_limits<std::size_t>::max())
                           .has_value()
                       ? 413
                       : 400,
                   "bad Content-Length");
      }
      if (contentLength.has_value() && *contentLength != *parsed) {
        return bad(400, "conflicting Content-Length headers");
      }
      contentLength = parsed;
    }
  }

  const std::size_t bodyStart = headerEnd + 4;
  const std::size_t bodyLength = contentLength.value_or(0);
  if (buffer.size() < bodyStart + bodyLength) {
    return HttpParseResult{};  // NeedMore — body still in flight
  }

  out.method = std::string(method);
  out.target = std::string(target);
  const std::size_t qmark = target.find('?');
  out.path = std::string(target.substr(0, qmark));
  out.query = qmark == std::string_view::npos
                  ? std::string()
                  : std::string(target.substr(qmark + 1));
  out.body = std::string(buffer.substr(bodyStart, bodyLength));

  HttpParseResult result;
  result.status = HttpParseStatus::Done;
  result.consumed = bodyStart + bodyLength;
  return result;
}

const char* httpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 414: return "URI Too Long";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string renderHttpResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += httpStatusReason(response.status);
  out += "\r\nContent-Type: ";
  out += response.contentType;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

HttpServer::HttpServer(const std::string& bindAddress, int port,
                       HttpLimits limits)
    : limits_(limits) {
  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listenFd_ < 0) {
    throw std::runtime_error("HttpServer: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bindAddress.c_str(), &addr.sin_addr) != 1) {
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: bad bind address " + bindAddress);
  }
  // The largest backlog the kernel allows: a burst of clients queues until
  // the accept loop reaches it, instead of losing SYNs to a short queue
  // and waiting out the 1 s retransmit.
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listenFd_, SOMAXCONN) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    throw std::runtime_error("HttpServer: cannot listen on " + bindAddress +
                             ":" + std::to_string(port) + ": " + reason);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = static_cast<int>(ntohs(addr.sin_port));
}

HttpServer::~HttpServer() {
  if (listenFd_ >= 0) ::close(listenFd_);
}

void HttpServer::serve(const Handler& handler, const StopToken* stop,
                       const LogSink& log) {
  while (stop == nullptr || !stop->stopRequested()) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready <= 0) continue;

    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    const int fd =
        ::accept(listenFd_, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) continue;

    char ip[INET_ADDRSTRLEN] = "?";
    ::inet_ntop(AF_INET, &peer.sin_addr, ip, sizeof(ip));
    std::string peerName = ip;
    peerName += ':';
    peerName += std::to_string(ntohs(peer.sin_port));

    handleConnection(fd, peerName, handler, log);
    ::close(fd);
    ++served_;
  }
}

void HttpServer::handleConnection(int fd, const std::string& peer,
                                  const Handler& handler,
                                  const LogSink& log) {
  const auto start = std::chrono::steady_clock::now();

  // Slow-client guard: a connection may not hold the accept loop hostage.
  timeval timeout{};
  timeout.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

  std::string buffer;
  HttpRequest request;
  HttpResponse response;
  bool parsed = false;
  const std::size_t maxRequestBytes =
      limits_.maxHeaderBytes + limits_.maxBodyBytes;
  while (true) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (buffer.empty()) {
        // Probe connection (e.g. a health checker testing the port).
        if (log) {
          log(RequestLogEntry{peer, "-", "-", 0, 0, 0,
                              std::chrono::duration<double, std::milli>(
                                  std::chrono::steady_clock::now() - start)
                                  .count()});
        }
        return;
      }
      response = HttpResponse{400, "application/json",
                              "{\"error\": \"incomplete request\"}\n"};
      break;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
    const HttpParseResult result =
        parseHttpRequest(buffer, request, limits_);
    if (result.status == HttpParseStatus::NeedMore) {
      if (buffer.size() > maxRequestBytes) {
        response = HttpResponse{413, "application/json",
                                "{\"error\": \"request too large\"}\n"};
        break;
      }
      continue;
    }
    if (result.status == HttpParseStatus::Bad) {
      response = HttpResponse{result.errorStatus, "application/json",
                              "{\"error\": \"" + result.error + "\"}\n"};
      break;
    }
    if (result.consumed < buffer.size()) {
      response =
          HttpResponse{400, "application/json",
                       "{\"error\": \"pipelined requests are not "
                       "supported\"}\n"};
      break;
    }
    parsed = true;
    try {
      response = handler(request);
    } catch (const std::exception& e) {
      response = HttpResponse{500, "application/json",
                              "{\"error\": \"internal error\"}\n"};
      (void)e;
    }
    break;
  }

  const std::string wire = renderHttpResponse(response);
  std::size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a client that hung up must not SIGPIPE the daemon.
    const ssize_t n = ::send(fd, wire.data() + sent, wire.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }

  if (log) {
    RequestLogEntry entry;
    entry.peer = peer;
    entry.method = parsed ? request.method : "-";
    entry.target = parsed ? request.target : "-";
    entry.status = response.status;
    entry.bytesIn = buffer.size();
    entry.bytesOut = sent;
    entry.milliseconds = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    log(entry);
  }
}

}  // namespace ides
