// HTTP layer: the request parser as a pure function over a byte buffer
// (the malformed-input matrix needs no sockets), response rendering, and
// one real-socket round trip through HttpServer::serve.
#include "serve/http_server.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/stop_token.h"

namespace ides {
namespace {

HttpParseResult parse(const std::string& buffer, HttpRequest& out,
                      const HttpLimits& limits = {}) {
  return parseHttpRequest(buffer, out, limits);
}

TEST(HttpParser, ParsesSimpleGet) {
  HttpRequest request;
  const std::string raw = "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n";
  const HttpParseResult result = parse(raw, request);
  ASSERT_EQ(result.status, HttpParseStatus::Done);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/healthz");
  EXPECT_EQ(request.path, "/healthz");
  EXPECT_EQ(request.query, "");
  EXPECT_EQ(request.body, "");
  ASSERT_EQ(request.headers.size(), 1u);
  EXPECT_EQ(request.headers[0].first, "Host");
  EXPECT_EQ(request.headers[0].second, "localhost");
}

TEST(HttpParser, SplitsTargetAtQuery) {
  HttpRequest request;
  const HttpParseResult result =
      parse("GET /jobs?state=done&k=v HTTP/1.1\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Done);
  EXPECT_EQ(request.target, "/jobs?state=done&k=v");
  EXPECT_EQ(request.path, "/jobs");
  EXPECT_EQ(request.query, "state=done&k=v");
}

TEST(HttpParser, ReadsBodyByContentLength) {
  HttpRequest request;
  const std::string raw =
      "POST /jobs HTTP/1.1\r\nContent-Length: 16\r\n\r\n{\"type\": \"bad\"}\n";
  const HttpParseResult result = parse(raw, request);
  ASSERT_EQ(result.status, HttpParseStatus::Done);
  EXPECT_EQ(result.consumed, raw.size());
  EXPECT_EQ(request.body, "{\"type\": \"bad\"}\n");
}

TEST(HttpParser, NeedsMoreForEveryStrictPrefix) {
  const std::string raw =
      "POST /jobs HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  for (std::size_t cut = 0; cut < raw.size(); ++cut) {
    HttpRequest request;
    const HttpParseResult result = parse(raw.substr(0, cut), request);
    EXPECT_EQ(result.status, HttpParseStatus::NeedMore)
        << "prefix of " << cut << " bytes";
  }
  HttpRequest request;
  EXPECT_EQ(parse(raw, request).status, HttpParseStatus::Done);
}

TEST(HttpParser, PipelinedRequestLeavesUnconsumedBytes) {
  const std::string one = "GET /healthz HTTP/1.1\r\n\r\n";
  HttpRequest request;
  const HttpParseResult result = parse(one + one, request);
  ASSERT_EQ(result.status, HttpParseStatus::Done);
  // The server treats consumed < buffer size as pipelining and rejects it;
  // the parser just reports the boundary.
  EXPECT_EQ(result.consumed, one.size());
}

TEST(HttpParser, RejectsMalformedRequestLine) {
  for (const char* raw : {
           "GARBAGE\r\n\r\n",                        // no spaces at all
           "GET /healthz\r\n\r\n",                   // missing version
           "GET  /healthz HTTP/1.1\r\n\r\n",         // extra space
           "GET healthz HTTP/1.1\r\n\r\n",           // target not absolute
           "get /healthz HTTP/1.1\r\n\r\n",          // lowercase method
           " /healthz HTTP/1.1\r\n\r\n",             // empty method
       }) {
    HttpRequest request;
    const HttpParseResult result = parse(raw, request);
    EXPECT_EQ(result.status, HttpParseStatus::Bad) << raw;
    EXPECT_EQ(result.errorStatus, 400) << raw;
  }
}

TEST(HttpParser, RejectsLoneLfDialect) {
  HttpRequest request;
  const HttpParseResult result = parse("GET / HTTP/1.1\n\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 400);
}

TEST(HttpParser, RejectsUnsupportedVersion) {
  HttpRequest request;
  const HttpParseResult result =
      parse("GET /healthz HTTP/2.0\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 505);
}

TEST(HttpParser, RejectsOversizedRequestLine) {
  HttpRequest request;
  const std::string target = "/" + std::string(5000, 'a');
  const HttpParseResult result =
      parse("GET " + target + " HTTP/1.1\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 414);
}

TEST(HttpParser, RejectsTooManyHeaders) {
  std::string raw = "GET / HTTP/1.1\r\n";
  for (int i = 0; i < 65; ++i) {
    raw += "X-H" + std::to_string(i) + ": v\r\n";
  }
  raw += "\r\n";
  HttpRequest request;
  const HttpParseResult result = parse(raw, request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 431);
}

TEST(HttpParser, RejectsOversizedHeaderBlockEvenWithoutTerminator) {
  // An attacker streaming an endless header line must be cut off before
  // the blank line ever arrives.
  HttpRequest request;
  const std::string raw =
      "GET / HTTP/1.1\r\nX-Pad: " + std::string(17000, 'a');
  const HttpParseResult result = parse(raw, request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 431);
}

TEST(HttpParser, RejectsBadContentLength) {
  // Note "1 2": inner whitespace survives the value trim and must fail.
  for (const char* value : {"abc", "-1", "0x10", "1 2", "", "1e3"}) {
    HttpRequest request;
    const HttpParseResult result = parse(
        std::string("POST / HTTP/1.1\r\nContent-Length: ") + value +
            "\r\n\r\n",
        request);
    EXPECT_EQ(result.status, HttpParseStatus::Bad) << value;
    EXPECT_EQ(result.errorStatus, 400) << value;
  }
}

TEST(HttpParser, RejectsOversizedBodyWith413) {
  HttpRequest request;
  const HttpParseResult result = parse(
      "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 413);
}

TEST(HttpParser, RejectsConflictingContentLengths) {
  HttpRequest request;
  const HttpParseResult result = parse(
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n",
      request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 400);
}

TEST(HttpParser, AcceptsDuplicateEqualContentLengths) {
  HttpRequest request;
  const HttpParseResult result = parse(
      "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
      request);
  ASSERT_EQ(result.status, HttpParseStatus::Done);
  EXPECT_EQ(request.body, "{}");
}

TEST(HttpParser, RejectsTransferEncoding) {
  HttpRequest request;
  const HttpParseResult result = parse(
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 501);
}

TEST(HttpParser, RejectsWhitespaceInHeaderName) {
  HttpRequest request;
  const HttpParseResult result =
      parse("GET / HTTP/1.1\r\nBad Name: v\r\n\r\n", request);
  ASSERT_EQ(result.status, HttpParseStatus::Bad);
  EXPECT_EQ(result.errorStatus, 400);
}

TEST(HttpRequestTest, HeaderLookupIsCaseInsensitive) {
  HttpRequest request;
  ASSERT_EQ(parse("POST / HTTP/1.1\r\nContent-Type: text/plain\r\n\r\n",
                  request)
                .status,
            HttpParseStatus::Done);
  ASSERT_NE(request.header("content-TYPE"), nullptr);
  EXPECT_EQ(*request.header("content-TYPE"), "text/plain");
  EXPECT_EQ(request.header("X-Missing"), nullptr);
}

TEST(HttpResponseTest, RenderIncludesStatusLengthAndClose) {
  HttpResponse response;
  response.status = 404;
  response.body = "{\"error\": \"no\"}\n";
  const std::string raw = renderHttpResponse(response);
  EXPECT_NE(raw.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Content-Length: 16\r\n"), std::string::npos);
  EXPECT_NE(raw.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(raw.find("\r\n\r\n{\"error\": \"no\"}\n"), std::string::npos);
}

TEST(HttpResponseTest, StatusReasons) {
  EXPECT_STREQ(httpStatusReason(202), "Accepted");
  EXPECT_STREQ(httpStatusReason(409), "Conflict");
  EXPECT_STREQ(httpStatusReason(503), "Service Unavailable");
  EXPECT_STREQ(httpStatusReason(999), "Unknown");
}

/// Raw client for the round-trip test: send `raw`, read to EOF.
std::string exchange(int port, const std::string& raw) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  EXPECT_EQ(::send(fd, raw.data(), raw.size(), 0),
            static_cast<ssize_t>(raw.size()));
  std::string reply;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(HttpServerTest, SocketRoundTripAndStop) {
  HttpServer server("127.0.0.1", 0);  // ephemeral port
  ASSERT_GT(server.port(), 0);

  StopToken stop;
  std::thread loop([&] {
    server.serve(
        [](const HttpRequest& request) {
          HttpResponse response;
          response.body = "{\"echo\": \"" + request.path + "\"}\n";
          return response;
        },
        &stop);
  });

  const std::string ok =
      exchange(server.port(), "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(ok.find("{\"echo\": \"/ping\"}"), std::string::npos);

  const std::string bad = exchange(server.port(), "NONSENSE\r\n\r\n");
  EXPECT_NE(bad.find("HTTP/1.1 400"), std::string::npos);

  // Two pipelined requests on one connection: rejected, not half-served.
  const std::string pipelined = exchange(
      server.port(),
      "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  EXPECT_NE(pipelined.find("HTTP/1.1 400"), std::string::npos);

  stop.requestStop();
  loop.join();
  EXPECT_EQ(server.requestsServed(), 3u);
}

TEST(HttpServerTest, BacklogHoldsABurstOfConnects) {
  // 64 clients connecting at once to a server that has not accepted any
  // of them yet must all complete their handshakes. A short listen backlog
  // drops the excess SYNs, and those clients wait out the kernel's 1 s
  // SYN retransmit.
  HttpServer server("127.0.0.1", 0);  // listening, never serving
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(server.port()));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  const auto* target = reinterpret_cast<const sockaddr*>(&addr);

  constexpr std::size_t kClients = 64;
  std::vector<pollfd> pending;
  std::vector<int> fds;
  for (std::size_t i = 0; i < kClients; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0) break;
    fds.push_back(fd);
    if (::connect(fd, target, sizeof(addr)) == 0 || errno == EINPROGRESS) {
      pending.push_back({fd, POLLOUT, 0});
    }
  }
  EXPECT_EQ(pending.size(), kClients);

  // A connect has finished when its socket turns writable; SO_ERROR then
  // tells success from failure.
  using Clock = std::chrono::steady_clock;
  const auto deadline = Clock::now() + std::chrono::milliseconds(500);
  std::size_t connected = 0;
  while (!pending.empty() && Clock::now() < deadline) {
    if (::poll(pending.data(), pending.size(), 10) <= 0) continue;
    std::vector<pollfd> still;
    for (const pollfd& p : pending) {
      if (p.revents == 0) {
        still.push_back({p.fd, POLLOUT, 0});
        continue;
      }
      int error = -1;
      socklen_t len = sizeof(error);
      ::getsockopt(p.fd, SOL_SOCKET, SO_ERROR, &error, &len);
      EXPECT_EQ(error, 0);
      if (error == 0 && (p.revents & POLLOUT) != 0) ++connected;
    }
    pending = std::move(still);
  }
  for (const int fd : fds) ::close(fd);
  EXPECT_EQ(connected, kClients) << "connects still pending after 500 ms";
}

}  // namespace
}  // namespace ides
