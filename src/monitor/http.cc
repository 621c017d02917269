#include "src/monitor/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

namespace rvm {
namespace {

// How long a client gets to send its request headers, and to take each
// part of the response. A stalled or idle connection is dropped after it,
// so it holds the serial accept loop for at most this long.
constexpr int kConnectionTimeoutMs = 2000;
// How often a pending read checks for Stop().
constexpr int kStopPollMs = 50;

const char* StatusText(int code) {
  switch (code) {
    case 200:
      return "OK";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Internal Server Error";
  }
}

// Writes all of `data`, absorbing EINTR; best-effort (a disappearing client
// is the client's problem).
void WriteAll(int fd, const char* data, size_t size) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    written += static_cast<size_t>(n);
  }
}

}  // namespace

StatusOr<std::unique_ptr<HttpServer>> HttpServer::Start(uint16_t port,
                                                        Handler handler) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    int saved = errno;
    ::close(fd);
    return IoError(std::string("bind: ") + std::strerror(saved));
  }
  if (::listen(fd, 16) < 0) {
    int saved = errno;
    ::close(fd);
    return IoError(std::string("listen: ") + std::strerror(saved));
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) < 0) {
    int saved = errno;
    ::close(fd);
    return IoError(std::string("getsockname: ") + std::strerror(saved));
  }
  return std::unique_ptr<HttpServer>(
      new HttpServer(fd, ntohs(addr.sin_port), std::move(handler)));
}

HttpServer::HttpServer(int listen_fd, uint16_t port, Handler handler)
    : listen_fd_(listen_fd), port_(port), handler_(std::move(handler)) {
  thread_ = std::thread([this] { AcceptLoop(); });
}

HttpServer::~HttpServer() { Stop(); }

void HttpServer::Stop() {
  // First caller wins, so a concurrent Stop (an explicit call racing the
  // destructor) never joins the same std::thread twice.
  if (stopping_.exchange(true)) {
    return;
  }
  // shutdown() unblocks the accept loop without racing the fd close (the fd
  // itself stays valid until after the join).
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) {
    thread_.join();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // shutdown or fatal: either way the listener is done
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void HttpServer::ServeConnection(int fd) {
  // A client that stops reading its response times out the write.
  const timeval send_timeout{kConnectionTimeoutMs / 1000,
                             (kConnectionTimeoutMs % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &send_timeout,
               sizeof(send_timeout));
  // Read until the end of the header block (or 8 KiB, whichever first); the
  // endpoints take no bodies, so everything we need is in the request line.
  // The read is polled in short slices: a request not complete within the
  // timeout, or still pending at Stop(), is dropped unanswered.
  std::string request;
  char buf[1024];
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(kConnectionTimeoutMs);
  while (request.size() < 8192 &&
         request.find("\r\n\r\n") == std::string::npos) {
    if (stopping_.load() || std::chrono::steady_clock::now() >= deadline) {
      return;
    }
    pollfd readable{fd, POLLIN, 0};
    const int ready = ::poll(&readable, 1, kStopPollMs);
    if (ready == 0 || (ready < 0 && errno == EINTR)) {
      continue;
    }
    if (ready < 0) {
      return;
    }
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) {
        continue;
      }
      break;
    }
    request.append(buf, static_cast<size_t>(n));
  }
  size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    return;
  }
  std::string request_line = request.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 <= sp1) {
    return;
  }
  HttpRequest parsed;
  parsed.method = request_line.substr(0, sp1);
  parsed.path = request_line.substr(sp1 + 1, sp2 - sp1 - 1);

  HttpResponse response;
  if (parsed.method != "GET") {
    response.status_code = 405;
    response.body = "only GET is supported\n";
  } else {
    response = handler_(parsed);
    if (response.status_code == 0) {
      response.status_code = 500;
    }
  }
  char header[256];
  int header_len = std::snprintf(
      header, sizeof(header),
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      response.status_code, StatusText(response.status_code),
      response.content_type.c_str(), response.body.size());
  WriteAll(fd, header, static_cast<size_t>(header_len));
  WriteAll(fd, response.body.data(), response.body.size());
}

}  // namespace rvm
