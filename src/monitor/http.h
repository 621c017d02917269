// Minimal HTTP/1.1 listener for the monitor's metrics and health endpoints
// (DESIGN.md §16). This is deliberately not a web server: one accept loop
// on a background thread, serial request handling, GET only, connection
// closed after every response. That is exactly the traffic profile of a
// Prometheus scraper or a load-balancer health check. Keeping it serial
// means a misbehaving client can slow scrapes but never the instance:
// handlers run on the listener thread, not on commit paths. Each
// connection gets a bounded time to send its request and take its
// response, so a stalled client delays later scrapes by at most that bound
// and never blocks Stop().
#ifndef RVM_MONITOR_HTTP_H_
#define RVM_MONITOR_HTTP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include "src/util/status.h"

namespace rvm {

struct HttpRequest {
  std::string method;  // "GET"
  std::string path;    // "/metrics" (query strings are not split off)
};

struct HttpResponse {
  int status_code = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

class HttpServer {
 public:
  // Handlers run on the listener thread and must be safe to call
  // concurrently with the rest of the process. Returning status 0 is
  // coerced to 500.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Binds 127.0.0.1:<port> (port 0 picks an ephemeral port — tests and CI
  // use this to avoid collisions) and starts the accept thread. kIoError
  // when the socket cannot be bound.
  static StatusOr<std::unique_ptr<HttpServer>> Start(uint16_t port,
                                                     Handler handler);

  ~HttpServer();  // Stop()s

  // The bound port (the resolved one when constructed with port 0).
  uint16_t port() const { return port_; }

  // Shuts the listening socket down and joins the accept thread. Idempotent.
  // A request still being read is dropped; one already being answered
  // completes first.
  void Stop();

 private:
  HttpServer(int listen_fd, uint16_t port, Handler handler);

  void AcceptLoop();
  void ServeConnection(int fd);

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  Handler handler_;
  // Set by the first Stop(), which alone joins the thread; a connection
  // still being read polls it so Stop() never waits on a stalled client.
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace rvm

#endif  // RVM_MONITOR_HTTP_H_
