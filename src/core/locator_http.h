// The HTTP routes of the locator daemon (`eppi_cli serve --listen`).
//
// LocatorHttp is the MiniHttpServer handler in front of one LocatorService:
//
//   GET  /healthz            "ok"
//   GET  /metrics            Prometheus text of obs::Registry::global()
//   GET  /trace              drained trace spans, JSON Lines
//   GET  /slowlog            the slowest query batches, JSON Lines
//   POST /query              one owner per body line
//   GET  /query?owner=NAME   one owner, percent-decoded, ends at '&'
//   POST /delegate           owner,eps,provider per line
//   POST /retire             provider per line
//   POST /rebuild            publish the next epoch
//
// A /query answer is `owner,provider\n` per published pair, in request
// order, each owner's providers in ascending id order. It is written
// straight from the pinned snapshot's posting lists and provider-name table
// into one exactly sized buffer, inside an `http.encode` span. An owner the
// served epoch does not know answers 404; a path that only starts with
// "/query" is not the query route.
//
// Thread-safe: queries are lock-free on the snapshot, and an internal admin
// mutex serializes the three mutating routes, as the service's
// single-writer contract asks.
#pragma once

#include <string>
#include <string_view>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/locator_service.h"
#include "net/mini_http.h"

namespace eppi::core {

class LocatorHttp {
 public:
  explicit LocatorHttp(LocatorService& service) : service_(service) {}

  LocatorHttp(const LocatorHttp&) = delete;
  LocatorHttp& operator=(const LocatorHttp&) = delete;

  net::HttpResponse operator()(const net::HttpRequest& req)
      EPPI_EXCLUDES(admin_mu_);

 private:
  net::HttpResponse query(const net::HttpRequest& req) const;

  LocatorService& service_;
  Mutex admin_mu_;
};

// GET /trace: every span recorded since the last drain, as JSON Lines —
// except the spans of the /trace request itself, which wait in the ring
// for the next drain, where their still-open `http.request` parent joins
// them.
net::HttpResponse trace_response();

// The value of `key` in a URL query string ("a=1&owner=x%20y"),
// percent-decoded; empty when the key is absent. Throws ConfigError on a
// malformed escape.
std::string query_param(std::string_view query, std::string_view key);

}  // namespace eppi::core
