#include "core/locator_http.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.h"
#include "obs/registry.h"
#include "obs/slow_log.h"
#include "obs/trace.h"

namespace eppi::core {

namespace {

net::HttpResponse text(int status, std::string body) {
  net::HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

// Calls `fn` on every non-empty line of `body`, a trailing '\r' removed.
template <typename Fn>
void for_each_line(std::string_view body, Fn&& fn) {
  while (!body.empty()) {
    const std::size_t nl = body.find('\n');
    std::string_view line = body.substr(0, nl);
    body.remove_prefix(nl == std::string_view::npos ? body.size() : nl + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) fn(line);
  }
}

int hex_digit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

// `owner,provider\n` per published pair, in request order, written into
// one exactly sized buffer. Each line's two fields go in with one
// constant-size copy apiece (a couple of vector moves, not a library call)
// whenever they fit the fixed widths; such a copy may run past its field,
// into the next line or into the buffer's kPrefixWidth bytes of slack (cut
// off at the end), and reads at most ProviderNameTable::kReadSlack bytes
// from a name's start.
std::string encode_answers(std::span<const std::string> owners,
                           const LocatorService::BatchIds& answer) {
  constexpr std::size_t kPrefixWidth = 32;  // owner + ','
  constexpr std::size_t kNameWidth = ProviderNameTable::kReadSlack;
  const ProviderNameTable& names = *answer.snapshot->provider_names;
  std::size_t size = 0;
  for (std::size_t k = 0; k < owners.size(); ++k) {
    size += answer.providers(k).size() * (owners[k].size() + 2);
  }
  for (const ProviderId p : answer.ids) size += names[p].size();
  std::string body(size + kPrefixWidth, '\0');
  char* out = body.data();
  for (std::size_t k = 0; k < owners.size(); ++k) {
    const std::string& owner = owners[k];
    const std::size_t prefix_len = owner.size() + 1;
    char prefix[kPrefixWidth] = {};
    const bool fixed_prefix = prefix_len <= kPrefixWidth;
    if (fixed_prefix) {
      std::memcpy(prefix, owner.data(), owner.size());
      prefix[owner.size()] = ',';
    }
    for (const ProviderId p : answer.providers(k)) {
      if (fixed_prefix) {
        std::memcpy(out, prefix, kPrefixWidth);
      } else {
        std::memcpy(out, owner.data(), owner.size());
        out[owner.size()] = ',';
      }
      out += prefix_len;
      const std::string_view name = names[p];
      if (name.size() <= kNameWidth) {
        std::memcpy(out, name.data(), kNameWidth);
      } else {
        std::memcpy(out, name.data(), name.size());
      }
      out += name.size();
      *out++ = '\n';
    }
  }
  body.resize(size);
  return body;
}

}  // namespace

std::string query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    query.remove_prefix(amp == std::string_view::npos ? query.size()
                                                      : amp + 1);
    if (pair.size() <= key.size() || pair[key.size()] != '=' ||
        pair.substr(0, key.size()) != key) {
      continue;
    }
    const std::string_view raw = pair.substr(key.size() + 1);
    std::string value;
    value.reserve(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i) {
      if (raw[i] != '%') {
        value.push_back(raw[i]);
        continue;
      }
      const int hi = i + 2 < raw.size() ? hex_digit(raw[i + 1]) : -1;
      const int lo = hi < 0 ? -1 : hex_digit(raw[i + 2]);
      require(lo >= 0, "bad percent-encoding in query string");
      value.push_back(static_cast<char>(hi * 16 + lo));
      i += 2;
    }
    return value;
  }
  return {};
}

net::HttpResponse trace_response() {
  // The request asking for the trace is traced too, and its `http.request`
  // span ends only after this answer is written. Its children recorded so
  // far go back into the ring, to leave with it at the next drain: no
  // export carries a span whose parent it leaves out.
  const std::uint64_t own = obs::current_span_context().trace_id;
  std::vector<obs::SpanEvent> events = obs::default_sink().drain();
  const auto held = std::stable_partition(
      events.begin(), events.end(), [own](const obs::SpanEvent& ev) {
        return own == 0 || ev.trace_id != own;
      });
  for (auto it = held; it != events.end(); ++it) {
    obs::default_sink().record(*it);
  }
  events.erase(held, events.end());
  net::HttpResponse resp;
  resp.content_type = "application/x-ndjson";
  resp.body = obs::to_jsonl(events);
  return resp;
}

net::HttpResponse LocatorHttp::query(const net::HttpRequest& req) const {
  std::vector<std::string> owners;
  if (req.method == "POST") {
    for_each_line(req.body,
                  [&](std::string_view line) { owners.emplace_back(line); });
  } else if (const auto q = req.path.find('?'); q != std::string::npos) {
    try {
      std::string owner =
          query_param(std::string_view(req.path).substr(q + 1), "owner");
      if (!owner.empty()) owners.push_back(std::move(owner));
    } catch (const eppi::ConfigError& err) {
      return text(400, std::string(err.what()) + "\n");
    }
  }
  if (owners.empty()) return text(400, "no owners given\n");
  LocatorService::BatchIds answer;
  try {
    service_.query_ppi_ids(owners, answer);
  } catch (const UnknownOwnerError& err) {
    return text(404, std::string("error: ") + err.what() + "\n");
  }
  net::HttpResponse resp;
  resp.content_type = "text/csv; charset=utf-8";
  obs::Span span("http.encode");
  resp.body = encode_answers(owners, answer);
  span.attr("pairs", static_cast<std::uint64_t>(answer.ids.size()));
  span.attr("bytes", static_cast<std::uint64_t>(resp.body.size()));
  return resp;
}

net::HttpResponse LocatorHttp::operator()(const net::HttpRequest& req) {
  const std::string_view path = req.path;
  if (path == "/query" || path.starts_with("/query?")) return query(req);
  if (path == "/healthz") return text(200, "ok\n");
  if (path == "/metrics") {
    net::HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = obs::Registry::global().render_prometheus();
    return resp;
  }
  if (path == "/trace") return trace_response();
  if (path == "/slowlog") {
    net::HttpResponse resp;
    resp.content_type = "application/x-ndjson";
    resp.body = obs::to_jsonl(obs::SlowQueryLog::global().snapshot());
    return resp;
  }
  if (path == "/delegate" && req.method == "POST") {
    const MutexLock lock(admin_mu_);
    std::size_t applied = 0;
    try {
      for_each_line(req.body, [&](std::string_view line) {
        const auto c1 = line.find(',');
        const auto c2 =
            c1 == std::string_view::npos ? c1 : line.find(',', c1 + 1);
        if (c2 == std::string_view::npos) {
          throw eppi::ConfigError("expected owner,eps,provider: " +
                                  std::string(line));
        }
        service_.delegate(std::string(line.substr(0, c1)),
                          std::stod(std::string(line.substr(c1 + 1,
                                                            c2 - c1 - 1))),
                          std::string(line.substr(c2 + 1)));
        ++applied;
      });
    } catch (const std::exception& err) {
      return text(400, std::string(err.what()) + "\n");
    }
    return text(200, "delegated " + std::to_string(applied) + "\n");
  }
  if (path == "/retire" && req.method == "POST") {
    const MutexLock lock(admin_mu_);
    std::size_t applied = 0;
    try {
      for_each_line(req.body, [&](std::string_view line) {
        service_.retire_provider(std::string(line));
        ++applied;
      });
    } catch (const std::exception& err) {
      return text(400, std::string(err.what()) + "\n");
    }
    return text(200, "retired " + std::to_string(applied) + "\n");
  }
  if (path == "/rebuild" && req.method == "POST") {
    const MutexLock lock(admin_mu_);
    try {
      service_.construct_ppi();
    } catch (const std::exception& err) {
      return text(500, std::string(err.what()) + "\n");
    }
    const auto& info = service_.last_rebuild();
    std::ostringstream out;
    out << "epoch=" << info.epoch << " delta=" << (info.delta ? 1 : 0)
        << " degraded=" << (info.degraded ? 1 : 0)
        << " dirty=" << info.dirty << " joined=" << info.joined
        << " left=" << info.left << " churn=" << info.churn << '\n';
    return text(200, out.str());
  }
  return text(404, "not found\n");
}

}  // namespace eppi::core
