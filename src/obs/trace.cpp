#include "obs/trace.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <random>
#include <sstream>
#include <type_traits>

#include "common/clock.h"
#include "common/mutex.h"
#include "obs/json_escape.h"

namespace eppi::obs {

namespace {

// Span ids are (24 bits of per-process entropy) << 40 | (local counter), so
// ids minted by different party processes never collide and a merged trace
// keeps every parent link intact without renumbering. 40 counter bits are
// ~10^12 spans per process; 24 seed bits make a cross-process collision a
// birthday problem at ~2^12 concurrent processes, far past any mesh we run.
constexpr int kSeedShift = 40;
constexpr std::uint64_t kSeedMask = 0xFFFFFFu;
constexpr std::uint64_t kCounterMask = (std::uint64_t{1} << kSeedShift) - 1;

std::atomic<std::uint64_t> g_next_span_id{1};
std::atomic<std::uint64_t> g_seed_bits{0};  // (seed << kSeedShift); 0 = unset

// The innermost open span on this thread; new spans parent to it. Worker
// threads (one per protocol party) start at 0 and so open their own roots.
thread_local std::uint64_t t_current_span = 0;
// The trace the innermost open span belongs to; inherited by children and
// by instantaneous events.
thread_local std::uint64_t t_current_trace = 0;

std::uint64_t seed_bits() noexcept {
  std::uint64_t bits = g_seed_bits.load(std::memory_order_relaxed);
  if (bits != 0) return bits;
  // Entropy, not reproducibility: independently launched party processes
  // must draw distinct seeds, so the deterministic eppi::Rng is exactly
  // wrong here (same reasoning as the socket session nonce).
  std::random_device rd;  // eppi-lint: allow(rng-construction): span-id process seeds need entropy, not reproducibility
  std::uint64_t e = (std::uint64_t{rd()} << 32) ^ rd();
  e ^= static_cast<std::uint64_t>(::getpid()) * 0x9E3779B97F4A7C15ull;
  e &= kSeedMask;
  if (e == 0) e = 1;
  std::uint64_t want = e << kSeedShift;
  // First caller wins; concurrent initializers adopt the published value so
  // every id in the process shares one seed.
  if (g_seed_bits.compare_exchange_strong(bits, want,
                                          std::memory_order_relaxed)) {
    return want;
  }
  return bits;
}

std::uint64_t next_span_id() noexcept {
  return seed_bits() |
         (g_next_span_id.fetch_add(1, std::memory_order_relaxed) &
          kCounterMask);
}

void copy_truncated(char* dst, std::size_t cap, std::string_view src) {
  const std::size_t n = std::min(cap, src.size());
  std::memcpy(dst, src.data(), n);
  if (n < cap) dst[n] = '\0';
}

}  // namespace

SpanContext current_span_context() noexcept {
  return SpanContext{t_current_trace, t_current_span};
}

void set_trace_process_seed_for_testing(std::uint64_t seed) noexcept {
  seed &= kSeedMask;
  if (seed == 0) seed = 1;
  g_seed_bits.store(seed << kSeedShift, std::memory_order_relaxed);
}

std::uint64_t record_remote_event(
    std::string_view name, const SpanContext& parent,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> attrs,
    TraceSink* sink) noexcept {
  SpanEvent ev;
  ev.span_id = next_span_id();
  ev.parent_id = parent.span_id;
  ev.trace_id = parent.trace_id != 0 ? parent.trace_id : ev.span_id;
  ev.thread = thread_index();
  ev.start_ns = monotonic_ns();
  ev.end_ns = ev.start_ns;
  copy_truncated(ev.name, SpanEvent::kNameCap, name);
  for (const auto& [key, value] : attrs) {
    if (ev.n_attrs >= SpanEvent::kMaxAttrs) break;
    SpanAttr& a = ev.attrs[ev.n_attrs++];
    copy_truncated(a.key, SpanAttr::kKeyCap, key);
    a.value.type = AttrValue::Type::kU64;
    a.value.u64 = value;
  }
  (sink != nullptr ? sink : &default_sink())->record(ev);
  return ev.span_id;
}

// ---------------------------------------------------------------- TraceSink

TraceSink::TraceSink(std::size_t capacity) {
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(capacity, 64));
  static_assert(std::is_trivially_default_constructible_v<Slot>);
  slots_.reset(static_cast<Slot*>(std::calloc(cap, sizeof(Slot))));
  if (!slots_) throw std::bad_alloc();
  mask_ = cap - 1;
}

void TraceSink::record(const SpanEvent& ev) noexcept {
  std::uint64_t buf[kWords] = {};
  std::memcpy(buf, &ev, sizeof ev);

  const std::uint64_t ticket = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[ticket & mask_];

  // Seqlock-over-atomics (Boehm's recipe): mark the slot in progress, put a
  // release fence between the mark and the payload so no reader can observe
  // payload words without the odd generation also being visible, then
  // publish with a release store. Every access is atomic, so a wrap
  // collision garbles at worst one event — detected by the generation
  // check — and is never a data race.
  std::atomic_ref<std::uint64_t> gen(s.gen);
  gen.store(2 * ticket + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (std::size_t i = 0; i < kWords; ++i) {
    std::atomic_ref<std::uint64_t>(s.words[i])
        .store(buf[i], std::memory_order_relaxed);
  }
  gen.store(2 * ticket + 2, std::memory_order_release);
}

std::vector<SpanEvent> TraceSink::drain() {
  // One drainer at a time; record() stays lock-free throughout.
  static Mutex drain_mu;
  MutexLock lock(drain_mu);

  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
  const std::size_t cap = mask_ + 1;
  // Tickets older than one full ring behind head are already overwritten.
  const std::uint64_t lo = (head - tail > cap) ? head - cap : tail;

  std::vector<SpanEvent> out;
  out.reserve(static_cast<std::size_t>(head - lo));
  for (std::uint64_t t = lo; t < head; ++t) {
    Slot& s = slots_[t & mask_];
    std::atomic_ref<std::uint64_t> gen(s.gen);
    const std::uint64_t g1 = gen.load(std::memory_order_acquire);
    if (g1 == 0 || (g1 & 1) != 0 || g1 / 2 - 1 != t) continue;
    std::uint64_t buf[kWords];
    for (std::size_t i = 0; i < kWords; ++i) {
      buf[i] = std::atomic_ref<std::uint64_t>(s.words[i])
                   .load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (gen.load(std::memory_order_relaxed) != g1) continue;
    SpanEvent ev;
    std::memcpy(&ev, buf, sizeof ev);
    out.push_back(ev);
  }

  // Anything in [tail, head) we could not read — overwritten by wrap, torn,
  // or still mid-record at this instant — is gone: the watermark moves past
  // it. Callers wanting exact traces drain after their workers join.
  dropped_.fetch_add((head - tail) - out.size(), std::memory_order_relaxed);
  tail_.store(head, std::memory_order_relaxed);
  return out;
}

TraceSink& default_sink() {
  // Leaked: instrumentation in static destructors may still record.
  static TraceSink* sink = [] {
    std::size_t cap = 8192;
    // Deployments that record per-message net.recv spans (socket runtime
    // with trace export) need room for a whole run between drains.
    if (const char* env = std::getenv("EPPI_TRACE_RING")) {
      char* end = nullptr;
      const unsigned long long v = std::strtoull(env, &end, 10);
      if (end != env && v >= 64 && v <= (1ull << 22)) {
        cap = static_cast<std::size_t>(v);
      }
    }
    return new TraceSink(cap);
  }();
  return *sink;
}

// --------------------------------------------------------------------- Span

Span::Span(std::string_view name, TraceSink* sink)
    : sink_(sink ? sink : &default_sink()) {
  ev_.span_id = next_span_id();
  ev_.parent_id = t_current_span;
  // A root span starts a new trace named after itself; children inherit.
  ev_.trace_id = t_current_trace != 0 ? t_current_trace : ev_.span_id;
  ev_.thread = thread_index();
  ev_.start_ns = monotonic_ns();
  copy_truncated(ev_.name, SpanEvent::kNameCap, name);
  prev_current_ = t_current_span;
  prev_trace_ = t_current_trace;
  t_current_span = ev_.span_id;
  t_current_trace = ev_.trace_id;
}

Span::~Span() {
  ev_.end_ns = monotonic_ns();
  sink_->record(ev_);
  t_current_span = prev_current_;
  t_current_trace = prev_trace_;
}

SpanAttr* Span::next_attr(std::string_view key) noexcept {
  // Past capacity, extra attributes drop silently: tracing is diagnostics
  // and must not throw out of instrumented protocol code.
  if (ev_.n_attrs >= SpanEvent::kMaxAttrs) return nullptr;
  SpanAttr* a = &ev_.attrs[ev_.n_attrs++];
  copy_truncated(a->key, SpanAttr::kKeyCap, key);
  return a;
}

void Span::attr(std::string_view key, std::uint64_t v) noexcept {
  if (SpanAttr* a = next_attr(key)) {
    a->value.type = AttrValue::Type::kU64;
    a->value.u64 = v;
  }
}

void Span::attr(std::string_view key, std::int64_t v) noexcept {
  if (SpanAttr* a = next_attr(key)) {
    a->value.type = AttrValue::Type::kI64;
    a->value.i64 = v;
  }
}

void Span::attr(std::string_view key, double v) noexcept {
  if (SpanAttr* a = next_attr(key)) {
    a->value.type = AttrValue::Type::kF64;
    a->value.f64 = v;
  }
}

void Span::attr(std::string_view key, bool v) noexcept {
  if (SpanAttr* a = next_attr(key)) {
    a->value.type = AttrValue::Type::kBool;
    a->value.b = v;
  }
}

void Span::attr(std::string_view key, std::string_view v) noexcept {
  if (SpanAttr* a = next_attr(key)) {
    a->value.type = AttrValue::Type::kStr;
    copy_truncated(a->value.str, AttrValue::kStrCap, v);
  }
}

void Span::event(std::string_view name) noexcept {
  SpanEvent ev;
  ev.span_id = next_span_id();
  ev.parent_id = ev_.span_id;
  ev.trace_id = ev_.trace_id;
  ev.thread = thread_index();
  ev.start_ns = monotonic_ns();
  ev.end_ns = ev.start_ns;
  copy_truncated(ev.name, SpanEvent::kNameCap, name);
  sink_->record(ev);
}

// ---------------------------------------------------------- cross-thread

SpanContextScope::SpanContextScope(const SpanContext& ctx) noexcept
    : prev_current_(t_current_span), prev_trace_(t_current_trace) {
  t_current_span = ctx.span_id;
  t_current_trace = ctx.trace_id;
}

SpanContextScope::~SpanContextScope() {
  t_current_span = prev_current_;
  t_current_trace = prev_trace_;
}

DetachedSpan::DetachedSpan(std::string_view name, const SpanContext& parent,
                           TraceSink* sink) noexcept
    : sink_(sink ? sink : &default_sink()) {
  ev_.span_id = next_span_id();
  ev_.parent_id = parent.span_id;
  ev_.trace_id = parent.trace_id != 0 ? parent.trace_id : ev_.span_id;
  ev_.thread = thread_index();
  ev_.start_ns = monotonic_ns();
  copy_truncated(ev_.name, SpanEvent::kNameCap, name);
}

DetachedSpan::DetachedSpan(DetachedSpan&& other) noexcept
    : ev_(other.ev_), sink_(std::exchange(other.sink_, nullptr)) {}

DetachedSpan& DetachedSpan::operator=(DetachedSpan&& other) noexcept {
  if (this != &other) {
    end();
    ev_ = other.ev_;
    sink_ = std::exchange(other.sink_, nullptr);
  }
  return *this;
}

void DetachedSpan::attr(std::string_view key, std::uint64_t v) noexcept {
  if (sink_ == nullptr || ev_.n_attrs >= SpanEvent::kMaxAttrs) return;
  SpanAttr& a = ev_.attrs[ev_.n_attrs++];
  copy_truncated(a.key, SpanAttr::kKeyCap, key);
  a.value.type = AttrValue::Type::kU64;
  a.value.u64 = v;
}

void DetachedSpan::end() noexcept {
  if (sink_ == nullptr) return;
  ev_.end_ns = monotonic_ns();
  sink_->record(ev_);
  sink_ = nullptr;
}

// -------------------------------------------------------------------- JSONL

std::string to_jsonl(const std::vector<SpanEvent>& events) {
  std::ostringstream out;
  out.precision(17);
  for (const SpanEvent& ev : events) {
    out << "{\"span\":" << ev.span_id << ",\"parent\":" << ev.parent_id
        << ",\"trace\":" << ev.trace_id << ",\"thread\":" << ev.thread
        << ",\"name\":\""
        << json_escape(ev.name_view()) << "\",\"start_ns\":" << ev.start_ns
        << ",\"end_ns\":" << ev.end_ns << ",\"attrs\":{";
    const std::uint32_t n =
        std::min<std::uint32_t>(ev.n_attrs, SpanEvent::kMaxAttrs);
    for (std::uint32_t i = 0; i < n; ++i) {
      const SpanAttr& a = ev.attrs[i];
      if (i) out << ",";
      out << "\""
          << json_escape(std::string_view(
                 a.key, ::strnlen(a.key, SpanAttr::kKeyCap)))
          << "\":";
      switch (a.value.type) {
        case AttrValue::Type::kU64:
          out << a.value.u64;
          break;
        case AttrValue::Type::kI64:
          out << a.value.i64;
          break;
        case AttrValue::Type::kF64:
          out << a.value.f64;
          break;
        case AttrValue::Type::kBool:
          out << (a.value.b ? "true" : "false");
          break;
        case AttrValue::Type::kStr:
          out << "\""
              << json_escape(std::string_view(
                     a.value.str, ::strnlen(a.value.str, AttrValue::kStrCap)))
              << "\"";
          break;
        case AttrValue::Type::kNone:
          out << "null";
          break;
      }
    }
    out << "}}\n";
  }
  return out.str();
}

}  // namespace eppi::obs
