// Structured trace spans with a bounded lock-free ring sink.
//
// A Span is an RAII timing scope: construction stamps a monotonic start,
// destruction stamps the end and commits one fixed-size SpanEvent into a
// TraceSink. Parent links come from a thread_local "current span" stack, so
// nested spans on one thread form a tree without any plumbing; spans on
// protocol worker threads (one thread per party in the in-memory cluster)
// simply start their own roots.
//
// The sink is a bounded MPSC-by-accident ring: any thread records, one
// drainer collects. Slots are arrays of atomic words with a per-slot
// generation counter (release on publish, acquire on read), so a torn or
// overwritten slot is *detected and skipped*, never undefined behavior —
// this is what keeps recording lock-free and TSan-clean where a classic
// seqlock with plain payload writes would not be. When the ring wraps
// before a drain, the oldest events are overwritten and counted as dropped;
// tracing is diagnostics and must never stall the protocol to preserve it.
//
// Attribute values are taint-checked at compile time: passing a Secret<T>
// to Span::attr is a deleted overload, the same pattern as Secret's deleted
// operator<<. Reveal first (through the audited hatches) or don't trace it.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace eppi {
template <typename T>
class Secret;  // secret/secret.h; declared here so obs need not link secret
}  // namespace eppi

namespace eppi::obs {

// One typed attribute value. Strings are truncated to the inline capacity;
// attribute values are identifiers and small quantities, not payloads.
struct AttrValue {
  enum class Type : std::uint8_t { kNone, kU64, kI64, kF64, kBool, kStr };
  static constexpr std::size_t kStrCap = 24;

  Type type = Type::kNone;
  union {
    std::uint64_t u64;
    std::int64_t i64;
    double f64;
    bool b;
    char str[kStrCap];
  };

  AttrValue() : u64(0) {}
};

struct SpanAttr {
  static constexpr std::size_t kKeyCap = 24;
  char key[kKeyCap] = {};
  AttrValue value;
};

// Fixed-size, trivially copyable span record — the unit the ring stores.
struct SpanEvent {
  static constexpr std::size_t kNameCap = 48;
  static constexpr std::size_t kMaxAttrs = 8;

  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  std::uint64_t trace_id = 0;   // root span's id; shared by the whole tree
  std::uint64_t thread = 0;     // common/clock.h thread_index()
  std::uint64_t start_ns = 0;   // monotonic, since process_start()
  std::uint64_t end_ns = 0;
  std::uint32_t n_attrs = 0;
  char name[kNameCap] = {};
  SpanAttr attrs[kMaxAttrs];

  std::string_view name_view() const {
    return std::string_view(name, ::strnlen(name, kNameCap));
  }
};
static_assert(std::is_trivially_copyable_v<SpanEvent>,
              "SpanEvent is memcpy'd through the ring's atomic words");

// Bounded lock-free ring of SpanEvents. record() never blocks and never
// fails; drain() returns every completed event recorded since the previous
// drain (in record order) and advances the watermark. Events overwritten or
// caught mid-write are skipped and accounted in dropped().
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 4096);
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void record(const SpanEvent& ev) noexcept;
  std::vector<SpanEvent> drain();

  // Total events ever recorded (monotone, relaxed).
  std::uint64_t recorded() const noexcept {
    return head_.load(std::memory_order_relaxed);
  }
  // Events lost to ring wrap or torn reads, as counted by drains so far.
  std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const noexcept { return mask_ + 1; }

 private:
  static constexpr std::size_t kWords =
      (sizeof(SpanEvent) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);

  // Plain words accessed through std::atomic_ref, so the ring can come from
  // calloc: the kernel's zero pages back it until a slot is first written,
  // and a large ring costs nothing up front.
  struct Slot {
    // Even = published generation for ticket (gen/2 - 1); odd = write in
    // progress; 0 = never written.
    std::uint64_t gen;
    std::uint64_t words[kWords];
  };
  struct FreeSlots {
    void operator()(Slot* slots) const noexcept { std::free(slots); }
  };

  std::unique_ptr<Slot[], FreeSlots> slots_;
  std::size_t mask_;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> tail_{0};  // first ticket not yet drained
  std::atomic<std::uint64_t> dropped_{0};
};

// The process-wide sink instrumentation records into by default. Sized for
// a full distributed-construction run between drains; the EPPI_TRACE_RING
// environment variable (slot count, read once) overrides the default for
// deployments that also record per-message net.recv spans.
TraceSink& default_sink();

// (trace_id, span_id) pair identifying a span for causal linking — the unit
// the socket layer propagates over the wire. Ids are globally unique across
// processes: the high bits carry per-process entropy (see
// set_trace_process_seed_for_testing), the low bits a local counter, so two
// parties' traces can be merged without renumbering.
struct SpanContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  explicit operator bool() const noexcept { return span_id != 0; }
};

// The innermost open span on the calling thread (zero context if none).
SpanContext current_span_context() noexcept;

// Forces the per-process high bits of newly allocated span ids (low 24 bits
// of `seed`, must be nonzero). Tests use this to simulate distinct
// processes inside one binary; production code leaves the entropy-derived
// default alone.
void set_trace_process_seed_for_testing(std::uint64_t seed) noexcept;

// Records an instantaneous event parented to an explicit — possibly
// remote — span context, bypassing the thread-local parent link. This is
// how the socket layer materializes `net.recv` spans whose parent lives in
// another process. Attributes beyond SpanEvent::kMaxAttrs drop silently.
// Returns the committed event's globally unique id.
std::uint64_t record_remote_event(
    std::string_view name, const SpanContext& parent,
    std::initializer_list<std::pair<std::string_view, std::uint64_t>> attrs,
    TraceSink* sink = nullptr) noexcept;

// RAII span. Not copyable or movable: the thread_local parent link pins a
// span to the scope (and thread) that opened it.
class Span {
 public:
  explicit Span(std::string_view name, TraceSink* sink = nullptr);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void attr(std::string_view key, std::uint64_t v) noexcept;
  void attr(std::string_view key, std::int64_t v) noexcept;
  void attr(std::string_view key, int v) noexcept {
    attr(key, static_cast<std::int64_t>(v));
  }
  void attr(std::string_view key, unsigned v) noexcept {
    attr(key, static_cast<std::uint64_t>(v));
  }
  void attr(std::string_view key, double v) noexcept;
  void attr(std::string_view key, bool v) noexcept;
  void attr(std::string_view key, std::string_view v) noexcept;
  void attr(std::string_view key, const char* v) noexcept {
    attr(key, std::string_view(v));
  }
  // Secret values cannot become trace attributes. Compile-time taint check,
  // the same pattern as Secret's deleted stream operator: go through the
  // audited reveal()/unwrap_for_wire() hatches (and the secret-trace-attr
  // lint) or don't record it.
  template <typename T>
  void attr(std::string_view, const Secret<T>&) = delete;

  // Record an instantaneous child event (restart, abort, retransmit...)
  // committed to the sink immediately, parented to this span.
  void event(std::string_view name) noexcept;

  std::uint64_t id() const noexcept { return ev_.span_id; }
  SpanContext context() const noexcept {
    return SpanContext{ev_.trace_id, ev_.span_id};
  }

 private:
  SpanAttr* next_attr(std::string_view key) noexcept;

  SpanEvent ev_;
  TraceSink* sink_;
  std::uint64_t prev_current_;
  std::uint64_t prev_trace_;
};

// Makes `ctx` the calling thread's current span for the scope, so Spans
// opened inside parent to a span that lives on another thread. This is how
// a worker pool hangs its work under a request span the event loop owns.
class SpanContextScope {
 public:
  explicit SpanContextScope(const SpanContext& ctx) noexcept;
  ~SpanContextScope();
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  std::uint64_t prev_current_;
  std::uint64_t prev_trace_;
};

// A span that belongs to no scope and no thread: it parents to an explicit
// context (a root when that is empty), never becomes a thread's current
// span, and commits on end() or destruction. Movable, so a connection can
// carry it across event-loop callbacks. Attributes are u64 sizes/counts.
class DetachedSpan {
 public:
  DetachedSpan() = default;  // inactive: end() and attr() do nothing
  explicit DetachedSpan(std::string_view name, const SpanContext& parent = {},
                        TraceSink* sink = nullptr) noexcept;
  ~DetachedSpan() { end(); }
  DetachedSpan(DetachedSpan&& other) noexcept;
  DetachedSpan& operator=(DetachedSpan&& other) noexcept;

  void attr(std::string_view key, std::uint64_t v) noexcept;
  // Stamps the end and commits; later calls (and the destructor) do nothing.
  void end() noexcept;
  bool active() const noexcept { return sink_ != nullptr; }
  SpanContext context() const noexcept {
    return SpanContext{ev_.trace_id, ev_.span_id};
  }

 private:
  SpanEvent ev_;
  TraceSink* sink_ = nullptr;  // null once ended
};

// Serializes events as JSON Lines, one object per event:
//   {"span":3,"parent":1,"trace":3,"thread":2,"name":"phase:secsum",
//    "start_ns":10,"end_ns":90,"attrs":{"party":0,"bytes":4096}}
std::string to_jsonl(const std::vector<SpanEvent>& events);

}  // namespace eppi::obs
