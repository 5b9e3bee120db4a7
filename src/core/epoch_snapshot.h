// Immutable serving snapshot + the lock-free publication slot (RCU-style).
//
// The paper sells PPI over searchable encryption on serving-time cost
// ("query evaluation in the PPI server is trivial", §II-A) — but a serving
// tier only realizes that if reads scale across cores and a rebuild never
// invalidates the index out from under a reader. The mechanism here is the
// classic immutable-snapshot / atomic-swap split used by high-throughput
// index servers:
//
//  * EpochSnapshot is deeply immutable once published: the posting-list
//    index, the name catalogs it was built against, and the epoch/staleness
//    labels are frozen together, so every field a reader touches is
//    consistent with every other field.
//  * SnapshotSlot is an atomically-swapped shared_ptr<const EpochSnapshot>:
//    readers acquire() a private reference and work entirely on it; the
//    writer builds the next epoch off to the side and publish()es it with
//    one pointer flip. Everything written before publish() happens-before
//    everything read after acquire(), which is what makes the snapshot's
//    plain (non-atomic) fields safely readable.
//  * Reclamation is the shared_ptr refcount: an old epoch stays alive until
//    the last in-flight reader drops its reference — no epochs are freed
//    under a reader, no reader ever waits for a rebuild (grace periods are
//    implicit, which is the RCU part).
//
// Why not std::atomic<std::shared_ptr>: libstdc++'s _Sp_atomic guards its
// plain pointer field with a lock bit embedded in the control-block word,
// but load() RELEASES that lock with a relaxed fetch_sub — so a reader's
// plain read of the pointer has no happens-before edge to a later store()'s
// plain write. ThreadSanitizer reports exactly that pair on our
// `concurrency` gate (and the report is defensible under the C++ memory
// model: a relaxed RMW heads no release sequence). The slot below is the
// same idea implemented portably: two shared_ptr buffers written only by
// the single writer, a seq_cst active-index flip, and per-buffer reader pin
// counts so the writer never overwrites a buffer mid-copy. The seq_cst
// pin/recheck on the reader and flip/drain on the writer form the classic
// store-buffering (Dekker) pair: either the writer observes the pin and
// waits, or the reader observes the flip and retries — both observing
// neither is impossible in the seq_cst total order.
//
// Concurrency contract: any number of concurrent readers, ONE writer at a
// time (rebuilds are serialized by the caller — LocatorService's mutation
// API is single-writer, like the rest of the library). Readers retry only
// if a flip lands inside their two-instruction pin window and never block
// on the writer; the writer drains at most the handful of readers caught
// mid-copy in the buffer it is about to reuse.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/lexicon.h"
#include "core/posting_index.h"

namespace eppi::core {

// Provider names laid end to end in one arena, indexed by ProviderId: an
// answer encoder appends a provider's name bytes straight from here, with
// no per-provider std::string on the read path.
class ProviderNameTable {
 public:
  // Every name is followed by at least this many readable bytes, so an
  // encoder may copy a fixed kReadSlack bytes from any name's start.
  static constexpr std::size_t kReadSlack = 16;

  explicit ProviderNameTable(std::span<const std::string> names) {
    std::size_t total = 0;
    for (const auto& name : names) total += name.size();
    bytes_.reserve(total + kReadSlack);
    starts_.reserve(names.size() + 1);
    for (const auto& name : names) {
      starts_.push_back(bytes_.size());
      bytes_ += name;
    }
    starts_.push_back(bytes_.size());
    bytes_.append(kReadSlack, '\0');
  }

  std::size_t size() const noexcept { return starts_.size() - 1; }
  std::string_view operator[](ProviderId p) const noexcept {
    return std::string_view(bytes_.data() + starts_[p],
                            starts_[p + 1] - starts_[p]);
  }

 private:
  std::string bytes_;
  std::vector<std::size_t> starts_;  // size() + 1 offsets into bytes_
};

struct EpochSnapshot {
  // The served index, in the O(answer) posting-list form. Shared (not
  // owned) so a staleness-only republish — same epoch, new degraded
  // accounting — costs two refcounts, not an index copy.
  std::shared_ptr<const PostingIndex> postings;

  // The catalogs the served epoch was built against. Readers resolve names
  // through these frozen copies, never through the live (writer-mutable)
  // registration maps: an owner delegated after this epoch was built is
  // simply "unknown" to it, exactly as it is unknown to the index itself.
  // The owner catalog is the front-coded Lexicon (core/lexicon.h), not a
  // hash map — at millions of owners the map's per-node overhead would
  // dwarf the compressed index it sits next to.
  std::shared_ptr<const Lexicon> owners;
  std::shared_ptr<const ProviderNameTable> provider_names;

  // Staleness labels, frozen with the data they describe (mirrors
  // EpochManager::ServingStatus at publication time).
  std::uint64_t epoch = 0;
  bool degraded = false;
  std::size_t rebuilds_behind = 0;
  std::chrono::steady_clock::time_point built_at{};

  double age_seconds() const noexcept {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         built_at)
        .count();
  }
};

class SnapshotSlot {
 public:
  SnapshotSlot() = default;
  SnapshotSlot(const SnapshotSlot&) = delete;
  SnapshotSlot& operator=(const SnapshotSlot&) = delete;

  // Reader side: pin the active buffer, copy its shared_ptr, unpin.
  // Returns nullptr before the first publication.
  std::shared_ptr<const EpochSnapshot> acquire() const noexcept {
    for (;;) {
      const unsigned k = active_.load(std::memory_order_seq_cst);
      pins_[k].fetch_add(1, std::memory_order_seq_cst);
      if (active_.load(std::memory_order_seq_cst) == k) {
        // The pin is visible, so the writer cannot reuse buffer k until we
        // unpin; if the buffer was republished since the first load we
        // simply copy the NEWER snapshot (the flip's seq_cst store
        // happens-before this read of the recheck that observed it).
        std::shared_ptr<const EpochSnapshot> snap = buffers_[k];
        pins_[k].fetch_sub(1, std::memory_order_release);
        return snap;
      }
      // A flip landed inside the pin window: unpin the stale buffer and
      // re-read the index. At most one retry per concurrent publish.
      pins_[k].fetch_sub(1, std::memory_order_release);
    }
  }

  // Writer side (single writer): stage the next epoch in the inactive
  // buffer, then commit with one index flip. Drains readers still copying
  // out of the buffer being reused — a wait bounded by a shared_ptr copy.
  void publish(std::shared_ptr<const EpochSnapshot> next) noexcept {
    const unsigned other = active_.load(std::memory_order_relaxed) ^ 1u;
    while (pins_[other].load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
    // No pinned readers and any future pin rechecks the active index, so
    // this plain write cannot race; the release half of the seq_cst flip
    // publishes it to every reader that observes the new index.
    buffers_[other] = std::move(next);
    active_.store(other, std::memory_order_seq_cst);
  }

 private:
  // Buffers are written ONLY by the writer, only while unpinned+inactive;
  // readers copy (never mutate) them, which shared_ptr allows concurrently.
  std::shared_ptr<const EpochSnapshot> buffers_[2];
  std::atomic<unsigned> active_{0};
  mutable std::atomic<std::uint64_t> pins_[2]{};
};

}  // namespace eppi::core
