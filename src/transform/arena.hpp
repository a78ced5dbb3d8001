// Thread-local conversion arena: a chunked bump allocator backing the
// per-tile scratch of the CSC→DCSR engine datapath.
//
// Tile conversion historically allocated fresh vectors per tile (lane
// scratch + four growing tile arrays): at bench scale that is tens of
// thousands of malloc/free round trips per kernel invocation, most of
// the online kernel's non-compute time.  The arena replaces them with
// bump allocation from reusable chunks:
//
//   * per tile  — ConversionArena::Scope marks the arena on entry and
//     rewinds on exit (RAII, so a cancellation or fault unwind can
//     never leak tile scratch),
//   * per strip — the strip loop calls reset(), which drops every
//     outstanding byte but KEEPS the chunks, so steady state allocates
//     nothing from the heap,
//   * reconversion retries (convert_tile_checked) simply open a fresh
//     Scope per attempt: the rewound arena hands back the same bytes,
//     which is what makes recovered runs cheap as well as
//     bit-identical.
//
// The arena is thread_local: each kernel shard (and each suite worker)
// owns one instance, so no synchronization is needed and chunk reuse
// is perfect within a thread.  Spans handed out are raw trivially-
// destructible storage — callers never run destructors through the
// arena.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/types.hpp"

namespace nmdt {

class ConversionArena {
 public:
  /// Observability for tests: lifetime totals of this thread's arena.
  struct Stats {
    u64 allocs = 0;        ///< alloc() calls served
    u64 chunk_allocs = 0;  ///< chunks obtained from the heap
    u64 rewinds = 0;       ///< tile scopes closed
    u64 resets = 0;        ///< strip resets
    usize capacity_bytes = 0;
  };

  /// This thread's arena (created on first use).
  static ConversionArena& local();

  /// Bump-allocate `n` elements of trivially-destructible T, aligned.
  /// Valid until the enclosing Scope closes (or reset()).
  template <class T>
  std::span<T> alloc(usize n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage never runs destructors");
    void* p = alloc_bytes(n * sizeof(T), alignof(T));
    return {static_cast<T*>(p), n};
  }

  /// Drop everything and keep the chunks: the per-strip reset.
  void reset();

  const Stats& stats() const { return stats_; }

  /// Per-tile mark/rewind (RAII).  Scopes nest (retry attempts inside a
  /// checked conversion).
  class Scope {
   public:
    explicit Scope(ConversionArena& a)
        : arena_(a), chunk_(a.current_), used_(a.used_) {}
    ~Scope() { arena_.rewind(chunk_, used_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    ConversionArena& arena_;
    usize chunk_;
    usize used_;
  };

 private:
  void* alloc_bytes(usize bytes, usize align);
  void rewind(usize chunk, usize used);

  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    usize size = 0;
  };

  std::vector<Chunk> chunks_;
  usize current_ = 0;  ///< chunk being bumped
  usize used_ = 0;     ///< bytes used in chunks_[current_]
  Stats stats_;
};

}  // namespace nmdt
