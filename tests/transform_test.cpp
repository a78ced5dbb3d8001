// Conversion-engine tests: the comparator tree must match a linear
// scan exactly (including tie bitvectors), the engine must match the
// per-row Fig. 15b reference loop bit for bit and allocate nothing per
// warm tile, and its online tiles must be bit-identical to offline
// tiled DCSR, with the paper's throughput/area/energy accounting
// reproduced.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#include "formats/convert.hpp"
#include "formats/footprint.hpp"
#include "formats/retype.hpp"
#include "matgen/generators.hpp"
#include "transform/arena.hpp"
#include "transform/comparator.hpp"
#include "transform/engine.hpp"
#include "transform/hw_model.hpp"
#include "util/error.hpp"

// Counting global allocator: heap allocations made by this thread, so a
// test can pin a code path as allocation-free.
namespace {
thread_local nmdt::u64 t_heap_allocs = 0;
}  // namespace

// Out of line, so the compiler never pairs an inlined free() with an
// operator new call site and warns about a mismatch.
[[gnu::noinline]] void* operator new(std::size_t bytes) {
  ++t_heap_allocs;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace nmdt {
namespace {

/// Reference linear scan with the comparator tree's semantics.
MinReduceResult linear_scan_min(std::span<const index_t> coords,
                                std::span<const u8> valid) {
  MinReduceResult res;
  index_t best = std::numeric_limits<index_t>::max();
  for (usize i = 0; i < coords.size(); ++i) {
    if (!valid[i]) continue;
    if (!res.any_valid || coords[i] < best) {
      best = coords[i];
      res.lane_mask = u64{1} << i;
      res.any_valid = true;
    } else if (coords[i] == best) {
      res.lane_mask |= u64{1} << i;
    }
  }
  if (res.any_valid) res.min_coord = best;
  return res;
}

// ---------------------------------------------------------------------
// Comparator tree (Fig. 15).
// ---------------------------------------------------------------------

TEST(Comparator, PaperExampleTie) {
  // Fig. 15(b): COOR0 == COOR2 minimum → min[3:0] = 0101b.
  const std::vector<index_t> coords{5, 9, 5, 7};
  const std::vector<u8> valid{1, 1, 1, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_TRUE(r.any_valid);
  EXPECT_EQ(r.min_coord, 5);
  EXPECT_EQ(r.lane_mask, 0b0101u);
}

TEST(Comparator, SingleMinimumAtLastLane) {
  // Fig. 15(b): COOR3 smallest → min[3:0] = 1000b.
  const std::vector<index_t> coords{5, 9, 6, 2};
  const std::vector<u8> valid{1, 1, 1, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.min_coord, 2);
  EXPECT_EQ(r.lane_mask, 0b1000u);
}

TEST(Comparator, InvalidLanesNeverWin) {
  const std::vector<index_t> coords{1, 2, 3, 4};
  const std::vector<u8> valid{0, 1, 0, 1};
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.min_coord, 2);
  EXPECT_EQ(r.lane_mask, 0b0010u);
}

TEST(Comparator, AllInvalid) {
  const std::vector<index_t> coords{1, 2};
  const std::vector<u8> valid{0, 0};
  EXPECT_FALSE(comparator_tree_min(coords, valid).any_valid);
}

TEST(Comparator, EmptyInput) {
  EXPECT_FALSE(comparator_tree_min({}, {}).any_valid);
}

TEST(Comparator, SixtyFourLanesAllTied) {
  std::vector<index_t> coords(64, 7);
  std::vector<u8> valid(64, 1);
  const MinReduceResult r = comparator_tree_min(coords, valid);
  EXPECT_EQ(r.lane_mask, ~u64{0});
  EXPECT_EQ(r.comparator_ops, 63u);
}

TEST(Comparator, RejectsTooManyLanes) {
  std::vector<index_t> coords(65, 0);
  std::vector<u8> valid(65, 1);
  EXPECT_THROW(comparator_tree_min(coords, valid), FormatError);
}

class ComparatorProperty : public testing::TestWithParam<int> {};

TEST_P(ComparatorProperty, TreeMatchesLinearScanOnRandomInputs) {
  const int lanes = GetParam();
  Rng rng(1234 + lanes);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<index_t> coords(static_cast<usize>(lanes));
    std::vector<u8> valid(static_cast<usize>(lanes));
    for (int i = 0; i < lanes; ++i) {
      coords[i] = static_cast<index_t>(rng.below(8));  // small range forces ties
      valid[i] = rng.chance(0.8) ? 1 : 0;
    }
    const MinReduceResult tree = comparator_tree_min(coords, valid);
    const MinReduceResult ref = linear_scan_min(coords, valid);
    EXPECT_EQ(tree.any_valid, ref.any_valid);
    if (ref.any_valid) {
      EXPECT_EQ(tree.min_coord, ref.min_coord);
      EXPECT_EQ(tree.lane_mask, ref.lane_mask);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(LaneCounts, ComparatorProperty,
                         testing::Values(1, 2, 3, 4, 7, 8, 16, 31, 32, 33, 64));

// ---------------------------------------------------------------------
// Conversion engine vs offline tiling.
// ---------------------------------------------------------------------

class EngineEquivalence
    : public testing::TestWithParam<std::tuple<int, int, double, int, int>> {};

TEST_P(EngineEquivalence, OnlineTilesBitIdenticalToOfflineTiledDcsr) {
  const auto [rows, cols, density, width, height] = GetParam();
  const Csr csr = gen_uniform(rows, cols, density, 500 + rows + cols);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
  const TiledDcsr offline = tiled_dcsr_from_csr(csr, spec);

  ConversionEngine engine;
  for (index_t s = 0; s < offline.num_strips(); ++s) {
    const std::vector<DcsrTile> online = engine.convert_strip(csc, s, spec);
    ASSERT_EQ(online.size(), offline.strips[s].size());
    for (usize t = 0; t < online.size(); ++t) {
      const Dcsr& a = online[t].body;
      const Dcsr& b = offline.strips[s][t].body;
      EXPECT_EQ(a.row_idx, b.row_idx) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.row_ptr, b.row_ptr) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.col_idx, b.col_idx) << "strip " << s << " tile " << t;
      EXPECT_EQ(a.val, b.val) << "strip " << s << " tile " << t;
      EXPECT_EQ(online[t].row_begin, offline.strips[s][t].row_begin);
      EXPECT_EQ(online[t].col_begin, offline.strips[s][t].col_begin);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalence,
    testing::Values(std::make_tuple(64, 64, 0.05, 64, 64),
                    std::make_tuple(200, 130, 0.03, 64, 64),
                    std::make_tuple(128, 128, 0.2, 32, 16),
                    std::make_tuple(100, 100, 0.01, 16, 100),
                    std::make_tuple(333, 77, 0.05, 64, 64),
                    std::make_tuple(64, 64, 0.0, 64, 64)));

TEST(Engine, WalkThroughExampleFig13) {
  // Fig. 13: a 5-row, 3-column strip with columns
  //   col0: a0@r0, a2@r2, a4@r4 ; col1: b0@r0, b1@r1, b4@r4 ; col2: c0@r0, c2@r2.
  Coo coo;
  coo.rows = 5;
  coo.cols = 3;
  coo.push(0, 0, 10);  // a0
  coo.push(2, 0, 12);  // a2
  coo.push(4, 0, 14);  // a4
  coo.push(0, 1, 20);  // b0
  coo.push(1, 1, 21);  // b1
  coo.push(4, 1, 24);  // b4
  coo.push(0, 2, 30);  // c0
  coo.push(2, 2, 32);  // c2
  const Csc csc = csc_from_coo(coo);

  ConversionEngine engine;
  const TilingSpec spec{3, 5};
  const std::vector<DcsrTile> tiles = engine.convert_strip(csc, 0, spec);
  ASSERT_EQ(tiles.size(), 1u);
  const Dcsr& d = tiles[0].body;
  // Paper's resulting DCSR: rows {0,1,2,4}; row 0 = a0,b0,c0; row 1 = b1;
  // row 2 = a2,c2; row 4 = a4,b4.
  EXPECT_EQ(d.row_idx, (std::vector<index_t>{0, 1, 2, 4}));
  EXPECT_EQ(d.row_ptr, (std::vector<index_t>{0, 3, 4, 6, 8}));
  EXPECT_EQ(d.col_idx, (std::vector<index_t>{0, 1, 2, 1, 0, 2, 0, 1}));
  EXPECT_EQ(d.val, (std::vector<value_t>{10, 20, 30, 21, 12, 32, 14, 24}));
  // 4 emitted DCSR rows = 4 comparator beats; 8 elements consumed.
  EXPECT_EQ(engine.stats().steps, 4u);
  EXPECT_EQ(engine.stats().elements, 8u);
}

TEST(Engine, SequentialCursorSpansTiles) {
  const Csr csr = gen_uniform(300, 64, 0.05, 42);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  StripCursor cursor(csc, 0, spec);
  i64 total = 0;
  DcsrTile tile;
  for (index_t r0 = 0; r0 < csr.rows; r0 += spec.tile_height) {
    engine.convert_tile_into(tile, csc, cursor, r0, spec);
    total += tile.nnz();
  }
  EXPECT_EQ(total, csr.nnz());
}

TEST(Engine, StatsBytesMatchElementCounts) {
  const Csr csr = gen_uniform(128, 64, 0.05, 43);
  const Csc csc = csc_from_csr(csr);
  ConversionEngine engine;
  const TilingSpec spec{64, 64};
  engine.convert_strip(csc, 0, spec);
  const EngineStats& s = engine.stats();
  EXPECT_EQ(s.elements, static_cast<u64>(csc.nnz()));
  // Input = 8 B per element + col_ptr of the strip (65 entries).
  EXPECT_EQ(s.dram_bytes_in, csc.nnz() * 8 + 65 * 4);
  EXPECT_GT(s.xbar_bytes_out, csc.nnz() * 8);  // payload + DCSR metadata
}

TEST(Engine, TrafficAccountedInMemorySystem) {
  const Csr csr = gen_uniform(128, 128, 0.05, 44);
  const Csc csc = csc_from_csr(csr);
  MemorySystem mem(ArchConfig::gv100(), MemMode::kCounting);
  const CscDeviceLayout layout = CscDeviceLayout::allocate(csc, mem);
  ConversionEngine engine;
  const TilingSpec spec{64, 64};
  for (index_t s = 0; s < spec.num_strips(csc.cols); ++s) {
    engine.convert_strip(csc, s, spec, &mem, &layout);
  }
  EXPECT_EQ(mem.stats().total_dram_bytes(), engine.stats().dram_bytes_in);
  EXPECT_EQ(mem.stats().xbar_bytes, engine.stats().xbar_bytes_out);
}

TEST(Engine, OutOfOrderCursorThrows) {
  const Csr csr = gen_uniform(256, 64, 0.1, 45);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  ConversionEngine engine;
  StripCursor cursor(csc, 0, spec);
  DcsrTile tile;
  engine.convert_tile_into(tile, csc, cursor, 0, spec);
  engine.convert_tile_into(tile, csc, cursor, 64, spec);
  // Rewinding to an earlier tile with an advanced cursor is a misuse.
  EXPECT_THROW(engine.convert_tile_into(tile, csc, cursor, 0, spec), FormatError);
}

TEST(Engine, InvalidStripThrows) {
  const Csr csr = gen_uniform(64, 64, 0.1, 46);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  EXPECT_THROW(StripCursor(csc, 5, spec), FormatError);
}

// ---------------------------------------------------------------------
// Engine vs the per-row reference loop.
// ---------------------------------------------------------------------

/// The engine loop before row bucketing, kept as the oracle: every
/// emitted row reloads all lane frontiers and reduces them through the
/// Fig. 15b tree, and every element books its own DRAM read.
template <class V>
DcsrTileT<V> reference_convert_tile(const CscT<V>& csc, StripCursor& cursor,
                                    index_t row_start, const TilingSpec& spec,
                                    MemorySystem* mem, const CscDeviceLayout* layout,
                                    int pinned_channel, EngineStats& stats) {
  constexpr i64 kVB = static_cast<i64>(sizeof(V));
  const index_t row_end = std::min<index_t>(row_start + spec.tile_height, csc.rows);
  const int lanes = cursor.lanes();
  const auto frontier = cursor.frontier();
  const auto boundary = cursor.boundary();
  DcsrTileT<V> tile;
  tile.strip_id = cursor.strip_id();
  tile.row_begin = row_start;
  tile.col_begin = cursor.col_begin();
  tile.body.rows = row_end - row_start;
  tile.body.cols = lanes;
  tile.body.row_ptr.push_back(0);
  EngineStats local;
  ++local.requests;
  if (row_start == 0) {
    const i64 col_ptr_bytes = static_cast<i64>(lanes + 1) * kIndexBytes;
    local.dram_bytes_in += col_ptr_bytes;
    if (mem != nullptr && pinned_channel >= 0) {
      mem->engine_read_channel(pinned_channel, col_ptr_bytes, 1);
    } else if (mem != nullptr && layout != nullptr) {
      mem->engine_read(layout->col_ptr_base +
                           static_cast<u64>(cursor.col_begin()) * kIndexBytes,
                       col_ptr_bytes);
    }
  }
  std::vector<index_t> coords(static_cast<usize>(lanes));
  std::vector<u8> valid(static_cast<usize>(lanes));
  for (;;) {
    for (int l = 0; l < lanes; ++l) {
      const bool has_element = frontier[l] < boundary[l];
      const index_t row = has_element ? csc.row_idx[frontier[l]] : 0;
      valid[l] = has_element && row < row_end ? 1 : 0;
      coords[l] = valid[l] ? row : 0;
    }
    const MinReduceResult min = comparator_tree_min(coords, valid);
    local.comparator_ops += min.comparator_ops;
    if (!min.any_valid) break;
    ++local.steps;
    tile.body.row_idx.push_back(min.min_coord - row_start);
    for (int l = 0; l < lanes; ++l) {
      if ((min.lane_mask >> l & 1) == 0) continue;
      const index_t src = frontier[l]++;
      tile.body.col_idx.push_back(l);
      tile.body.val.push_back(csc.val[src]);
      ++local.elements;
      local.dram_bytes_in += kIndexBytes + kVB;
      if (mem != nullptr && pinned_channel >= 0) {
        mem->engine_read_channel(pinned_channel, kIndexBytes + kVB, 1);
      } else if (mem != nullptr && layout != nullptr) {
        mem->engine_read(layout->row_idx_base + static_cast<u64>(src) * kIndexBytes,
                         kIndexBytes);
        mem->engine_read(layout->val_base + static_cast<u64>(src) * static_cast<u64>(kVB),
                         kVB);
      }
    }
    tile.body.row_ptr.push_back(static_cast<index_t>(tile.body.col_idx.size()));
  }
  const i64 nrows = static_cast<i64>(tile.body.row_idx.size());
  const i64 out_bytes = tile.nnz() * (kVB + kIndexBytes) + (2 * nrows + 1) * kIndexBytes;
  local.xbar_bytes_out += out_bytes;
  if (mem != nullptr) mem->xbar_transfer(out_bytes);
  stats += local;
  tile.crc = dcsr_tile_crc(tile);
  tile.crc_valid = true;
  return tile;
}

/// Where an oracle run books the engine's traffic.
enum class EngineMem { kNone, kLayout, kPinned };

/// Convert every strip of `csc` with the engine (checked, one reused
/// tile per strip, as the online kernel does) and with the reference
/// loop, asserting identical tiles, EngineStats and MemStats.
template <class V>
void expect_engine_matches_reference(const CscT<V>& csc, const TilingSpec& spec,
                                     EngineMem where, MemMode mode) {
  const ArchConfig arch = ArchConfig::gv100();
  MemorySystem mem(arch, mode);
  MemorySystem ref_mem(arch, mode);
  const CscDeviceLayout layout = CscDeviceLayout::allocate(csc, mem);
  const CscDeviceLayout ref_layout = CscDeviceLayout::allocate(csc, ref_mem);
  const bool use_mem = where != EngineMem::kNone;
  const bool use_layout = where == EngineMem::kLayout;
  ConversionEngine engine;
  EngineStats ref_stats;
  DcsrTileT<V> tile;
  for (index_t s = 0; s < spec.num_strips(csc.cols); ++s) {
    StripCursor cursor(csc, s, spec);
    StripCursor ref_cursor(csc, s, spec);
    ConversionArena::local().reset();
    for (index_t r0 = 0, t = 0; r0 < csc.rows; r0 += spec.tile_height, ++t) {
      const int ch = where == EngineMem::kPinned
                         ? static_cast<int>((s * 7 + t) % arch.pseudo_channels)
                         : -1;
      engine.convert_tile_checked_into(tile, csc, cursor, r0, spec,
                                       use_mem ? &mem : nullptr,
                                       use_layout ? &layout : nullptr, ch);
      const DcsrTileT<V> ref =
          reference_convert_tile(csc, ref_cursor, r0, spec, use_mem ? &ref_mem : nullptr,
                                 use_layout ? &ref_layout : nullptr, ch, ref_stats);
      ASSERT_EQ(tile.body.row_idx, ref.body.row_idx) << "strip " << s << " tile " << t;
      ASSERT_EQ(tile.body.row_ptr, ref.body.row_ptr) << "strip " << s << " tile " << t;
      ASSERT_EQ(tile.body.col_idx, ref.body.col_idx) << "strip " << s << " tile " << t;
      ASSERT_EQ(tile.body.val.size(), ref.body.val.size());
      ASSERT_TRUE(tile.body.val.empty() ||
                  std::memcmp(tile.body.val.data(), ref.body.val.data(),
                              tile.body.val.size() * sizeof(V)) == 0)
          << "strip " << s << " tile " << t;
      ASSERT_EQ(tile.body.rows, ref.body.rows);
      ASSERT_EQ(tile.body.cols, ref.body.cols);
      ASSERT_EQ(tile.strip_id, ref.strip_id);
      ASSERT_EQ(tile.row_begin, ref.row_begin);
      ASSERT_EQ(tile.col_begin, ref.col_begin);
      ASSERT_TRUE(tile.crc_valid);
      ASSERT_EQ(tile.crc, ref.crc) << "strip " << s << " tile " << t;
      ASSERT_EQ(engine.stats(), ref_stats) << "strip " << s << " tile " << t;
    }
    ASSERT_EQ(mem.stats(), ref_mem.stats()) << "strip " << s;
  }
}

template <class V>
void engine_oracle_sweep() {
  u64 seed = 900;
  for (const int width : {1, 3, 33, 63, 64}) {
    for (const int height : {1, 5, 64, 100, 200}) {
      ++seed;
      // Two full strips and a one-column tail; a row-skewed matrix puts
      // dense rows (64-lane ties) next to empty stretches.
      Rng rng(seed);
      const index_t rows = static_cast<index_t>(1 + rng.below(300));
      const index_t cols = static_cast<index_t>(2 * width + 1);
      const Csr csr = rng.chance(0.5)
                          ? gen_uniform(rows, cols, 0.01 + 0.2 * rng.uniform(), seed)
                          : gen_powerlaw_rows(rows, cols, 0.05, 1.2, seed);
      const CscT<V> csc = csc_from_csr(retype<V>(csr));
      const TilingSpec spec{static_cast<index_t>(width), static_cast<index_t>(height)};
      SCOPED_TRACE(testing::Message() << "width " << width << " height " << height
                                      << " rows " << rows << " nnz " << csc.nnz());
      expect_engine_matches_reference(csc, spec, EngineMem::kNone, MemMode::kCounting);
      for (const MemMode mode : {MemMode::kCounting, MemMode::kCacheSim}) {
        expect_engine_matches_reference(csc, spec, EngineMem::kLayout, mode);
        expect_engine_matches_reference(csc, spec, EngineMem::kPinned, mode);
      }
    }
  }
}

TEST(Engine, MatchesPerRowReferenceF32) { engine_oracle_sweep<float>(); }
TEST(Engine, MatchesPerRowReferenceF64) { engine_oracle_sweep<double>(); }
TEST(Engine, MatchesPerRowReferenceBf16) { engine_oracle_sweep<bf16_t>(); }

TEST(Engine, ColumnRunningBackwardsIsATypedError) {
  // Hand-built CSC whose second column runs backwards (rows 5, 9, 2):
  // the bucketed frontier would otherwise drop or reorder row 2.
  Csc csc;
  csc.rows = 16;
  csc.cols = 2;
  csc.col_ptr = {0, 2, 5};
  csc.row_idx = {1, 9, 5, 9, 2};
  csc.val = {1, 2, 3, 4, 5};
  const TilingSpec spec{2, 16};
  ConversionEngine engine;
  StripCursor cursor(csc, 0, spec);
  DcsrTile tile;
  EXPECT_THROW(engine.convert_tile_into(tile, csc, cursor, 0, spec), FormatError);
  StripCursor checked(csc, 0, spec);
  EXPECT_THROW(engine.convert_tile_checked_into(tile, csc, checked, 0, spec), FormatError);
  // A repeated row within a column is no more valid than a falling one.
  csc.row_idx = {1, 9, 5, 5, 7};
  StripCursor repeated(csc, 0, spec);
  EXPECT_THROW(engine.convert_tile_into(tile, csc, repeated, 0, spec), FormatError);
  // Falling back across a tile boundary: row 70 in the second tile,
  // then row 3.
  Csc tall;
  tall.rows = 128;
  tall.cols = 1;
  tall.col_ptr = {0, 2};
  tall.row_idx = {70, 3};
  tall.val = {1, 2};
  const TilingSpec tall_spec{1, 64};
  StripCursor tall_cursor(tall, 0, tall_spec);
  engine.convert_tile_into(tile, tall, tall_cursor, 0, tall_spec);
  EXPECT_EQ(tile.nnz(), 0);
  EXPECT_THROW(engine.convert_tile_into(tile, tall, tall_cursor, 64, tall_spec), FormatError);
}

TEST(Engine, WarmStripConvertsWithoutHeapAllocations) {
  const Csr csr = gen_powerlaw_rows(1024, 64, 0.05, 1.0, 47);
  const Csc csc = csc_from_csr(csr);
  const TilingSpec spec{64, 64};
  for (const MemMode mode : {MemMode::kCounting, MemMode::kCacheSim}) {
    for (const int pinned : {-1, 5}) {
      MemorySystem mem(ArchConfig::gv100(), mode);
      const CscDeviceLayout layout = CscDeviceLayout::allocate(csc, mem);
      ConversionEngine engine;
      DcsrTile tile;
      const auto sweep = [&](StripCursor& cursor) {
        ConversionArena::local().reset();
        for (index_t r0 = 0; r0 < csc.rows; r0 += spec.tile_height) {
          engine.convert_tile_checked_into(tile, csc, cursor, r0, spec, &mem, &layout,
                                           pinned);
        }
      };
      StripCursor warm(csc, 0, spec);
      sweep(warm);  // grows the arena, the tile's arrays and the operand map
      StripCursor cursor(csc, 0, spec);
      const u64 before = t_heap_allocs;
      sweep(cursor);
      EXPECT_EQ(t_heap_allocs - before, 0u) << "pinned " << pinned;
      EXPECT_EQ(engine.stats().elements, 2 * static_cast<u64>(csc.nnz()));
    }
  }
}

// ---------------------------------------------------------------------
// Section 5.3 hardware model.
// ---------------------------------------------------------------------

TEST(HwModel, PipelineMeetsHbm2Delivery) {
  const EngineHwModel hw;
  // 13.6 GB/s delivers 8 B every 0.588 ns; worst stage 0.339 ns fits.
  EXPECT_TRUE(hw.pipeline_meets_throughput(false));
  EXPECT_TRUE(hw.pipeline_meets_throughput(true));
  EXPECT_NEAR(8.0 / hw.cycle_ns_sp, 13.6, 0.01);   // GB/s equivalent
  EXPECT_NEAR(12.0 / hw.cycle_ns_dp, 13.6, 0.01);
}

TEST(HwModel, BufferHidesSupplyLatency) {
  const EngineHwModel hw;
  // 256 B/lane must cover the 3.3 + 15 ns supply latency (paper: hides
  // 18.8 ns) in both precisions.
  EXPECT_GE(hw.buffer_coverage_ns(false), hw.latency_to_hide_ns());
  EXPECT_GE(hw.buffer_coverage_ns(true), hw.latency_to_hide_ns());
  EXPECT_EQ(hw.buffer_bytes_total(), 16 * 1024);  // 16 KiB per engine
}

TEST(HwModel, Gv100AreaAndPowerMatchPaper) {
  const EngineSystemCosts c = engine_system_costs(EngineHwModel{}, ArchConfig::gv100());
  EXPECT_EQ(c.engines, 64);
  EXPECT_NEAR(c.total_area_mm2, 4.9, 0.05);           // 64 × 0.077
  EXPECT_NEAR(c.area_fraction_of_die, 0.006, 0.0005); // 0.6% of 815 mm²
  EXPECT_NEAR(c.peak_power_w_sp, 0.68, 0.01);
  EXPECT_NEAR(c.peak_power_w_dp, 0.51, 0.01);
  EXPECT_NEAR(c.power_fraction_of_tdp, 0.0027, 0.0002);  // 0.27% of TDP
  EXPECT_NEAR(c.power_fraction_of_idle, 0.0296, 0.003);  // 2.96% of idle
}

TEST(HwModel, Tu116ScalingMatchesPaper) {
  const EngineSystemCosts c = engine_system_costs(EngineHwModel{}, ArchConfig::tu116());
  EXPECT_EQ(c.engines, 24);
  EXPECT_NEAR(c.total_area_mm2, 1.85, 0.01);          // 24 × 0.077
  EXPECT_NEAR(c.area_fraction_of_die, 0.0065, 0.0003);  // 0.65% of 284 mm²
}

TEST(HwModel, BusyTimeScalesWithSteps) {
  EngineStats s;
  s.steps = 1000;
  EXPECT_NEAR(s.busy_ns(EngineHwModel{}), 588.0, 1e-9);
}

}  // namespace
}  // namespace nmdt
