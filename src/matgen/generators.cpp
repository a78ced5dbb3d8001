#include "matgen/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace nmdt {

namespace {

value_t random_value(Rng& rng) { return static_cast<value_t>(rng.uniform(-1.0, 1.0)); }

/// Spend the one raw draw a random_value() takes, without using it.
/// The generators that collapse duplicate coordinates spend one per
/// sampled coordinate, so their draw streams, and every matrix they
/// make, stay those Generators.OutputMatchesParentGolden pins.
void skip_value_draw(Rng& rng) { rng(); }

/// Poisson sample; Knuth's method for small lambda (`limit` is
/// exp(-lambda), computed once by the caller), normal approximation for
/// large.  Degree distributions only — no statistical test rides on the
/// tail shape of the approximation.
i64 sample_poisson(Rng& rng, double lambda, double limit) {
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    double p = 1.0;
    i64 k = 0;
    do {
      ++k;
      p *= rng.uniform();
    } while (p > limit);
    return k - 1;
  }
  const double x = lambda + std::sqrt(lambda) * rng.normal();
  return std::max<i64>(0, static_cast<i64>(std::llround(x)));
}

/// Sample `count` distinct column indices in [0, cols) into `out`,
/// ascending.  `seen` is a bitmap of at least `cols` bits, all clear on
/// entry and on return; the sparse branch clears the words it set
/// through `out`, so clearing costs O(count), not O(cols).
void sample_distinct_cols(Rng& rng, index_t cols, i64 count, std::vector<index_t>& out,
                          std::vector<u64>& seen) {
  out.clear();
  count = std::min<i64>(count, cols);
  if (count <= 0) return;
  if (count * 3 >= cols) {
    // Dense case: reservoir over the full range.
    out.resize(static_cast<usize>(cols));
    std::iota(out.begin(), out.end(), index_t{0});
    for (index_t i = 0; i < count; ++i) {
      const i64 j = static_cast<i64>(i) + static_cast<i64>(rng.below(static_cast<u64>(cols - i)));
      std::swap(out[i], out[j]);
    }
    out.resize(static_cast<usize>(count));
  } else {
    // Draw until `count` distinct columns are in, as any exact set would.
    while (static_cast<i64>(out.size()) < count) {
      const auto c = static_cast<index_t>(rng.below(static_cast<u64>(cols)));
      u64& word = seen[static_cast<usize>(c) / 64];
      const u64 bit = u64{1} << (c % 64);
      if (word & bit) continue;
      word |= bit;
      out.push_back(c);
    }
    for (index_t c : out) seen[static_cast<usize>(c) / 64] = 0;
  }
  std::sort(out.begin(), out.end());
}

/// CSR of the distinct coordinates (coord_row[k], coord_col[k]): a
/// counting sort by row, then a sort and unique of each row's columns.
/// The sorted set of distinct coordinates is unique, so the result does
/// not depend on input order or on how it is sorted.  Values are drawn
/// afterwards, one random_value per entry in row-major order.
Csr csr_from_coords(index_t rows, index_t cols, const std::vector<index_t>& coord_row,
                    const std::vector<index_t>& coord_col, Rng& rng) {
  Csr csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.assign(static_cast<usize>(rows) + 1, 0);
  for (index_t r : coord_row) ++csr.row_ptr[r + 1];
  for (index_t r = 0; r < rows; ++r) csr.row_ptr[r + 1] += csr.row_ptr[r];
  csr.col_idx.resize(coord_col.size());
  {
    std::vector<index_t> cursor(csr.row_ptr.begin(), csr.row_ptr.end() - 1);
    for (usize k = 0; k < coord_col.size(); ++k) {
      csr.col_idx[cursor[coord_row[k]]++] = coord_col[k];
    }
  }
  // Compact each row's distinct columns down in place; row_ptr[r] is
  // rewritten only after its row has been read.
  index_t out = 0;
  for (index_t r = 0; r < rows; ++r) {
    const auto first = csr.col_idx.begin() + csr.row_ptr[r];
    const auto last = csr.col_idx.begin() + csr.row_ptr[r + 1];
    std::sort(first, last);
    const auto end = std::unique(first, last);
    csr.row_ptr[r] = out;
    for (auto it = first; it != end; ++it) csr.col_idx[out++] = *it;
  }
  csr.row_ptr[rows] = out;
  csr.col_idx.resize(static_cast<usize>(out));
  csr.val.resize(static_cast<usize>(out));
  for (auto& v : csr.val) v = random_value(rng);
  csr.validate();
  return csr;
}

}  // namespace

Csr gen_uniform(index_t rows, index_t cols, double density, u64 seed) {
  NMDT_CHECK_CONFIG(rows > 0 && cols > 0, "gen_uniform requires positive dimensions");
  NMDT_CHECK_CONFIG(density >= 0.0 && density <= 1.0, "density must be in [0, 1]");
  Rng rng(seed);
  Csr csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.reserve(static_cast<usize>(rows) + 1);
  csr.row_ptr.push_back(0);
  std::vector<index_t> row_cols;
  std::vector<u64> seen((static_cast<usize>(cols) + 63) / 64, 0);
  const double lambda = density * static_cast<double>(cols);
  const double limit = std::exp(-lambda);
  const auto expected_nnz = static_cast<usize>(lambda * static_cast<double>(rows));
  csr.col_idx.reserve(expected_nnz);
  csr.val.reserve(expected_nnz);
  for (index_t r = 0; r < rows; ++r) {
    sample_distinct_cols(rng, cols, sample_poisson(rng, lambda, limit), row_cols, seen);
    for (index_t c : row_cols) {
      csr.col_idx.push_back(c);
      csr.val.push_back(random_value(rng));
    }
    csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
  }
  return csr;
}

namespace {

/// Shared core for the two power-law generators: sample target nnz
/// coordinates with one heavy-tailed axis and one uniform axis;
/// duplicates collapse into one entry (slightly under-shooting nnz, as
/// real collision processes do).
Csr gen_powerlaw(index_t rows, index_t cols, double density, double skew, u64 seed,
                 bool heavy_rows) {
  NMDT_CHECK_CONFIG(rows > 0 && cols > 0, "power-law generator requires positive dims");
  NMDT_CHECK_CONFIG(density >= 0.0 && density <= 1.0, "density must be in [0, 1]");
  NMDT_CHECK_CONFIG(skew >= 0.0, "skew (zipf exponent) must be non-negative");
  Rng rng(seed);
  const i64 target = static_cast<i64>(density * static_cast<double>(rows) *
                                      static_cast<double>(cols));
  const ZipfSampler zipf(heavy_rows ? rows : cols, skew);
  // Scatter heavy labels across the index space (real heavy rows are not
  // sorted to the top), with a deterministic shuffle.
  std::vector<index_t> perm(static_cast<usize>(heavy_rows ? rows : cols));
  std::iota(perm.begin(), perm.end(), index_t{0});
  for (usize i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  std::vector<index_t> heavy_idx, uniform_idx;
  heavy_idx.reserve(static_cast<usize>(target));
  uniform_idx.reserve(static_cast<usize>(target));
  for (i64 k = 0; k < target; ++k) {
    heavy_idx.push_back(perm[static_cast<usize>(zipf(rng))]);
    uniform_idx.push_back(
        static_cast<index_t>(rng.below(static_cast<u64>(heavy_rows ? cols : rows))));
    skip_value_draw(rng);
  }
  // Values are drawn per distinct entry, after collisions collapse, so
  // they stay in [-1, 1).
  return heavy_rows ? csr_from_coords(rows, cols, heavy_idx, uniform_idx, rng)
                    : csr_from_coords(rows, cols, uniform_idx, heavy_idx, rng);
}

}  // namespace

Csr gen_powerlaw_rows(index_t rows, index_t cols, double density, double skew, u64 seed) {
  return gen_powerlaw(rows, cols, density, skew, seed, /*heavy_rows=*/true);
}

Csr gen_powerlaw_cols(index_t rows, index_t cols, double density, double skew, u64 seed) {
  return gen_powerlaw(rows, cols, density, skew, seed, /*heavy_rows=*/false);
}

Csr gen_rmat(index_t scale, double edge_factor, double a, double b, double c, double d,
             u64 seed) {
  NMDT_CHECK_CONFIG(scale > 0 && scale < 31, "rmat scale must be in (0, 31)");
  NMDT_CHECK_CONFIG(edge_factor > 0.0, "rmat edge_factor must be positive");
  NMDT_CHECK_CONFIG(std::abs(a + b + c + d - 1.0) < 1e-9, "rmat probabilities must sum to 1");
  Rng rng(seed);
  const index_t n = index_t{1} << scale;
  const i64 edges = static_cast<i64>(edge_factor * static_cast<double>(n));
  std::vector<index_t> coord_row, coord_col;
  coord_row.reserve(static_cast<usize>(edges));
  coord_col.reserve(static_cast<usize>(edges));
  for (i64 e = 0; e < edges; ++e) {
    index_t r = 0, col = 0;
    for (index_t bit = 0; bit < scale; ++bit) {
      const double u = rng.uniform();
      // Quadrant choice with +-5% per-level noise, the standard
      // smoothing that avoids perfectly self-similar artifacts.
      const double na = a * rng.uniform(0.95, 1.05);
      const double nb = b * rng.uniform(0.95, 1.05);
      const double nc = c * rng.uniform(0.95, 1.05);
      const double nd = d * rng.uniform(0.95, 1.05);
      const double sum = na + nb + nc + nd;
      const double x = u * sum;
      r <<= 1;
      col <<= 1;
      if (x < na) {
        // top-left
      } else if (x < na + nb) {
        col |= 1;
      } else if (x < na + nb + nc) {
        r |= 1;
      } else {
        r |= 1;
        col |= 1;
      }
    }
    coord_row.push_back(r);
    coord_col.push_back(col);
    skip_value_draw(rng);
  }
  return csr_from_coords(n, n, coord_row, coord_col, rng);
}

Csr gen_banded(index_t n, index_t bandwidth, double density_in_band, u64 seed) {
  NMDT_CHECK_CONFIG(n > 0, "gen_banded requires positive dimension");
  NMDT_CHECK_CONFIG(bandwidth >= 0, "bandwidth must be non-negative");
  NMDT_CHECK_CONFIG(density_in_band >= 0.0 && density_in_band <= 1.0,
                    "density_in_band must be in [0, 1]");
  Rng rng(seed);
  Csr csr;
  csr.rows = n;
  csr.cols = n;
  csr.row_ptr.push_back(0);
  for (index_t r = 0; r < n; ++r) {
    const index_t lo = std::max<index_t>(0, r - bandwidth);
    const index_t hi = std::min<index_t>(n - 1, r + bandwidth);
    for (index_t c = lo; c <= hi; ++c) {
      if (c == r || rng.chance(density_in_band)) {  // keep the diagonal
        csr.col_idx.push_back(c);
        csr.val.push_back(random_value(rng));
      }
    }
    csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
  }
  return csr;
}

Csr gen_block_clustered(index_t n, index_t num_blocks, double intra_density,
                        double inter_density, u64 seed) {
  NMDT_CHECK_CONFIG(n > 0 && num_blocks > 0 && num_blocks <= n,
                    "gen_block_clustered requires 0 < num_blocks <= n");
  Rng rng(seed);
  const index_t block = (n + num_blocks - 1) / num_blocks;
  std::vector<index_t> coord_row, coord_col;
  auto push = [&](index_t r, index_t c) {
    coord_row.push_back(r);
    coord_col.push_back(c);
    skip_value_draw(rng);
  };
  // Dense-ish diagonal blocks.
  for (index_t b = 0; b < num_blocks; ++b) {
    const index_t lo = b * block;
    const index_t hi = std::min<index_t>(n, lo + block);
    for (index_t r = lo; r < hi; ++r) {
      for (index_t c = lo; c < hi; ++c) {
        if (rng.chance(intra_density)) push(r, c);
      }
    }
  }
  // Sparse background: sampled by expected count, duplicates collapsed.
  const double off_cells = static_cast<double>(n) * n -
                           static_cast<double>(num_blocks) * block * block;
  const i64 inter = static_cast<i64>(std::max(0.0, inter_density * off_cells));
  for (i64 k = 0; k < inter; ++k) {
    const index_t r = static_cast<index_t>(rng.below(static_cast<u64>(n)));
    const index_t c = static_cast<index_t>(rng.below(static_cast<u64>(n)));
    if (r / block != c / block) push(r, c);
  }
  return csr_from_coords(n, n, coord_row, coord_col, rng);
}

Csr gen_magnitude_pruned(index_t rows, index_t cols, double density, index_t block_size,
                         u64 seed) {
  NMDT_CHECK_CONFIG(rows > 0 && cols > 0,
                    "gen_magnitude_pruned requires positive dimensions");
  NMDT_CHECK_CONFIG(density >= 0.0 && density <= 1.0, "density must be in [0, 1]");
  NMDT_CHECK_CONFIG(block_size > 0 && block_size <= rows && block_size <= cols,
                    "block_size must be in [1, min(rows, cols)]");
  Rng rng(seed);
  const index_t nb_r = (rows + block_size - 1) / block_size;
  const index_t nb_c = (cols + block_size - 1) / block_size;
  const i64 num_blocks = static_cast<i64>(nb_r) * nb_c;

  // One magnitude score per block, drawn in block-row-major order (the
  // block's pre-pruning L1 weight in a real layer); the top `density`
  // fraction survives.  Ties break toward the lower block index so the
  // cut is deterministic.
  std::vector<double> score(static_cast<usize>(num_blocks));
  for (double& s : score) s = std::abs(rng.normal());
  const i64 keep =
      std::min<i64>(num_blocks, static_cast<i64>(std::llround(
                                    density * static_cast<double>(num_blocks))));
  std::vector<i64> order(static_cast<usize>(num_blocks));
  std::iota(order.begin(), order.end(), i64{0});
  std::stable_sort(order.begin(), order.end(), [&](i64 a, i64 b) {
    return score[static_cast<usize>(a)] > score[static_cast<usize>(b)];
  });
  std::vector<u8> kept(static_cast<usize>(num_blocks), 0);
  for (i64 k = 0; k < keep; ++k) kept[static_cast<usize>(order[static_cast<usize>(k)])] = 1;

  // Surviving blocks are fully dense; element values share the block's
  // magnitude scale (weights that survive magnitude pruning cluster in
  // magnitude).  Cells emit in row-major order so the CSR is sorted.
  Csr csr;
  csr.rows = rows;
  csr.cols = cols;
  csr.row_ptr.reserve(static_cast<usize>(rows) + 1);
  csr.row_ptr.push_back(0);
  for (index_t r = 0; r < rows; ++r) {
    const index_t br = r / block_size;
    for (index_t bc = 0; bc < nb_c; ++bc) {
      if (!kept[static_cast<usize>(static_cast<i64>(br) * nb_c + bc)]) continue;
      const double scale = score[static_cast<usize>(static_cast<i64>(br) * nb_c + bc)];
      const index_t c_end = std::min<index_t>((bc + 1) * block_size, cols);
      for (index_t c = bc * block_size; c < c_end; ++c) {
        csr.col_idx.push_back(c);
        csr.val.push_back(static_cast<value_t>(scale * rng.uniform(-1.0, 1.0)));
      }
    }
    csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
  }
  return csr;
}

Csr gen_stencil_5pt(index_t grid_x, index_t grid_y) {
  NMDT_CHECK_CONFIG(grid_x > 0 && grid_y > 0, "stencil grid must be positive");
  const index_t n = grid_x * grid_y;
  Csr csr;
  csr.rows = n;
  csr.cols = n;
  csr.row_ptr.push_back(0);
  for (index_t y = 0; y < grid_y; ++y) {
    for (index_t x = 0; x < grid_x; ++x) {
      const index_t i = y * grid_x + x;
      auto add = [&](index_t j, value_t v) {
        csr.col_idx.push_back(j);
        csr.val.push_back(v);
      };
      if (y > 0) add(i - grid_x, -1.0f);
      if (x > 0) add(i - 1, -1.0f);
      add(i, 4.0f);
      if (x + 1 < grid_x) add(i + 1, -1.0f);
      if (y + 1 < grid_y) add(i + grid_x, -1.0f);
      csr.row_ptr.push_back(static_cast<index_t>(csr.col_idx.size()));
    }
  }
  return csr;
}

}  // namespace nmdt
