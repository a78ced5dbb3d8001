// Synthetic sparse-matrix generators.
//
// The paper evaluates on ~3,500 SuiteSparse matrices whose relevant
// properties are (a) density, (b) row/column non-zero distribution
// (uniform vs heavy-tailed), and (c) spatial clustering — these are the
// axes the SSF heuristic (Sec. 3.1.4) is built on.  Each generator
// below controls one of those axes explicitly, so sweeping generator
// parameters spans the same behavioural space as the collection
// (substitution documented in DESIGN.md Sec. 2).  All generators are
// deterministic given the seed.
#pragma once

#include "formats/coo.hpp"
#include "formats/csr.hpp"
#include "util/rng.hpp"

namespace nmdt {

/// Erdős–Rényi: every cell independently non-zero with probability
/// `density`.  Uniform non-zero distribution — the case where the paper
/// predicts C-stationary wins (atomic bandwidth hurts B-stationary).
Csr gen_uniform(index_t rows, index_t cols, double density, u64 seed);

/// Heavy-tailed ROW degrees (zipf exponent `skew`), uniform columns.
/// Produces the "skewed (row-wise) non-zero distribution / very small
/// nnz-per-row" regime of Sec. 3.1.4.
Csr gen_powerlaw_rows(index_t rows, index_t cols, double density, double skew, u64 seed);

/// Heavy-tailed COLUMN popularity, uniform rows — hot columns create
/// dense strips with high B-tile reuse (B-stationary friendly).
Csr gen_powerlaw_cols(index_t rows, index_t cols, double density, double skew, u64 seed);

/// R-MAT / Kronecker-style recursive generator (a+b+c+d = 1); the
/// standard model for scale-free graph adjacency structure, giving
/// clustered non-zeros and low entropy (high 1 - H_norm).
Csr gen_rmat(index_t scale, double edge_factor, double a, double b, double c, double d,
             u64 seed);

/// Band matrix: non-zeros within `bandwidth` of the diagonal with
/// probability `density_in_band`.  Models stencil/PDE matrices: highly
/// clustered, nearly empty strips away from the diagonal.
Csr gen_banded(index_t n, index_t bandwidth, double density_in_band, u64 seed);

/// Block-clustered: `num_blocks` diagonal blocks with `intra_density`,
/// background `inter_density` elsewhere.  Models community-structured
/// graphs.
Csr gen_block_clustered(index_t n, index_t num_blocks, double intra_density,
                        double inter_density, u64 seed);

/// 5-point Laplacian stencil on a grid_x × grid_y grid (deterministic
/// structure; values from the stencil).  The classic HPC sparse matrix.
Csr gen_stencil_5pt(index_t grid_x, index_t grid_y);

/// Magnitude-pruned block sparsity (DLMC-shaped).  The weight matrix of
/// a pruned DNN layer: partition rows×cols into block_size×block_size
/// blocks, rank blocks by a sampled magnitude score, keep the top
/// `density` fraction whole and prune the rest — the structured
/// magnitude-pruning pattern of the Deep Learning Matrix Collection.
/// Kept blocks are fully dense inside, giving near-uniform block
/// scatter with strong spatial clustering; values within a block share
/// its magnitude scale, as surviving weights do.  This is the natural
/// bf16 workload for the precision axis.
Csr gen_magnitude_pruned(index_t rows, index_t cols, double density, index_t block_size,
                         u64 seed);

}  // namespace nmdt
