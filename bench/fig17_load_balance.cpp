// Fig. 17 / Sec. 6.1 — FB-partition load balancing.  Two experiments:
//  (a) camping vs tile-rotation placement: per-partition imbalance and
//      the resulting serialization of the conversion engines;
//  (b) the FB-switch overhead sweep: relative bandwidth overhead of the
//      per-switch handoff (col_idx_frontier + next_fb_ptr) as a function
//      of non-zero tile rows stored per partition — negligible for
//      x >= 64, the paper's conclusion.
#include "bench_common.hpp"

#include "matgen/generators.hpp"
#include "sched/layout.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("fig17_load_balance", argc, argv);
  bench::banner(env.name, "FB-partition camping vs tile separation (Sec. 6.1)");

  // (a) placement comparison on a uniform and a clustered matrix.
  Table placement({"matrix", "placement", "partition_imbalance", "engine_busy_us",
                   "total_us"});
  Rng rng(0xf16017);
  for (const auto& [label, A] :
       {std::pair<const char*, Csr>{"uniform", gen_uniform(4096, 4096, 0.002, 11)},
        std::pair<const char*, Csr>{"clustered",
                                    gen_block_clustered(4096, 16, 0.05, 1e-4, 12)}}) {
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    for (PlacementPolicy policy :
         {PlacementPolicy::kStripCamping, PlacementPolicy::kTileRotation}) {
      SpmmConfig cfg = evaluation_config(A.rows, env.K);
      cfg.placement = policy;
      const SpmmResult r = run_one_shot(KernelKind::kTiledDcsrOnline, A, B, cfg);
      placement.begin_row()
          .cell(label)
          .cell(placement_name(policy))
          .cell(partition_imbalance(r.mem, cfg.arch.fb_partitions), 2)
          .cell(r.engine_busy_ns * 1e-3, 2)
          .cell(r.timing.total_ns * 1e-3, 2);
    }
  }
  env.emit(placement);

  // (b) FB-switch overhead sweep (paper: negligible if the number of
  // non-zero tile rows per partition is >= 64).
  Table sweep({"nnz_rows_per_partition_x", "switch_overhead_bytes_per_strip",
               "kernel_bytes_per_strip", "overhead_%", "verdict"});
  const Csr A = gen_uniform(4096, 4096, 0.002, 13);
  const TilingSpec spec{64, 64};
  const std::vector<Dcsr> strips = strip_dcsr_from_csr(A, spec.strip_width);
  // The overhead is relative to the kernel's whole per-strip bandwidth
  // (A elements through the engine + the B tile + atomic C updates), as
  // in the paper's L2-load-injection simulation.
  double kernel_bytes = 0.0, rows_per_strip = 0.0;
  for (const auto& s : strips) {
    const double a_bytes = static_cast<double>(s.nnz()) * 8;
    const double b_tile = 64.0 * 64.0 * 4.0;
    const double c_atomics = static_cast<double>(s.nnz_rows()) * 64.0 * 4.0 * 2.0;
    kernel_bytes += a_bytes + b_tile + c_atomics;
    rows_per_strip += static_cast<double>(s.nnz_rows());
  }
  kernel_bytes /= static_cast<double>(strips.size());
  rows_per_strip /= static_cast<double>(strips.size());

  for (i64 x : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
    const double switches = std::max(0.0, rows_per_strip / static_cast<double>(x) - 1.0);
    const double overhead =
        switches * static_cast<double>(StripPlacement::switch_handoff_bytes(64));
    const double pct = 100.0 * overhead / kernel_bytes;
    sweep.begin_row()
        .cell(x)
        .cell(overhead, 0)
        .cell(kernel_bytes, 0)
        .cell(pct, 2)
        .cell(pct < 2.0 ? "negligible" : "significant");
  }
  sweep.print(std::cout);
  sweep.write_csv(env.name + "_sweep.csv");
  std::cout << "\npaper: overhead negligible when non-zero tile rows per FB partition\n"
            << ">= 64 — splitting strips across exactly the FB partitions suffices.\n";
  return 0;
}
