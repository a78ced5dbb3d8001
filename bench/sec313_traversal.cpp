// Sec. 3.1.3 — B-tile traversal order: column-major (C partials stay
// LLC-hot across strips) vs row-major (A strip stays LLC-hot across B
// column blocks, entire C touched repeatedly).  The paper concludes
// column-major usually wins because A's footprint is much smaller than
// C's.  Needs K > 64 so there is more than one B column block.
#include "bench_common.hpp"

#include "matgen/generators.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("sec313_traversal", argc, argv);
  bench::banner(env.name, "B-tile traversal order for B-stationary (Sec. 3.1.3)");

  const index_t K = std::max<index_t>(env.K, 256);  // several B column blocks
  Table table({"matrix", "kernel", "traversal", "total_us", "dram_MB", "l2_hit",
               "col/row_time_ratio"});
  Rng rng(0x313);

  for (const auto& [label, A] :
       {std::pair<const char*, Csr>{"banded", gen_banded(4096, 64, 0.15, 31)},
        std::pair<const char*, Csr>{"clustered",
                                    gen_block_clustered(4096, 16, 0.05, 1e-4, 32)},
        std::pair<const char*, Csr>{"uniform", gen_uniform(4096, 4096, 0.002, 33)}}) {
    DenseMatrix B(A.cols, K);
    B.randomize(rng);
    for (KernelKind kind :
         {KernelKind::kTiledDcsrBStationary, KernelKind::kTiledDcsrOnline}) {
      double col_time = 0.0;
      for (TraversalOrder order :
           {TraversalOrder::kColumnMajor, TraversalOrder::kRowMajor}) {
        SpmmConfig cfg = evaluation_config(A.rows, K);
        cfg.traversal = order;
        const SpmmResult r = run_one_shot(kind, A, B, cfg);
        if (order == TraversalOrder::kColumnMajor) col_time = r.timing.total_ns;
        table.begin_row()
            .cell(label)
            .cell(kernel_name(kind))
            .cell(traversal_name(order))
            .cell(r.timing.total_ns * 1e-3, 1)
            .cell(static_cast<double>(r.mem.total_dram_bytes()) / 1e6, 1)
            .cell(r.mem.l2.hit_rate(), 3)
            .cell(order == TraversalOrder::kRowMajor ? col_time / r.timing.total_ns
                                                     : 1.0,
                  3);
      }
    }
  }
  env.emit(table);
  std::cout << "ratio < 1 means column-major is faster (the paper's usual case).\n";
  return 0;
}
