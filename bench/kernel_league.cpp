// Capstone comparison: every kernel in the library against the baseline
// across the whole suite — geomean speedup overall and per matrix
// family.  This is the bird's-eye view behind the paper's design story:
// no single kernel wins everywhere, which is exactly why the SSF
// heuristic (and the online engine that makes its B arm cheap) exists.
#include <map>

#include "bench_common.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("kernel_league", argc, argv);
  bench::banner(env.name, "all kernels vs baseline across the suite");

  constexpr KernelKind kBaseline = KernelKind::kCsrCStationaryRowWarp;

  const SpmmConfig cfg = evaluation_config(4096, env.K);
  // speedups[kernel][family] and [kernel]["ALL"]
  std::map<std::string, std::map<std::string, std::vector<double>>> speedups;
  std::map<std::string, std::vector<double>> win_counts;

  const auto specs = env.suite();
  usize done = 0;
  Rng rng(0x1ea);
  for (const auto& spec : specs) {
    const Csr A = spec.generate();
    if (A.nnz() == 0) continue;
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    const double t_base = run_one_shot(kBaseline, A, B, cfg).timing.total_ns;
    for (KernelKind kind : kAllKernels) {
      if (kind == kBaseline) continue;
      const double t = run_one_shot(kind, A, B, cfg).timing.total_ns;
      speedups[kernel_name(kind)][family_name(spec.family)].push_back(t_base / t);
      speedups[kernel_name(kind)]["ALL"].push_back(t_base / t);
    }
    if (++done % 20 == 0) std::cout << "... " << done << "/" << specs.size() << "\n";
  }

  // Every kernel ran on the same matrices, so any one lists the families.
  std::vector<std::string> families;
  for (const auto& [fam, v] : speedups[kernel_name(KernelKind::kDcsrCStationary)]) {
    (void)v;
    if (fam != "ALL") families.push_back(fam);
  }
  std::vector<std::string> header{"kernel (geomean speedup)", "ALL"};
  header.insert(header.end(), families.begin(), families.end());
  Table table(header);
  for (KernelKind kind : kAllKernels) {
    if (kind == kBaseline) continue;
    auto& per = speedups[kernel_name(kind)];
    table.begin_row().cell(kernel_name(kind)).cell(geomean(per["ALL"]), 3);
    for (const auto& fam : families) table.cell(geomean(per[fam]), 3);
  }
  env.emit(table);

  std::cout << "baseline = csr_c_stationary_row_warp (1.0 by construction).\n"
            << "No column has a single dominant kernel — the per-matrix SSF\n"
            << "selection between dcsr_c_stationary and tiled_dcsr_online is the\n"
            << "paper's answer (fig16_speedup).\n";
  return 0;
}
