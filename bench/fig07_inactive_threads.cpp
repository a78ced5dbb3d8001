// Fig. 7 — thread-execution breakdown (Integer / Control-Flow /
// Inactive) for tiled CSR vs tiled DCSR B-stationary kernels.  The
// paper observes ~90 % reduction of inactive thread executions after
// introducing DCSR (empty tile rows stop leaving 31 of 32 lanes idle).
#include "bench_common.hpp"

using namespace nmdt;

namespace {

struct Breakdown {
  double integer_pct = 0, control_pct = 0, inactive_pct = 0;
  u64 inactive_slots = 0;
};

Breakdown breakdown_of(const KernelCounters& c) {
  // NVPROF-style per-lane execution accounting: active lane slots split
  // by instruction class (proportional to issue counts), inactive slots
  // counted directly.
  const double total = static_cast<double>(c.total_lane_slots());
  const double active = static_cast<double>(c.lane_slots_active);
  const double instr = static_cast<double>(c.total_instr());
  Breakdown b;
  if (total == 0 || instr == 0) return b;
  b.integer_pct = 100.0 * active * static_cast<double>(c.int_instr + c.memory_instr +
                                                       c.fp_instr) / instr / total;
  b.control_pct = 100.0 * active * static_cast<double>(c.control_instr) / instr / total;
  b.inactive_pct = 100.0 * static_cast<double>(c.lane_slots_inactive) / total;
  b.inactive_slots = c.lane_slots_inactive;
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchEnv env("fig07_inactive_threads", argc, argv);
  bench::banner(env.name,
                "inactive thread executions: tiled CSR vs tiled DCSR (paper: ~90% cut)");

  KernelCounters csr_total, dcsr_total;
  Rng rng(0xf16007);
  const SpmmConfig cfg = evaluation_config(4096, env.K);

  for (const auto& spec : env.suite()) {
    const Csr A = spec.generate();
    if (A.nnz() == 0) continue;
    DenseMatrix B(A.cols, env.K);
    B.randomize(rng);
    csr_total += run_one_shot(KernelKind::kTiledCsrBStationary, A, B, cfg).counters;
    dcsr_total += run_one_shot(KernelKind::kTiledDcsrBStationary, A, B, cfg).counters;
  }

  const Breakdown csr = breakdown_of(csr_total);
  const Breakdown dcsr = breakdown_of(dcsr_total);

  Table table({"kernel", "integer+mem+fp_%", "control_flow_%", "inactive_%",
               "inactive_slots"});
  table.begin_row()
      .cell("Tiled CSR")
      .cell(csr.integer_pct, 1)
      .cell(csr.control_pct, 1)
      .cell(csr.inactive_pct, 1)
      .cell(csr.inactive_slots);
  table.begin_row()
      .cell("Tiled DCSR")
      .cell(dcsr.integer_pct, 1)
      .cell(dcsr.control_pct, 1)
      .cell(dcsr.inactive_pct, 1)
      .cell(dcsr.inactive_slots);
  env.emit(table);

  const double reduction =
      100.0 * (1.0 - static_cast<double>(dcsr.inactive_slots) /
                         static_cast<double>(csr.inactive_slots));
  std::cout << "inactive thread executions reduced by "
            << format_double(reduction, 1) << "% (paper: ~90%)\n";
  return 0;
}
