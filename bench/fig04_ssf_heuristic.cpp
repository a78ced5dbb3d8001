// Fig. 4 — performance ratio t_C-stationary / t_B-stationary vs the SSF
// value, and the learned threshold SSF_th.  The paper reports >93 % of
// matrices classified to the optimal algorithm.  The CSV holds one dot
// per matrix (the Fig. 4 scatter); the table summarizes the learned
// threshold and accuracies (strict, and with a ±10 % tie band — points
// whose two arms are within 10 % are equally served by either choice).
#include "bench_common.hpp"

#include "util/ascii_plot.hpp"

using namespace nmdt;

int main(int argc, char** argv) {
  bench::BenchEnv env("fig04_ssf_heuristic", argc, argv);
  bench::banner(env.name, "SSF heuristic training (paper: >93% classified optimally)");

  const SpmmConfig cfg = evaluation_config(4096, env.K);
  const auto rows = run_suite(env.suite(), cfg, env.K, {}, env.jobs);

  Table dots({"matrix", "ssf", "ratio_tC_over_tB", "h_norm", "nnz", "density"});
  for (const auto& r : rows) {
    dots.begin_row()
        .cell(r.spec.name)
        .cell(format_sci(r.profile.ssf))
        .cell(r.ratio_c_over_b(), 4)
        .cell(r.profile.h_norm, 4)
        .cell(r.profile.stats.nnz)
        .cell(format_sci(r.profile.stats.density));
  }
  env.emit(dots);

  const SsfThreshold learned = train_threshold(rows);

  // The Fig. 4 scatter: y > 1 means B-stationary is faster.
  AsciiScatter plot;
  plot.set_labels("SSF value", "t_C-stationary / t_B-stationary");
  plot.add_hline(1.0);
  for (const auto& r : rows) {
    plot.add(std::max(r.profile.ssf, 1e-16), r.ratio_c_over_b(), '*');
  }
  plot.render(std::cout);
  std::cout << "(learned threshold at SSF = " << format_sci(learned.threshold)
            << "; dots right of it should sit above the y=1 rule)\n\n";

  // Tie-tolerant accuracy: a matrix whose two arms differ by <10% is
  // optimally served either way.
  i64 correct_tol = 0;
  for (const auto& r : rows) {
    const bool pred_b = r.profile.ssf > learned.threshold;
    const bool b_wins = r.ratio_c_over_b() > 1.0;
    if (pred_b == b_wins || std::abs(r.ratio_c_over_b() - 1.0) <= 0.10) ++correct_tol;
  }

  Table summary({"quantity", "value", "paper"});
  summary.begin_row().cell("matrices").cell(static_cast<i64>(rows.size())).cell("~4000");
  summary.begin_row().cell("learned SSF_th").cell(format_sci(learned.threshold)).cell("-");
  summary.begin_row()
      .cell("strict accuracy")
      .cell(learned.accuracy, 3)
      .cell(">0.93");
  summary.begin_row()
      .cell("accuracy (10% tie band)")
      .cell(static_cast<double>(correct_tol) / static_cast<double>(rows.size()), 3)
      .cell(">0.93");
  summary.begin_row()
      .cell("misclassified")
      .cell(learned.misclassified)
      .cell("small (Fig. 4 off-quadrant dots)");
  summary.print(std::cout);
  summary.write_csv(env.name + "_summary.csv");
  std::cout << "\nShipped default threshold (EngineOptions): "
            << format_sci(default_ssf_threshold()) << "\n";
  return 0;
}
