// SpMM kernels executed on the GPU performance model.
//
// Each kernel computes C = A·B for real (host-side correctness is
// verified against the dense reference, the way the paper verifies
// against cuSPARSE) while narrating its warp instruction stream and
// memory requests into the simulator.  The seven variants cover the
// paper's design space:
//
//   kCsrCStationaryRowWarp    untiled CSR, row-per-warp — the baseline
//                             (cuSPARSE-csrmm-style kernel, speedups in
//                             Fig. 16 normalize to this)
//   kCsrCStationaryRowThread  row-per-thread ablation (Sec. 3.1.1's
//                             load-imbalance argument)
//   kDcsrCStationary          untiled DCSR, row-per-warp — the paper's
//                             "offline CSR/DCSR" C-stationary arm
//   kTiledCsrBStationary      tiled CSR strawman (Fig. 6 inefficiency)
//   kTiledDcsrBStationary     offline-converted tiled DCSR (2.03x arm)
//   kTiledDcsrOnline          tiled DCSR produced on the fly by the
//                             near-memory CSC→DCSR engines (the paper's
//                             proposal; 2.26x arm with the heuristic)
//   kAStationary              A-stationary reference (Table 1 row)
//   kMergeCStationary         merge-based row decomposition (Merrill &
//                             Garland [21], the orthogonal fix the paper
//                             suggests for row-skew critical paths,
//                             Sec. 5.2): rows split into bounded chunks
//                             so no single warp serializes a heavy row
//   kHongHybrid               the Hong et al. [12] offline hybrid the
//                             paper discusses in Sec. 7: heavily
//                             clustered row segments extracted into
//                             offline tiled DCSR (B-stationary), the
//                             light remainder kept in CSR
//                             (C-stationary) — suffers the B-overlap
//                             re-reads and preprocessing cost the
//                             online engine avoids
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "analysis/traffic_model.hpp"
#include "fault/fault.hpp"
#include "formats/convert.hpp"
#include "formats/dense.hpp"
#include "formats/tiling.hpp"
#include "gpusim/timing.hpp"
#include "kernels/operands.hpp"
#include "sched/layout.hpp"
#include "transform/engine.hpp"
#include "util/precision.hpp"

namespace nmdt {

enum class KernelKind {
  kCsrCStationaryRowWarp,
  kCsrCStationaryRowThread,
  kDcsrCStationary,
  kTiledCsrBStationary,
  kTiledDcsrBStationary,
  kTiledDcsrOnline,
  kAStationary,
  kMergeCStationary,
  kHongHybrid,
};

/// Every kernel, in enum order.
inline constexpr KernelKind kAllKernels[] = {
    KernelKind::kCsrCStationaryRowWarp,  KernelKind::kCsrCStationaryRowThread,
    KernelKind::kDcsrCStationary,        KernelKind::kTiledCsrBStationary,
    KernelKind::kTiledDcsrBStationary,   KernelKind::kTiledDcsrOnline,
    KernelKind::kAStationary,            KernelKind::kMergeCStationary,
    KernelKind::kHongHybrid,
};

const char* kernel_name(KernelKind k);

/// The kernel whose kernel_name is `name`; nullopt for any other string
/// (callers word their own error).
std::optional<KernelKind> parse_kernel_kind(std::string_view name);

/// The planned artifacts a kernel reads besides the CSR matrix, which
/// every kernel reads.
struct ArtifactSet {
  bool csc = false;
  bool dcsr = false;
  bool tiled_dcsr = false;
  bool tiled_csr = false;
};

/// The one kernel → artifact table: the kernel entry rejects a bundle
/// that lacks any of them, and SpmmPlan::operands_for (core/plan.hpp)
/// builds exactly these.  Hong-hybrid cuts its own threshold-dependent
/// split, so it reads CSR alone.
ArtifactSet artifacts_of(KernelKind kind);

/// B-tile traversal order (Sec. 3.1.3).  Column-major walks all strips
/// for one 64-wide block of B columns before advancing (C partials stay
/// hot in the LLC); row-major sweeps the B column blocks of one strip
/// first (A strip stays hot, entire C touched per strip).  The paper
/// finds column-major usually wins because A's footprint is much
/// smaller than C's; bench/sec313_traversal reproduces the comparison.
enum class TraversalOrder { kColumnMajor, kRowMajor };

const char* traversal_name(TraversalOrder t);

struct SpmmConfig {
  ArchConfig arch = ArchConfig::gv100();
  MemMode mem_mode = MemMode::kCounting;
  TilingSpec tiling{64, 64};  ///< B tile 64×64, DCSR_HEIGHT 64 (Sec. 5.1)
  PlacementPolicy placement = PlacementPolicy::kTileRotation;
  TraversalOrder traversal = TraversalOrder::kColumnMajor;
  EngineHwModel engine_hw{};
  /// Host threads executing one kernel's shard set (<= 0 selects
  /// hardware concurrency).  The shard decomposition depends only on
  /// the matrix, never on this value, so C and every simulated metric
  /// are bit-identical at any job count; the default of 1 keeps kernel
  /// calls single-threaded under the parallel suite runner.
  int jobs = 1;
  /// Fault-injection plan installed for the duration of the run (the
  /// default — site none — leaves whatever plan is already installed
  /// untouched, so the field is a bitwise no-op unless set).
  fault::FaultPlan fault{};
  /// When DCSR conversion exhausts its retry budget inside the online
  /// kernel, degrade to the reference CSR baseline kernel instead of
  /// surfacing the FaultError (SpmmResult::used_fallback records it).
  bool fault_fallback = true;
  /// Stored value precision of the A/B operands and the C output.
  /// Arithmetic runs at the type's compute precision (bf16 widens to
  /// f32 for every FMA); storage width is what the memory system sees,
  /// so bf16 halves value traffic relative to f32.  `run_spmm<V>`
  /// throws ConfigError unless this field names V.
  Precision precision = Precision::kF32;
};

/// The realistic evaluation configuration used by the benches and the
/// SpmmEngine default: cache simulation on a GV100 whose L2 capacity is
/// scaled so that the dense operand B (n×K) exceeds the LLC by the same
/// ~1.8× ratio the paper's evaluation had (44k-row matrices, 11 MB B vs
/// 6 MB L2) — without this, suite-scale matrices fit entirely in a
/// full-size L2 and every locality effect the paper studies vanishes.
/// Launch overhead scales with the grid the same way.
SpmmConfig evaluation_config(index_t n = 4096, index_t K = 64);

/// The result of one kernel run.  C is stored once, at the run's
/// precision: exactly one of `C` and `C64` is non-empty.  Read it
/// through result_bits() or result_f64(), the only functions that
/// choose between the two.
struct SpmmResult {
  /// C of an f32 or bf16 run, held in f32 bits: an f32 run's exact
  /// output; a bf16 run's output after the round-to-nearest-even store
  /// (every element is bf16-representable).  Empty for f64 runs.
  DenseMatrix C;
  /// C of an f64 run (empty at other precisions).
  DenseMatrixT<double> C64;
  /// Stored value precision this result was computed at.
  Precision precision = Precision::kF32;
  KernelCounters counters;
  MemStats mem;
  TimingBreakdown timing;
  EngineStats engine;        ///< zeros for kernels without the engine
  double engine_busy_ns = 0.0;  ///< max per-channel engine time
  /// Offline format-conversion cost (tiling / densification done by a
  /// preprocessing kernel), NOT included in timing — reported separately
  /// the way the paper treats it (Sec. 5.2: offline results are
  /// "optimistic" because they exclude this).
  double offline_prep_ns = 0.0;
  /// True when an unrecoverable conversion fault degraded this run to
  /// the reference CSR kernel (see SpmmConfig::fault_fallback).
  bool used_fallback = false;
};

/// The stored result bits: C64's bytes for an f64 run, C's f32 bytes
/// otherwise.  Every bit-identity check compares these bytes, and they
/// are what the service's c_crc32 / c_hex and the suite's c_crc digest.
std::span<const u8> result_bits(const SpmmResult& r);

/// The result widened exactly to binary64, for the tolerance checks.
DenseMatrixT<double> result_f64(const SpmmResult& r);

/// The one kernel entry: run `kind` against a bundle complete for it
/// (artifacts_of(kind); SpmmExecutor, core/executor.hpp, is its caller).
/// Operands and B are stored at precision V, arithmetic runs at
/// VTraits<V>::compute_t; instantiated for float, double, and bf16_t.
/// Kernels never convert.  ConfigError, before any work, when an
/// artifact the kernel reads is missing, when a tiled artifact was built
/// under a TilingSpec other than cfg.tiling, when cfg.precision does not
/// name V, or when the online kernel's strips are wider than
/// cfg.engine_hw.lanes.  The modelled offline-prep
/// cost (`SpmmResult::offline_prep_ns`) is report semantics, not host
/// work.
template <class V>
SpmmResult run_spmm(KernelKind kind, const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                    const SpmmConfig& cfg);

/// Reference result: dense row-major triple loop (no simulation).
DenseMatrix spmm_reference(const Csr& A, const DenseMatrix& B);

/// Binary64 reference from operands *as stored at precision V*: every
/// stored value is widened exactly to double and the triple loop
/// accumulates in double.  This is the "expected" side of the
/// tolerance-based verification — it isolates the kernels' reduced
/// compute precision from the one-time storage rounding.
template <class V>
DenseMatrixT<double> spmm_reference_f64(const CsrT<V>& A, const DenseMatrixT<V>& B);

}  // namespace nmdt
