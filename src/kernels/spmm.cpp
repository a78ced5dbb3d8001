#include "kernels/spmm.hpp"

#include <algorithm>
#include <optional>
#include <type_traits>

#include "formats/retype.hpp"
#include "kernels/detail.hpp"
#include "obs/profiler.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace nmdt {

const char* kernel_name(KernelKind k) {
  switch (k) {
    case KernelKind::kCsrCStationaryRowWarp: return "csr_c_stationary_row_warp";
    case KernelKind::kCsrCStationaryRowThread: return "csr_c_stationary_row_thread";
    case KernelKind::kDcsrCStationary: return "dcsr_c_stationary";
    case KernelKind::kTiledCsrBStationary: return "tiled_csr_b_stationary";
    case KernelKind::kTiledDcsrBStationary: return "tiled_dcsr_b_stationary";
    case KernelKind::kTiledDcsrOnline: return "tiled_dcsr_online";
    case KernelKind::kAStationary: return "a_stationary";
    case KernelKind::kMergeCStationary: return "merge_c_stationary";
    case KernelKind::kHongHybrid: return "hong_hybrid";
  }
  return "unknown";
}

std::optional<KernelKind> parse_kernel_kind(std::string_view name) {
  for (KernelKind k : kAllKernels) {
    if (name == kernel_name(k)) return k;
  }
  return std::nullopt;
}

std::span<const u8> result_bits(const SpmmResult& r) {
  const auto bytes = r.precision == Precision::kF64 ? std::as_bytes(r.C64.data())
                                                    : std::as_bytes(r.C.data());
  return {reinterpret_cast<const u8*>(bytes.data()), bytes.size()};
}

DenseMatrixT<double> result_f64(const SpmmResult& r) {
  return r.precision == Precision::kF64 ? r.C64 : retype<double>(r.C);
}

const char* traversal_name(TraversalOrder t) {
  switch (t) {
    case TraversalOrder::kColumnMajor: return "column-major";
    case TraversalOrder::kRowMajor: return "row-major";
  }
  return "unknown";
}

SpmmConfig evaluation_config(index_t n, index_t K) {
  NMDT_CHECK_CONFIG(n > 0 && K > 0, "evaluation_config requires positive dimensions");
  SpmmConfig cfg;
  cfg.mem_mode = MemMode::kCacheSim;
  // The L2 ratio is anchored at the canonical f32 width for every
  // precision: cross-precision comparisons then share one architecture
  // and isolate the value-byte effect instead of also moving the cache.
  const i64 b_bytes = static_cast<i64>(n) * K * kValueBytes;
  const i64 set_bytes = static_cast<i64>(cfg.arch.l2_ways) * cfg.arch.l2_line_bytes;
  i64 l2 = static_cast<i64>(static_cast<double>(b_bytes) / 1.8);
  l2 = std::max<i64>(l2 / set_bytes, 64) * set_bytes;       // ≥ 64 sets
  cfg.arch.l2_bytes = std::min<i64>(l2, 6144 * 1024);       // never above GV100
  cfg.arch.launch_overhead_ns = 500.0;
  cfg.arch.validate();
  return cfg;
}

ArtifactSet artifacts_of(KernelKind kind) {
  switch (kind) {
    case KernelKind::kCsrCStationaryRowWarp:
    case KernelKind::kCsrCStationaryRowThread:
    case KernelKind::kHongHybrid: return {};
    case KernelKind::kDcsrCStationary:
    case KernelKind::kMergeCStationary: return {.dcsr = true};
    case KernelKind::kTiledCsrBStationary: return {.tiled_csr = true};
    case KernelKind::kTiledDcsrBStationary: return {.tiled_dcsr = true};
    case KernelKind::kTiledDcsrOnline: return {.csc = true};
    case KernelKind::kAStationary: return {.tiled_csr = true};
  }
  return {};
}

namespace {

/// The first artifact `kind` reads that the bundle lacks, or nullptr
/// when it is complete.
template <class V>
const char* missing_artifact(KernelKind kind, const SpmmOperandsT<V>& A) {
  const ArtifactSet need = artifacts_of(kind);
  if (!A.csr) return "csr";
  if (need.csc && !A.csc) return "csc";
  if (need.dcsr && !A.dcsr) return "dcsr";
  if (need.tiled_dcsr && !A.tiled_dcsr) return "tiled_dcsr";
  if (need.tiled_csr && !A.tiled_csr) return "tiled_csr";
  return nullptr;
}

/// The one operand check, made at kernel entry: cfg names precision V,
/// the bundle is complete for `kind`, every tiled artifact in it was cut
/// under cfg.tiling, and the online kernel's engines have a lane per
/// strip column.
template <class V>
void check_operands(KernelKind kind, const SpmmOperandsT<V>& A, const SpmmConfig& cfg) {
  NMDT_CHECK_CONFIG(cfg.precision == VTraits<V>::kPrecision,
                    std::string("cfg.precision is ") + precision_name(cfg.precision) +
                        ", the operands are " + precision_name(VTraits<V>::kPrecision));
  if (const char* missing = missing_artifact(kind, A)) {
    throw ConfigError(std::string(kernel_name(kind)) + " needs the " + missing +
                      " operand, which the bundle lacks");
  }
  const TilingSpec& t = cfg.tiling;
  NMDT_CHECK_CONFIG((!A.tiled_dcsr || A.tiled_dcsr->spec == t) &&
                        (!A.tiled_csr || A.tiled_csr->spec == t),
                    "a tiled operand was built under a TilingSpec other than cfg.tiling");
  NMDT_CHECK_CONFIG(kind != KernelKind::kTiledDcsrOnline ||
                        t.strip_width <= cfg.engine_hw.lanes,
                    "strip_width " + std::to_string(t.strip_width) +
                        " is wider than the conversion engine's " +
                        std::to_string(cfg.engine_hw.lanes) + " lanes");
}

template <class V>
SpmmResult dispatch_spmm(KernelKind kind, const SpmmOperandsT<V>& A,
                         const DenseMatrixT<V>& B, const SpmmConfig& cfg) {
  switch (kind) {
    case KernelKind::kCsrCStationaryRowWarp: return detail::spmm_csr_row_warp(A, B, cfg);
    case KernelKind::kCsrCStationaryRowThread:
      return detail::spmm_csr_row_thread(A, B, cfg);
    case KernelKind::kDcsrCStationary: return detail::spmm_dcsr_c_stationary(A, B, cfg);
    case KernelKind::kTiledCsrBStationary:
      return detail::spmm_tiled_csr_b_stationary(A, B, cfg);
    case KernelKind::kTiledDcsrBStationary:
      return detail::spmm_tiled_dcsr_b_stationary(A, B, cfg);
    case KernelKind::kTiledDcsrOnline: return detail::spmm_tiled_dcsr_online(A, B, cfg);
    case KernelKind::kAStationary: return detail::spmm_a_stationary(A, B, cfg);
    case KernelKind::kMergeCStationary: return detail::spmm_merge_c_stationary(A, B, cfg);
    case KernelKind::kHongHybrid: return detail::spmm_hong_hybrid(A, B, cfg);
  }
  throw ConfigError("unknown kernel kind");
}

}  // namespace

template <class V>
SpmmResult run_spmm(KernelKind kind, const SpmmOperandsT<V>& A, const DenseMatrixT<V>& B,
                    const SpmmConfig& cfg) {
  cfg.tiling.validate();
  check_operands(kind, A, cfg);
  NMDT_REQUIRE(A.csr->cols == B.rows(), "SpMM shape mismatch: A.cols != B.rows");
  obs::metrics().kernel_runs.add(1);
  obs::ScopedTimer timer(obs::metrics().kernel_host_ms);
  obs::TraceSpan span(kernel_name(kind));
  // Destroyed before `span`, so the hw.* counter args land on the
  // kernel span (profiling enabled only — spans stay deterministic
  // otherwise).
  obs::ProfScope prof(span);
  // Only a non-default plan is installed; the default leaves whatever
  // plan an outer scope (suite runner, CLI) already put in place.
  std::optional<fault::FaultScope> fault_scope;
  if (cfg.fault.site != fault::FaultSite::kNone) fault_scope.emplace(cfg.fault);
  SpmmResult res;
  try {
    res = dispatch_spmm(kind, A, B, cfg);
  } catch (const FaultError&) {
    if (kind != KernelKind::kTiledDcsrOnline || !cfg.fault_fallback) throw;
    // The online conversion path is the only kernel with a faultable
    // hardware unit in the loop; degrade to the reference CSR baseline
    // rather than failing the multiplication.
    obs::metrics().fault_fallbacks.add(1);
    obs::TraceSpan fb_span("fault.fallback");
    fb_span.arg("from", kernel_name(kind))
        .arg("to", kernel_name(KernelKind::kCsrCStationaryRowWarp));
    res = dispatch_spmm(KernelKind::kCsrCStationaryRowWarp, A, B, cfg);
    res.used_fallback = true;
  }
  // Simulated metrics ride on the host span so modelled and measured
  // time land in one artifact (args stay deterministic: they derive
  // from the matrix alone, never from the clock).
  span.arg("rows", static_cast<i64>(A.csr->rows))
      .arg("nnz", static_cast<i64>(A.csr->nnz()))
      .arg("k", static_cast<i64>(B.cols()))
      .arg("jobs", cfg.jobs)
      .arg("precision", precision_name(VTraits<V>::kPrecision))
      .arg("modelled_ns", res.timing.total_ns)
      .arg("flops", res.counters.flops)
      .arg("instr", res.counters.total_instr())
      .arg("inactive_frac", res.counters.inactive_fraction())
      .arg("dram_bytes", res.mem.total_dram_bytes())
      .arg("engine_busy_ns", res.engine_busy_ns);
  return res;
}

template SpmmResult run_spmm(KernelKind, const SpmmOperandsT<float>&,
                             const DenseMatrixT<float>&, const SpmmConfig&);
template SpmmResult run_spmm(KernelKind, const SpmmOperandsT<double>&,
                             const DenseMatrixT<double>&, const SpmmConfig&);
template SpmmResult run_spmm(KernelKind, const SpmmOperandsT<bf16_t>&,
                             const DenseMatrixT<bf16_t>&, const SpmmConfig&);

DenseMatrix spmm_reference(const Csr& A, const DenseMatrix& B) {
  NMDT_REQUIRE(A.cols == B.rows(), "SpMM shape mismatch: A.cols != B.rows");
  DenseMatrix C(A.rows, B.cols(), 0.0f);
  for (index_t r = 0; r < A.rows; ++r) {
    auto c_row = C.row(r);
    for (index_t j = A.row_ptr[r]; j < A.row_ptr[r + 1]; ++j) {
      const value_t a = A.val[j];
      const auto b_row = B.row(A.col_idx[j]);
      for (index_t k = 0; k < B.cols(); ++k) c_row[k] += a * b_row[k];
    }
  }
  return C;
}

template <class V>
DenseMatrixT<double> spmm_reference_f64(const CsrT<V>& A, const DenseMatrixT<V>& B) {
  NMDT_REQUIRE(A.cols == B.rows(), "SpMM shape mismatch: A.cols != B.rows");
  DenseMatrixT<double> C(A.rows, B.cols(), 0.0);
  for (index_t r = 0; r < A.rows; ++r) {
    auto c_row = C.row(r);
    for (index_t j = A.row_ptr[r]; j < A.row_ptr[r + 1]; ++j) {
      const double a = VTraits<V>::to_f64(A.val[j]);
      const auto b_row = B.row(A.col_idx[j]);
      for (index_t k = 0; k < B.cols(); ++k) {
        c_row[k] += a * VTraits<V>::to_f64(b_row[k]);
      }
    }
  }
  return C;
}

template DenseMatrixT<double> spmm_reference_f64(const CsrT<float>&,
                                                 const DenseMatrixT<float>&);
template DenseMatrixT<double> spmm_reference_f64(const CsrT<double>&,
                                                 const DenseMatrixT<double>&);
template DenseMatrixT<double> spmm_reference_f64(const CsrT<bf16_t>&,
                                                 const DenseMatrixT<bf16_t>&);

namespace detail {

template <class V>
void store_result_c(SpmmResult& res, DenseMatrixT<typename VTraits<V>::compute_t>&& C) {
  res.precision = VTraits<V>::kPrecision;
  if constexpr (std::is_same_v<V, double>) {
    res.C64 = std::move(C);
  } else if constexpr (std::is_same_v<V, bf16_t>) {
    // Store rounding: the accumulator ran in f32; C is *stored* at bf16,
    // so round each element once (RNE) and keep the widened bits.
    auto d = C.data();
    for (usize i = 0; i < d.size(); ++i) d[i] = bf16_t(d[i]).to_float();
    res.C = std::move(C);
  } else {
    res.C = std::move(C);
  }
}

template void store_result_c<float>(SpmmResult&, DenseMatrixT<float>&&);
template void store_result_c<double>(SpmmResult&, DenseMatrixT<double>&&);
template void store_result_c<bf16_t>(SpmmResult&, DenseMatrixT<float>&&);

template <class V>
SpmmResult finish(Ctx& ctx, DenseMatrixT<typename VTraits<V>::compute_t> C,
                  double compute_inflation, EngineStats engine, double engine_busy_ns,
                  double offline_prep_ns) {
  SpmmResult res;
  store_result_c<V>(res, std::move(C));
  res.counters = ctx.counters;
  res.mem = ctx.mem.stats();
  res.engine = engine;
  res.engine_busy_ns = engine_busy_ns;
  res.offline_prep_ns = offline_prep_ns;
  res.timing =
      compute_timing(ctx.cfg.arch, ctx.counters, res.mem, compute_inflation, engine_busy_ns);
  return res;
}

template SpmmResult finish<float>(Ctx&, DenseMatrixT<float>, double, EngineStats, double,
                                  double);
template SpmmResult finish<double>(Ctx&, DenseMatrixT<double>, double, EngineStats, double,
                                   double);
template SpmmResult finish<bf16_t>(Ctx&, DenseMatrixT<float>, double, EngineStats, double,
                                   double);

void load_b_tile(Ctx& ctx, const DenseLayout& b, index_t row_begin, index_t width,
                 index_t col_begin, index_t tile_cols) {
  // One coalesced load per B-tile row into shared memory.
  for (index_t i = 0; i < width; ++i) {
    ctx.waves(InstrClass::kMemory, tile_cols);
    ctx.mem.warp_load(b.addr(row_begin + i, col_begin), static_cast<i64>(tile_cols) * b.vbytes);
  }
}

}  // namespace detail

}  // namespace nmdt
