// Intra-kernel sharding support: shard-set choreography and the
// deterministic merge (see detail.hpp for the decomposition contract).
#include <algorithm>

#include "fault/fault.hpp"
#include "kernels/detail.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace nmdt::detail {

int shard_count(i64 items, i64 grain) {
  if (items <= 0) return 1;
  return static_cast<int>(std::clamp<i64>(items / grain, 1, kMaxKernelShards));
}

ShardRange shard_range(i64 items, int shards, int shard) {
  const i64 n = static_cast<i64>(shards);
  const i64 s = static_cast<i64>(shard);
  return {items * s / n, items * (s + 1) / n};
}

ShardSet::ShardSet(const SpmmConfig& cfg, i64 items, i64 grain) : items_(items) {
  const int n = shard_count(items, grain);
  ctxs_.reserve(static_cast<usize>(n));
  for (int s = 0; s < n; ++s) ctxs_.emplace_back(cfg);
}

void ShardSet::run(const std::function<void(int, ShardRange, Ctx&)>& body) {
  // jobs caps threads only; the shard set itself is already fixed.
  const int jobs = size() == 1 ? 1 : ctxs_.front().cfg.jobs;
  obs::TraceSpan span("shard_set");
  span.arg("shards", size()).arg("jobs", jobs).arg("items", items_);
  // Shard spans live on logical tracks derived from the *caller's*
  // track and the shard index — never from the executing OS thread —
  // so the merged trace is identical run-to-run at any job count.
  // run_indexed re-installs the caller's CancelToken on its workers and
  // polls before every shard claim, so a cancelled kernel unwinds at
  // shard granularity; per-tile polling inside the conversion engine
  // tightens that further for the online kernel.
  const u64 parent_track = obs::TraceTrack::current();
  run_indexed(jobs, size(), [&](i64 s) {
    const int shard = static_cast<int>(s);
    // Transient-failure injection point, before the shard touches its
    // Ctx: a recovered retry re-enters a completely clean shard.
    fault::transient_point(fault::FaultSite::kShardExec,
                           fault::mix(static_cast<u64>(s), static_cast<u64>(items_)));
    const ShardRange r = range(shard);
    obs::TraceTrack track(parent_track, "shard", static_cast<u64>(s));
    obs::TraceSpan sp("shard");
    Ctx& ctx = ctxs_[static_cast<usize>(s)];
    body(shard, r, ctx);
    // Arg values are computed at the call site even when no trace
    // session is installed, and total_dram_bytes() walks every channel
    // — skip the whole emission when nobody is listening (every
    // untraced run, which is most of them).
    if (sp.enabled()) {
      sp.arg("shard", shard)
          .arg("begin", r.begin)
          .arg("end", r.end)
          .arg("instr", ctx.counters.total_instr())
          .arg("dram_bytes", ctx.mem.stats().total_dram_bytes());
    }
  });
}

Ctx& ShardSet::merge() {
  NMDT_TRACE_SCOPE("shard_merge");
  for (usize s = 1; s < ctxs_.size(); ++s) {
    ctxs_[0].counters += ctxs_[s].counters;
    ctxs_[0].mem.merge(ctxs_[s].mem);
  }
  return ctxs_[0];
}

template <class T>
void accumulate_dense(DenseMatrixT<T>& dst, const DenseMatrixT<T>& src) {
  const auto s = src.data();
  auto d = dst.data();
  for (usize i = 0; i < d.size(); ++i) d[i] += s[i];
}

template <class T>
PartialCT<T>::PartialCT(index_t rows, index_t cols, int shards) {
  buffers_.reserve(static_cast<usize>(shards));
  for (int s = 0; s < shards; ++s) buffers_.emplace_back(rows, cols, T{});
}

template <class T>
DenseMatrixT<T> PartialCT<T>::take() {
  DenseMatrixT<T> out = std::move(buffers_[0]);
  for (usize s = 1; s < buffers_.size(); ++s) accumulate_dense(out, buffers_[s]);
  return out;
}

// Compute precisions only: bf16 accumulates in f32, so the partial-C
// machinery never holds bf16 elements.
template void accumulate_dense(DenseMatrixT<float>&, const DenseMatrixT<float>&);
template void accumulate_dense(DenseMatrixT<double>&, const DenseMatrixT<double>&);
template class PartialCT<float>;
template class PartialCT<double>;

}  // namespace nmdt::detail
