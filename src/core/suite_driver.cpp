#include "core/suite_driver.hpp"

#include <chrono>
#include <filesystem>
#include <system_error>

#include "core/journal.hpp"
#include "fault/fault.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt::suite {

namespace {

/// The kernel each Fig. 16 arm runs.
KernelKind arm_kernel(int arm) {
  switch (arm) {
    case SuiteRow::kArmBaseline: return KernelKind::kCsrCStationaryRowWarp;
    case SuiteRow::kArmDcsrC: return KernelKind::kDcsrCStationary;
    case SuiteRow::kArmOnlineB: return KernelKind::kTiledDcsrOnline;
    default: return KernelKind::kTiledDcsrBStationary;
  }
}

/// Store an arm's timings into its SuiteRow fields, live or replayed.
void store_arm(SuiteRow& row, int arm, double t_ms, double prep_ms) {
  switch (arm) {
    case SuiteRow::kArmBaseline: row.t_baseline_ms = t_ms; break;
    case SuiteRow::kArmDcsrC: row.t_dcsr_c_ms = t_ms; break;
    case SuiteRow::kArmOnlineB: row.t_online_b_ms = t_ms; break;
    default:
      row.t_offline_b_ms = t_ms;
      row.offline_prep_ms = prep_ms;
      break;
  }
}

CancelToken::Clock::time_point deadline_in(double ms) {
  return CancelToken::Clock::now() +
         std::chrono::duration_cast<CancelToken::Clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

/// Call from a catch block: record the in-flight exception.
void fail(Completion& c) {
  c.error = std::current_exception();
  c.error_desc = describe_current_exception();
}

}  // namespace

Completion RowWork::plan(usize row) const {
  Completion c;
  c.row = row;
  obs::TraceTrack lane(track, "suite_row", static_cast<u64>(row));
  // Planning polls inside the conversion engine's tile loops, so a
  // cancelled sweep unwinds even mid-plan.
  CancelScope scope(cancel);
  try {
    poll_cancellation();
    const Csr A = specs[row].generate();
    if (A.nnz() == 0) {  // degenerate draw: nothing to measure
      c.degenerate = true;
      return c;
    }
    std::shared_ptr<const SpmmPlan> plan;
    {
      obs::TraceSpan sp("suite.plan");
      obs::ScopedTimer t(obs::metrics().suite_plan_ms);
      plan = build_plan(A, plan_options_for(cfg));
      sp.arg("matrix", specs[row].name.c_str()).arg("nnz", static_cast<i64>(A.nnz()));
    }
    // B depends only on the row index, so every thread and every worker
    // process draws the same block.
    auto in = std::make_shared<RowInputs>(RowInputs{std::move(plan), DenseMatrix(A.cols, K)});
    Rng b_rng(0xb0b0 + static_cast<u64>(row));
    in->B.randomize(b_rng);
    c.profile = in->plan->profile();
    c.inputs = std::move(in);
  } catch (const CancelledError&) {
    c.abandoned = true;
  } catch (...) {
    fail(c);
  }
  return c;
}

Completion RowWork::arm(usize row, int arm, const RowInputs& in) const {
  Completion c;
  c.row = row;
  c.arm = arm;
  const KernelKind kind = arm_kernel(arm);
  // Each arm gets its own child token so a per-arm deadline never leaks
  // into siblings; cancel() still reaches it through the parent.
  const CancelToken arm_token = CancelToken::child_of(cancel);
  if (arm_timeout_ms > 0.0) {
    arm_token.set_deadline(deadline_in(arm_timeout_ms), CancelReason::kDeadline);
  }
  CancelScope scope(arm_token);
  // One span per matrix × kernel arm, on a lane keyed by (kernel, row).
  obs::TraceTrack lane(track, kernel_name(kind), static_cast<u64>(row));
  obs::TraceSpan sp("suite.arm");
  obs::ProfScope prof(sp);  // hw.* args when profiling is enabled
  sp.arg("matrix", specs[row].name.c_str()).arg("kernel", kernel_name(kind));
  try {
    arm_token.poll();
    fault::transient_point(fault::FaultSite::kSuiteArm,
                           fault::mix(static_cast<u64>(row), static_cast<u64>(arm)));
    const SpmmResult res = SpmmExecutor(cfg).execute(kind, *in.plan, in.B);
    c.t_ms = res.timing.total_ms();
    c.prep_ms = arm == SuiteRow::kArmOfflineB ? res.offline_prep_ns * 1e-6 : 0.0;
    if (want_crc) {
      const auto bits = result_bits(res);
      c.c_crc = crc32(bits.data(), bits.size());
    }
    sp.arg("jobs", cfg.jobs).arg("modelled_ms", c.t_ms);
  } catch (const CancelledError&) {
    c.abandoned = true;
    sp.arg("cancelled", i64{1});
  } catch (...) {
    fail(c);
    sp.arg("error", c.error_desc.c_str());
  }
  return c;
}

std::vector<SuiteRow> drive_suite(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                                  index_t K, const SuiteProgress& progress,
                                  const SuiteOptions& opts, const BackendFactory& make_backend,
                                  SuiteCrcs* c_crc_out) {
  NMDT_CHECK_CONFIG(K > 0, "run_suite requires K > 0");
  NMDT_CHECK_CONFIG(!opts.resume || !opts.journal_path.empty(),
                    "resume requires a checkpoint-journal path");
  const usize total = specs.size();
  obs::metrics().suite_runs.add(1);
  // Install the sweep-wide fault plan before any backend starts: forked
  // workers inherit the injector, so their draws match the in-process
  // run.  A default plan leaves whatever is already installed untouched.
  std::optional<fault::FaultScope> fault_scope;
  if (cfg.fault.site != fault::FaultSite::kNone) fault_scope.emplace(cfg.fault);
  obs::TraceSpan suite_span("suite.run");
  suite_span.arg("total", static_cast<i64>(total)).arg("k", static_cast<i64>(K));
  if (c_crc_out) c_crc_out->assign(total, std::array<u32, SuiteRow::kArmCount>{});

  // --- Durability setup: fingerprint, replay, journal writer. --------
  const u64 fingerprint = suite_fingerprint(specs, cfg, K, SuiteRow::kArmCount);
  JournalReplay replay;
  if (opts.resume) {
    replay = read_journal_file(opts.journal_path);
    verify_journal(replay, fingerprint, total, K, SuiteRow::kArmCount);
    obs::metrics().checkpoint_replayed.add(static_cast<i64>(replay.entries));
    suite_span.arg("replayed_entries", static_cast<i64>(replay.entries));
  }
  std::optional<JournalWriter> writer;
  if (!opts.journal_path.empty()) {
    // A resume over a journal that never got its header (empty file or
    // fully torn) restarts from a fresh header.
    const bool append = opts.resume && replay.has_header;
    if (append && replay.torn_tail) {
      // The reader dropped the torn trailing frame but its bytes are
      // still on disk; appending after them would leave the stale
      // length prefix spanning into the fresh frames, so the *next*
      // read would report a CRC mismatch on perfectly good data.
      // Truncate to the last complete frame before reopening.
      std::error_code ec;
      std::filesystem::resize_file(
          opts.journal_path, static_cast<std::uintmax_t>(replay.valid_bytes), ec);
      if (ec) {
        throw ParseError("cannot truncate torn checkpoint-journal tail: " +
                         opts.journal_path + " (" + ec.message() + ")");
      }
    }
    writer.emplace(opts.journal_path, fingerprint, total, K, SuiteRow::kArmCount,
                   opts.checkpoint_interval, append);
  }
  auto checkpoint = [&] {
    if (writer && opts.on_checkpoint) opts.on_checkpoint(writer->entries());
  };
  auto journaled = [&](usize idx) -> const JournalRow* {
    const auto it = replay.rows.find(idx);
    return it == replay.rows.end() ? nullptr : &it->second;
  };

  // --- Cancellation / deadlines. -------------------------------------
  // The suite token is a *child* of the caller's: an external request()
  // (SIGINT handler) on opts.cancel is visible to every poll, but the
  // suite deadline armed here lives on the child only — a caller that
  // reuses its token never inherits a stale expired deadline.  Every
  // cancelled()/poll() compares the clock, so expiry shows at once.
  const CancelToken suite_token = CancelToken::child_of(opts.cancel);
  if (opts.suite_timeout_ms > 0.0) {
    suite_token.set_deadline(deadline_in(opts.suite_timeout_ms),
                             CancelReason::kSuiteDeadline);
  }

  // --- Merge slots and failure ranking. ------------------------------
  // Results land in fixed (row, arm) slots in any completion order.
  // Every failed cell, live or replayed, passes through record_failure
  // exactly once.  Under kFailFast the lowest-(row, arm) failure is
  // rethrown only after the sweep drains, so which siblings ran never
  // depends on scheduling; arm -1 (row-level) ranks ahead of its arms.
  std::vector<std::optional<SuiteRow>> slots(total);
  auto open_slot = [&](usize idx) -> SuiteRow& {
    slots[idx].emplace();
    slots[idx]->spec = specs[idx];
    return *slots[idx];
  };
  i64 err_rank = -1;
  std::string err_desc;
  std::exception_ptr err;  // null for a replayed failure: rebuilt on rethrow
  auto record_failure = [&](usize idx, int arm, const std::string& desc,
                            std::exception_ptr e) {
    SuiteRow& row = *slots[idx];
    (arm < 0 ? row.error : row.arm_error[static_cast<usize>(arm)]) = desc;
    if (desc.rfind("TimeoutError", 0) == 0) obs::metrics().fault_timeout.add(1);
    const i64 rank = static_cast<i64>(idx) * (SuiteRow::kArmCount + 1) + arm + 1;
    if (err_rank < 0 || rank < err_rank) {
      err_rank = rank;
      err_desc = desc;
      err = std::move(e);
    }
  };
  // Fold a journaled row's arm outcomes (the original runs' exact bits)
  // into its slot; returns how many arms are left to run.
  auto fold_arms = [&](usize idx, const JournalRow* jr) {
    int missing = 0;
    for (int a = 0; a < SuiteRow::kArmCount; ++a) {
      const auto* out = jr ? &jr->arms[static_cast<usize>(a)] : nullptr;
      if (!out || !out->has_value()) {
        ++missing;
      } else if ((*out)->failed()) {
        record_failure(idx, a, (*out)->error, nullptr);
      } else {
        store_arm(*slots[idx], a, (*out)->t_ms, (*out)->prep_ms);
      }
    }
    return missing;
  };
  usize reported = 0;
  auto report = [&](usize idx) {
    ++reported;
    if (progress) progress(reported, total, *slots[idx]);
  };

  // --- Replay prefill: complete rows are materialized from the journal
  // and reported in index order before any live work starts. ---------
  std::vector<usize> live;
  for (usize idx = 0; idx < total; ++idx) {
    const JournalRow* jr = journaled(idx);
    if (!jr || !jr->complete(SuiteRow::kArmCount)) {
      live.push_back(idx);
      continue;
    }
    if (jr->degenerate) continue;  // degenerate rows are never reported
    SuiteRow& row = open_slot(idx);
    if (jr->error.has_value()) {
      record_failure(idx, -1, *jr->error, nullptr);
    } else {
      row.profile = jr->profile;
      fold_arms(idx, jr);
    }
    report(idx);
  }

  // --- Live rows. -----------------------------------------------------
  bool cut = false;  // the loop stopped on cancellation, not completion
  if (!live.empty() && !suite_token.cancelled()) {
    const std::unique_ptr<Backend> backend =
        make_backend(RowWork{std::vector<MatrixSpec>(specs.begin(), specs.end()), cfg, K,
                             opts.arm_timeout_ms, suite_token, obs::TraceTrack::current(),
                             c_crc_out != nullptr});
    suite_span.arg("workers", backend->concurrency());
    // Rows enter flight through a bounded window, so a row's arms run
    // while its plan is warm (and, in a worker process, still cached)
    // instead of every plan being built before the first arm runs.
    const usize window = static_cast<usize>(backend->concurrency()) * 2 + 2;
    std::vector<int> arms_left(total, 0);
    usize next = 0;
    usize rows_in_flight = 0;
    auto row_finished = [&](usize idx, bool has_row) {
      --rows_in_flight;
      if (has_row) report(idx);
    };

    auto plan_done = [&](const Completion& c) {
      const usize idx = c.row;
      const JournalRow* jr = journaled(idx);
      if (c.degenerate) {  // journaled, never reported
        if (writer && !(jr && jr->degenerate)) {
          writer->row_degenerate(idx);
          checkpoint();
        }
        row_finished(idx, false);
        return;
      }
      SuiteRow& row = open_slot(idx);
      if (c.error) {  // generation or planning threw: no arms run
        if (writer) {
          writer->row_error(idx, c.error_desc);
          checkpoint();
        }
        record_failure(idx, -1, c.error_desc, c.error);
        row_finished(idx, true);
        return;
      }
      row.profile = c.profile;
      // A partially replayed row re-plans (a pure function of the spec)
      // without re-journaling, and runs only its missing arms.
      if (writer && !(jr && jr->planned)) {
        writer->row_planned(idx, row.profile);
        checkpoint();
      }
      arms_left[idx] = fold_arms(idx, jr);
      if (arms_left[idx] == 0) {
        // Only reachable via a CRC-valid journal the writer never
        // produces (arm outcomes without row_planned): the row is whole.
        row_finished(idx, true);
        return;
      }
      for (int a = 0; a < SuiteRow::kArmCount; ++a) {
        if (!(jr && jr->arms[static_cast<usize>(a)].has_value())) {
          backend->submit(idx, a, c.inputs);
        }
      }
    };
    auto arm_done = [&](const Completion& c) {
      const usize idx = c.row;
      if (c.error) {
        if (writer) {
          writer->arm_error(idx, c.arm, c.error_desc);
          checkpoint();
        }
        record_failure(idx, c.arm, c.error_desc, c.error);
      } else {
        store_arm(*slots[idx], c.arm, c.t_ms, c.prep_ms);
        if (c_crc_out) (*c_crc_out)[idx][static_cast<usize>(c.arm)] = c.c_crc;
        if (writer) {
          writer->arm_done(idx, c.arm, c.t_ms, c.prep_ms);
          checkpoint();
        }
      }
      if (--arms_left[idx] == 0) row_finished(idx, true);
    };

    while (next < live.size() || rows_in_flight > 0) {
      if (suite_token.cancelled()) {
        cut = true;
        break;
      }
      for (; rows_in_flight < window && next < live.size(); ++rows_in_flight) {
        backend->submit(live[next++], -1, nullptr);
      }
      std::optional<Completion> c = backend->wait(/*timeout_ms=*/25.0);
      if (!c) continue;
      if (c->abandoned) {  // only the suite token abandons work
        cut = true;
        break;
      }
      if (c->arm < 0) plan_done(*c);
      else arm_done(*c);
    }
    // Abandoned work is neither journaled nor reported, so a resumed
    // sweep re-executes it from scratch, bit-identically.
    if (cut) backend->abandon();
  }

  if (writer) writer->flush();  // the final checkpoint lands before we report

  if (cut || suite_token.cancelled()) {
    obs::metrics().suite_cancelled.add(1);
    const std::string where =
        opts.journal_path.empty()
            ? std::string(" (no journal was configured; completed work is lost)")
            : " (completed work is checkpointed in " + opts.journal_path + ")";
    if (suite_token.reason() == CancelReason::kSuiteDeadline) {
      throw TimeoutError("suite sweep exceeded its deadline" + where);
    }
    throw CancelledError("suite sweep cancelled" + where);
  }

  // Live failures rethrow the original object; replayed ones are
  // rebuilt from their journaled description, so the type (and the CLI
  // exit code) matches the original run.
  if (opts.policy == SuiteErrorPolicy::kFailFast && err_rank >= 0) {
    std::rethrow_exception(err ? err : exception_from_description(err_desc));
  }

  std::vector<SuiteRow> rows;
  rows.reserve(total);
  for (auto& slot : slots) {
    if (slot.has_value()) rows.push_back(std::move(*slot));
  }
  return rows;
}

}  // namespace nmdt::suite
