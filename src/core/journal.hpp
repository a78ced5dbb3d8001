// Checkpoint journal for durable suite sweeps (core/executor run_suite).
//
// A sweep over matrices × kernel arms is hours of work at paper scale;
// this journal makes it survivable: every completed unit of work — a
// planned row's profile, a finished arm's timings, a typed row/arm
// failure — is appended to an on-disk record the moment it completes,
// and a resumed run replays the journal and schedules only the
// remainder.  The resume invariant the tests pin: interrupt at ANY
// point + resume is bit-identical to an uninterrupted run (suite table,
// per-arm timings, training output), because every journaled value is
// the exact f64/f32 bit pattern the arm produced and every non-journaled
// unit is a pure function of (spec, cfg, K) that re-executes
// identically.
//
// On-disk format, written and read with the one binary codec
// (util/codec.hpp) under the journal's rules (FormatError, 1 MiB
// strings):
//   magic "NMDJ" | u32 version | frame*
//   frame := u32 payload_len | payload | u32 crc32(payload)
// The first frame is the header (suite fingerprint, spec count, K); each
// later frame is one entry.  Appends are atomic-enough by construction:
// a torn tail (crash mid-write) is an *incomplete* trailing frame, which
// the reader silently drops — re-running that one unit is always safe —
// while a CRC mismatch in a complete frame means real corruption and
// surfaces as a typed FormatError, never a wrong resume.  A journal
// whose header fingerprint does not match the suite being run is
// rejected with ConfigError (resuming someone else's sweep would
// silently mix results).
#pragma once

#include <array>
#include <cstdio>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <string>

#include "analysis/profile.hpp"
#include "kernels/spmm.hpp"
#include "matgen/suite.hpp"

namespace nmdt {

/// Fingerprint of everything that determines a sweep's results: the
/// matrix set (every spec field), K, the kernel-arm list, the tiling /
/// traversal / placement / arch / engine configuration, and the fault
/// plan.  Job count is deliberately excluded — results are bit-identical
/// at any --jobs, so a sweep may be resumed with different parallelism.
u64 suite_fingerprint(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                      index_t K, int arm_count);

/// One journaled kernel arm: either timings (completed) or a typed
/// error description (failed).
struct JournalArmOutcome {
  double t_ms = 0.0;
  double prep_ms = 0.0;  ///< offline preprocessing cost (offline arm only)
  std::string error;     ///< describe_exception() string; empty = success
  bool failed() const { return !error.empty(); }
};

/// Everything the journal knows about one suite row.
struct JournalRow {
  bool planned = false;     ///< profile recorded (plan stage completed)
  bool degenerate = false;  ///< generated matrix had nnz == 0 (no row emitted)
  std::optional<std::string> error;  ///< row-level typed failure
  MatrixProfile profile;
  std::array<std::optional<JournalArmOutcome>, 4> arms;

  /// True when nothing remains to execute for this row.
  bool complete(int arm_count) const {
    if (degenerate || error.has_value()) return true;
    if (!planned) return false;
    for (int a = 0; a < arm_count; ++a) {
      if (!arms[static_cast<usize>(a)].has_value()) return false;
    }
    return true;
  }
};

/// Parsed journal contents, keyed by suite row index.
struct JournalReplay {
  u64 fingerprint = 0;
  i64 total = 0;  ///< spec count recorded in the header
  i64 k = 0;
  int arm_count = 0;
  std::map<usize, JournalRow> rows;
  usize entries = 0;   ///< complete entry frames read
  i64 bytes = 0;       ///< file bytes consumed (incl. dropped tail)
  /// Byte offset just past the last complete frame — the append point.
  /// When torn_tail is set this is smaller than `bytes`; the file must
  /// be truncated here before appending, or the residual partial frame's
  /// length prefix would span into the fresh frames and the next read
  /// would mis-frame (CRC mismatch on perfectly good data).
  i64 valid_bytes = 0;
  bool torn_tail = false;  ///< an incomplete trailing frame was dropped
  bool has_header = false;

  bool empty() const { return !has_header && rows.empty(); }
};

/// Flat little-endian byte encoding of a MatrixProfile — the exact
/// field layout journal row_planned entries use.  Shared with the
/// worker-process pipe protocol (src/proc) so a profile that crossed a
/// process boundary journals bit-identically to one produced in
/// process.  decode throws FormatError on a truncated buffer or
/// trailing bytes.
std::string encode_profile(const MatrixProfile& profile);
MatrixProfile decode_profile(std::string_view bytes);

/// Parse a journal byte stream.  Incomplete trailing frames are dropped
/// (torn_tail); an empty stream yields an empty replay (fresh start).
/// Throws ParseError on bad magic/version and FormatError on a CRC
/// mismatch or malformed entry payload inside a complete frame.
JournalReplay read_journal(std::istream& is);

/// read_journal over a file.  A missing file throws ParseError; an
/// empty file is a clean fresh start.
JournalReplay read_journal_file(const std::string& path);

/// Reject a replay that does not belong to the suite about to run
/// (fingerprint / spec count / K mismatch) with ConfigError.
void verify_journal(const JournalReplay& replay, u64 fingerprint, usize total,
                    index_t K, int arm_count);

/// Compact JSON summary of a replay (entry/row/arm counts) — validated
/// by obs/json_check in example_trace_lint and consumable by sweep
/// dashboards.
std::string journal_summary_json(const JournalReplay& replay,
                                 const std::string& path);

/// Append-side handle.  Not thread-safe: the suite driver appends from
/// its own thread only.  Data is fsynced every `checkpoint_interval`
/// entries and once more on flush(), bounding post-crash loss to the
/// interval.
class JournalWriter {
 public:
  /// Open `path`.  `append` continues an existing journal (resume);
  /// otherwise the file is truncated and a fresh header written.
  JournalWriter(const std::string& path, u64 fingerprint, usize total, index_t K,
                int arm_count, int checkpoint_interval, bool append);
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  const std::string& path() const { return path_; }

  void row_planned(usize row, const MatrixProfile& profile);
  void row_degenerate(usize row);
  void row_error(usize row, const std::string& description);
  void arm_done(usize row, int arm, double t_ms, double prep_ms);
  void arm_error(usize row, int arm, const std::string& description);

  /// Entries appended through this writer (excludes the header and any
  /// pre-existing entries of an append-opened journal).
  usize entries() const { return entries_; }

  /// fflush + fsync; called automatically every checkpoint_interval
  /// entries and from the destructor.  Throws ParseError when either
  /// fails: a checkpoint is never reported durable on a failed fsync.
  void flush();

 private:
  void append(const std::string& payload);

  std::string path_;
  std::FILE* file_ = nullptr;
  int interval_;
  usize entries_ = 0;
  usize unsynced_ = 0;
};

}  // namespace nmdt
