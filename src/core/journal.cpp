#include "core/journal.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <sstream>

#include "formats/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // json_escape
#include "util/codec.hpp"
#include "util/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define NMDT_HAVE_FSYNC 1
#endif

namespace nmdt {

namespace {

constexpr char kMagic[4] = {'N', 'M', 'D', 'J'};
constexpr u32 kVersion = 1;

enum Kind : u8 {
  kHeader = 0,
  kRowPlanned = 1,
  kRowDegenerate = 2,
  kRowError = 3,
  kArmDone = 4,
  kArmError = 5,
};

// Strings inside entries are bounded (typed-error descriptions); a
// larger length is corruption that slipped past the CRC framing.  An
// entry frame is a profile (~200 B) or one such string plus a few
// fixed fields.
constexpr u32 kMaxStringBytes = 1 << 20;
constexpr CodecRules kJournalRules{"checkpoint-journal entry", kMaxStringBytes,
                                   kMaxStringBytes + 256, codec_throw<FormatError>};

void put_profile(FieldWriter& w, const MatrixProfile& p) {
  w.put_i64(p.stats.rows);
  w.put_i64(p.stats.cols);
  w.put_i64(p.stats.nnz);
  w.put_f64(p.stats.density);
  w.put_f64(p.stats.nnz_row_mean);
  w.put_f64(p.stats.nnz_row_max);
  w.put_f64(p.stats.nnz_row_cv);
  w.put_f64(p.stats.nnz_col_mean);
  w.put_f64(p.stats.nnz_col_max);
  w.put_f64(p.stats.nnz_col_cv);
  w.put_i64(p.stats.nonzero_rows);
  w.put_i64(p.stats.nonzero_cols);
  w.put_f64(p.nnzrow_frac);
  w.put_f64(p.nnzcol_frac);
  w.put_f64(p.mean_strip_nnzrow_frac);
  w.put_i64(p.total_strip_row_segments);
  w.put_i64(p.total_tile_row_segments);
  w.put_f64(p.h_norm);
  w.put_f64(p.ssf);
}

MatrixProfile get_profile(FieldReader& r) {
  MatrixProfile p;
  p.stats.rows = static_cast<index_t>(r.get_i64("profile.rows"));
  p.stats.cols = static_cast<index_t>(r.get_i64("profile.cols"));
  p.stats.nnz = r.get_i64("profile.nnz");
  p.stats.density = r.get_f64("profile.density");
  p.stats.nnz_row_mean = r.get_f64("profile.nnz_row_mean");
  p.stats.nnz_row_max = r.get_f64("profile.nnz_row_max");
  p.stats.nnz_row_cv = r.get_f64("profile.nnz_row_cv");
  p.stats.nnz_col_mean = r.get_f64("profile.nnz_col_mean");
  p.stats.nnz_col_max = r.get_f64("profile.nnz_col_max");
  p.stats.nnz_col_cv = r.get_f64("profile.nnz_col_cv");
  p.stats.nonzero_rows = r.get_i64("profile.nonzero_rows");
  p.stats.nonzero_cols = r.get_i64("profile.nonzero_cols");
  p.nnzrow_frac = r.get_f64("profile.nnzrow_frac");
  p.nnzcol_frac = r.get_f64("profile.nnzcol_frac");
  p.mean_strip_nnzrow_frac = r.get_f64("profile.mean_strip_nnzrow_frac");
  p.total_strip_row_segments = r.get_i64("profile.total_strip_row_segments");
  p.total_tile_row_segments = r.get_i64("profile.total_tile_row_segments");
  p.h_norm = r.get_f64("profile.h_norm");
  p.ssf = r.get_f64("profile.ssf");
  return p;
}

/// Fold an entry payload into the replay map.  Entries may repeat after
/// crash/resume cycles; the last occurrence wins (they carry identical
/// deterministic values anyway).
void apply_entry(JournalReplay& replay, FieldReader& r) {
  const u8 kind = r.get_u8("kind");
  if (kind == kHeader) {
    replay.fingerprint = r.get_u64("header.fingerprint");
    replay.total = r.get_i64("header.total");
    replay.k = r.get_i64("header.k");
    replay.arm_count = static_cast<int>(r.get_u8("header.arm_count"));
    replay.has_header = true;
    return;
  }
  const u32 row = r.get_u32("row");
  JournalRow& jr = replay.rows[static_cast<usize>(row)];
  switch (kind) {
    case kRowPlanned:
      jr.planned = true;
      jr.profile = get_profile(r);
      break;
    case kRowDegenerate:
      jr.degenerate = true;
      break;
    case kRowError:
      jr.error = r.get_str("row error");
      break;
    case kArmDone:
    case kArmError: {
      const u8 arm = r.get_u8("arm");
      if (arm >= jr.arms.size()) {
        throw FormatError("malformed checkpoint-journal entry: arm index " +
                          std::to_string(int{arm}) + " out of range");
      }
      JournalArmOutcome out;
      if (kind == kArmDone) {
        out.t_ms = r.get_f64("arm t_ms");
        out.prep_ms = r.get_f64("arm prep_ms");
      } else {
        out.error = r.get_str("arm error");
      }
      jr.arms[arm] = std::move(out);
      break;
    }
    default:
      throw FormatError("malformed checkpoint-journal entry: unknown kind " +
                        std::to_string(int{kind}));
  }
  r.expect_done("entry");
}

std::string header_payload(u64 fingerprint, usize total, index_t K, int arm_count) {
  FieldWriter w(kJournalRules);
  w.put_u8(kHeader);
  w.put_u64(fingerprint);
  w.put_i64(static_cast<i64>(total));
  w.put_i64(static_cast<i64>(K));
  w.put_u8(static_cast<u8>(arm_count));
  return w.out;
}

}  // namespace

std::string encode_profile(const MatrixProfile& profile) {
  FieldWriter w(kJournalRules);
  put_profile(w, profile);
  return std::move(w.out);
}

MatrixProfile decode_profile(std::string_view bytes) {
  FieldReader r(bytes, kJournalRules);
  MatrixProfile p = get_profile(r);
  r.expect_done("encoded MatrixProfile");
  return p;
}

u64 suite_fingerprint(std::span<const MatrixSpec> specs, const SpmmConfig& cfg,
                      index_t K, int arm_count) {
  u64 h = fnv1a64(nullptr, 0);
  const auto mix_bytes = [&](const void* p, usize n) { h = fnv1a64(p, n, h); };
  const auto mix_i64 = [&](i64 v) { mix_bytes(&v, sizeof(v)); };
  const auto mix_f64 = [&](double v) { mix_bytes(&v, sizeof(v)); };
  const auto mix_str = [&](const std::string& s) {
    mix_i64(static_cast<i64>(s.size()));
    mix_bytes(s.data(), s.size());
  };
  for (const MatrixSpec& s : specs) {
    mix_str(s.name);
    mix_i64(static_cast<i64>(s.family));
    mix_i64(s.rows);
    mix_i64(s.cols);
    mix_f64(s.density);
    mix_f64(s.skew);
    mix_i64(s.aux);
    mix_i64(static_cast<i64>(s.seed));
  }
  mix_i64(K);
  mix_i64(arm_count);
  mix_i64(cfg.tiling.strip_width);
  mix_i64(cfg.tiling.tile_height);
  mix_i64(static_cast<i64>(cfg.traversal));
  mix_i64(static_cast<i64>(cfg.placement));
  mix_i64(static_cast<i64>(cfg.mem_mode));
  // The merge kernel's chunk (256) and the Hong heavy threshold (4) were
  // config fields; mixing their values keeps existing fingerprints.
  mix_i64(256);
  mix_i64(4);
  mix_i64(static_cast<i64>(cfg.fault.site));
  mix_f64(cfg.fault.rate);
  mix_i64(static_cast<i64>(cfg.fault.seed));
  mix_str(cfg.arch.name);
  mix_i64(cfg.arch.num_sms);
  mix_i64(cfg.arch.pseudo_channels);
  mix_i64(cfg.arch.l2_bytes);
  mix_f64(cfg.arch.bw_per_channel_gbps);
  mix_i64(cfg.engine_hw.lanes);
  mix_f64(cfg.engine_hw.cycle_ns_sp);
  // Precision changes every arm's modelled traffic, so a journal written
  // at one precision must never satisfy a resume at another.
  mix_i64(static_cast<i64>(cfg.precision));
  return h;
}

JournalReplay read_journal(std::istream& is) {
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  JournalReplay replay;
  replay.bytes = static_cast<i64>(bytes.size());
  if (bytes.empty()) return replay;  // nothing written yet: fresh start
  if (bytes.size() < sizeof(kMagic) + sizeof(u32)) {
    // Torn before the version word could land: nothing recoverable.
    replay.torn_tail = true;
    return replay;
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    throw ParseError("not an NMDT checkpoint journal (bad magic)");
  }
  u32 version = 0;
  std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  if (version != kVersion) {
    throw ParseError("unsupported checkpoint-journal version " +
                     std::to_string(version));
  }
  std::string_view rest = std::string_view(bytes).substr(sizeof(kMagic) + sizeof(u32));
  replay.valid_bytes = static_cast<i64>(bytes.size() - rest.size());
  while (!rest.empty()) {
    const FrameScan f = scan_frame(rest, kJournalRules);
    switch (f.status) {
      case FrameScan::kPartial:
        replay.torn_tail = true;  // torn mid-length, mid-payload or mid-trailer
        return replay;
      case FrameScan::kOversized:
        throw FormatError("checkpoint journal corrupted: implausible frame length " +
                          std::to_string(f.len));
      case FrameScan::kCorrupt:
        throw FormatError(
            "checkpoint journal corrupted: entry checksum mismatch (bit flip or "
            "overwrite); delete the journal to restart the sweep from scratch");
      case FrameScan::kComplete:
        break;
    }
    FieldReader r(f.payload, kJournalRules);
    apply_entry(replay, r);
    // `entries` mirrors JournalWriter::entries(): work records only,
    // not the header frame.
    if (f.len > 0 && static_cast<u8>(f.payload[0]) != kHeader) ++replay.entries;
    rest.remove_prefix(f.size());
    replay.valid_bytes = static_cast<i64>(bytes.size() - rest.size());
  }
  return replay;
}

JournalReplay read_journal_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) throw ParseError("cannot open checkpoint journal: " + path);
  return read_journal(is);
}

void verify_journal(const JournalReplay& replay, u64 fingerprint, usize total,
                    index_t K, int arm_count) {
  if (replay.empty()) return;  // fresh start: nothing to contradict
  if (!replay.has_header) {
    throw FormatError("checkpoint journal has entries but no header frame");
  }
  NMDT_CHECK_CONFIG(replay.fingerprint == fingerprint,
                    "checkpoint journal belongs to a different sweep (suite "
                    "fingerprint mismatch: matrix set, K, kernel config, or fault "
                    "plan changed since the journal was written)");
  NMDT_CHECK_CONFIG(replay.total == static_cast<i64>(total) &&
                        replay.k == static_cast<i64>(K) &&
                        replay.arm_count == arm_count,
                    "checkpoint journal header disagrees with the suite being run");
}

std::string journal_summary_json(const JournalReplay& replay,
                                 const std::string& path) {
  usize planned = 0, degenerate = 0, row_errors = 0, arms_done = 0, arm_errors = 0,
        complete = 0;
  for (const auto& [idx, row] : replay.rows) {
    if (row.planned) ++planned;
    if (row.degenerate) ++degenerate;
    if (row.error.has_value()) ++row_errors;
    for (const auto& arm : row.arms) {
      if (!arm.has_value()) continue;
      if (arm->failed()) ++arm_errors;
      else ++arms_done;
    }
    if (replay.arm_count > 0 && row.complete(replay.arm_count)) ++complete;
  }
  std::ostringstream os;
  os << "{\n";
  os << "  \"journal\": \"" << obs::json_escape(path) << "\",\n";
  os << "  \"fingerprint\": \"" << std::hex << replay.fingerprint << std::dec
     << "\",\n";
  os << "  \"total_rows\": " << replay.total << ",\n";
  os << "  \"k\": " << replay.k << ",\n";
  os << "  \"arm_count\": " << replay.arm_count << ",\n";
  os << "  \"entries\": " << replay.entries << ",\n";
  os << "  \"bytes\": " << replay.bytes << ",\n";
  os << "  \"torn_tail\": " << (replay.torn_tail ? "true" : "false") << ",\n";
  os << "  \"rows_planned\": " << planned << ",\n";
  os << "  \"rows_degenerate\": " << degenerate << ",\n";
  os << "  \"rows_failed\": " << row_errors << ",\n";
  os << "  \"rows_complete\": " << complete << ",\n";
  os << "  \"arms_done\": " << arms_done << ",\n";
  os << "  \"arm_errors\": " << arm_errors << "\n";
  os << "}\n";
  return os.str();
}

JournalWriter::JournalWriter(const std::string& path, u64 fingerprint, usize total,
                             index_t K, int arm_count, int checkpoint_interval,
                             bool append)
    : path_(path), interval_(checkpoint_interval) {
  NMDT_CHECK_CONFIG(checkpoint_interval >= 1, "checkpoint interval must be >= 1");
  file_ = std::fopen(path.c_str(), append ? "ab" : "wb");
  if (file_ == nullptr) {
    throw ParseError("cannot open checkpoint journal for writing: " + path);
  }
  if (!append) {
    FieldWriter head(kJournalRules);
    head.bytes(kMagic, sizeof(kMagic));
    head.put_u32(kVersion);
    head.put_frame(header_payload(fingerprint, total, K, arm_count));
    try {
      if (std::fwrite(head.out.data(), 1, head.out.size(), file_) != head.out.size()) {
        throw ParseError("write failed on checkpoint journal: " + path);
      }
      flush();
    } catch (...) {
      // No destructor runs for a constructor that throws.
      std::fclose(file_);
      throw;
    }
  }
}

JournalWriter::~JournalWriter() {
  if (file_ == nullptr) return;
  // Best effort: the final checkpoint must land even on unwind paths.
  try {
    flush();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
  std::fclose(file_);
}

void JournalWriter::append(const std::string& payload) {
  FieldWriter framed(kJournalRules);
  framed.put_frame(payload);
  if (std::fwrite(framed.out.data(), 1, framed.out.size(), file_) != framed.out.size()) {
    throw ParseError("write failed on checkpoint journal: " + path_);
  }
  ++entries_;
  obs::metrics().checkpoint_written.add(1);
  obs::metrics().checkpoint_bytes.add(static_cast<i64>(framed.out.size()));
  if (++unsynced_ >= static_cast<usize>(interval_)) {
    unsynced_ = 0;
    flush();
  }
}

void JournalWriter::flush() {
  if (std::fflush(file_) != 0) {
    throw ParseError("flush failed on checkpoint journal: " + path_);
  }
#ifdef NMDT_HAVE_FSYNC
  // A checkpoint is durable only once fsync says so.
  if (::fsync(::fileno(file_)) != 0) {
    throw ParseError("fsync failed on checkpoint journal: " + path_);
  }
#endif
}

void JournalWriter::row_planned(usize row, const MatrixProfile& profile) {
  FieldWriter w(kJournalRules);
  w.put_u8(kRowPlanned);
  w.put_u32(static_cast<u32>(row));
  put_profile(w, profile);
  append(w.out);
}

void JournalWriter::row_degenerate(usize row) {
  FieldWriter w(kJournalRules);
  w.put_u8(kRowDegenerate);
  w.put_u32(static_cast<u32>(row));
  append(w.out);
}

void JournalWriter::row_error(usize row, const std::string& description) {
  FieldWriter w(kJournalRules);
  w.put_u8(kRowError);
  w.put_u32(static_cast<u32>(row));
  w.put_str(description);
  append(w.out);
}

void JournalWriter::arm_done(usize row, int arm, double t_ms, double prep_ms) {
  FieldWriter w(kJournalRules);
  w.put_u8(kArmDone);
  w.put_u32(static_cast<u32>(row));
  w.put_u8(static_cast<u8>(arm));
  w.put_f64(t_ms);
  w.put_f64(prep_ms);
  append(w.out);
}

void JournalWriter::arm_error(usize row, int arm, const std::string& description) {
  FieldWriter w(kJournalRules);
  w.put_u8(kArmError);
  w.put_u32(static_cast<u32>(row));
  w.put_u8(static_cast<u8>(arm));
  w.put_str(description);
  append(w.out);
}

}  // namespace nmdt
