#include "core/journal.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <iterator>
#include <sstream>

#include "formats/fingerprint.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"  // json_escape
#include "util/crc32.hpp"
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
// larger length is corruption that slipped past the CRC framing.
constexpr u32 kMaxStringBytes = 1 << 20;

struct ByteWriter {
  std::string out;

  void bytes(const void* p, usize n) { out.append(static_cast<const char*>(p), n); }
  void put_u8(u8 v) { bytes(&v, sizeof(v)); }
  void put_u32(u32 v) { bytes(&v, sizeof(v)); }
  void put_u64(u64 v) { bytes(&v, sizeof(v)); }
  void put_i64(i64 v) { bytes(&v, sizeof(v)); }
  void put_f64(double v) { bytes(&v, sizeof(v)); }
  void put_str(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    bytes(s.data(), s.size());
  }
};

/// Bounds-checked reader over one CRC-verified entry payload.  Running
/// out of bytes here means writer/reader layout disagreement or a
/// corrupted length that still passed the CRC — typed, never UB.
struct ByteReader {
  const char* p;
  usize left;

  void bytes(void* dst, usize n, const char* what) {
    if (n > left) {
      throw FormatError(std::string("malformed checkpoint-journal entry: truncated ") +
                        what);
    }
    if (n > 0) std::memcpy(dst, p, n);
    p += n;
    left -= n;
  }
  u8 get_u8(const char* what) { u8 v = 0; bytes(&v, sizeof(v), what); return v; }
  u32 get_u32(const char* what) { u32 v = 0; bytes(&v, sizeof(v), what); return v; }
  u64 get_u64(const char* what) { u64 v = 0; bytes(&v, sizeof(v), what); return v; }
  i64 get_i64(const char* what) { i64 v = 0; bytes(&v, sizeof(v), what); return v; }
  double get_f64(const char* what) { double v = 0; bytes(&v, sizeof(v), what); return v; }
  std::string get_str(const char* what) {
    const u32 n = get_u32(what);
    if (n > kMaxStringBytes) {
      throw FormatError(std::string("malformed checkpoint-journal entry: implausible "
                                    "string length for ") +
                        what);
    }
    std::string s(static_cast<usize>(n), '\0');
    bytes(s.data(), s.size(), what);
    return s;
  }
};

void put_profile(ByteWriter& w, const MatrixProfile& p) {
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

MatrixProfile get_profile(ByteReader& r) {
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
void apply_entry(JournalReplay& replay, ByteReader& r) {
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
  if (r.left != 0) {
    throw FormatError("malformed checkpoint-journal entry: trailing bytes");
  }
}

std::string frame(const std::string& payload) {
  ByteWriter w;
  w.put_u32(static_cast<u32>(payload.size()));
  w.bytes(payload.data(), payload.size());
  w.put_u32(crc32(payload.data(), payload.size()));
  return w.out;
}

std::string header_payload(u64 fingerprint, usize total, index_t K, int arm_count) {
  ByteWriter w;
  w.put_u8(kHeader);
  w.put_u64(fingerprint);
  w.put_i64(static_cast<i64>(total));
  w.put_i64(static_cast<i64>(K));
  w.put_u8(static_cast<u8>(arm_count));
  return w.out;
}

// An entry frame larger than this is corruption (profiles are ~200 B,
// error strings bounded by kMaxStringBytes).
constexpr u32 kMaxFrameBytes = kMaxStringBytes + 256;

}  // namespace

std::string encode_profile(const MatrixProfile& profile) {
  ByteWriter w;
  put_profile(w, profile);
  return w.out;
}

MatrixProfile decode_profile(std::string_view bytes) {
  ByteReader r{bytes.data(), bytes.size()};
  MatrixProfile p = get_profile(r);
  if (r.left != 0) {
    throw FormatError("malformed encoded MatrixProfile: trailing bytes");
  }
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
  mix_i64(cfg.merge_chunk);
  mix_i64(cfg.hong_heavy_threshold);
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
  usize off = sizeof(kMagic) + sizeof(u32);
  replay.valid_bytes = static_cast<i64>(off);
  while (off < bytes.size()) {
    if (bytes.size() - off < sizeof(u32)) {
      replay.torn_tail = true;  // torn mid-length
      break;
    }
    u32 len = 0;
    std::memcpy(&len, bytes.data() + off, sizeof(len));
    if (len > kMaxFrameBytes) {
      throw FormatError("checkpoint journal corrupted: implausible frame length " +
                        std::to_string(len));
    }
    if (bytes.size() - off - sizeof(u32) < static_cast<usize>(len) + sizeof(u32)) {
      replay.torn_tail = true;  // torn mid-payload or mid-trailer
      break;
    }
    const char* payload = bytes.data() + off + sizeof(u32);
    u32 stored = 0;
    std::memcpy(&stored, payload + len, sizeof(stored));
    if (crc32(payload, len) != stored) {
      throw FormatError(
          "checkpoint journal corrupted: entry checksum mismatch (bit flip or "
          "overwrite); delete the journal to restart the sweep from scratch");
    }
    ByteReader r{payload, len};
    apply_entry(replay, r);
    // `entries` mirrors JournalWriter::entries(): work records only,
    // not the header frame.
    if (len > 0 && static_cast<u8>(payload[0]) != kHeader) ++replay.entries;
    off += sizeof(u32) + len + sizeof(u32);
    replay.valid_bytes = static_cast<i64>(off);
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
    std::string head(kMagic, sizeof(kMagic));
    const u32 version = kVersion;
    head.append(reinterpret_cast<const char*>(&version), sizeof(version));
    head += frame(header_payload(fingerprint, total, K, arm_count));
    if (std::fwrite(head.data(), 1, head.size(), file_) != head.size()) {
      std::fclose(file_);
      file_ = nullptr;
      throw ParseError("write failed on checkpoint journal: " + path);
    }
    flush();
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
  const std::string framed = frame(payload);
  if (std::fwrite(framed.data(), 1, framed.size(), file_) != framed.size()) {
    throw ParseError("write failed on checkpoint journal: " + path_);
  }
  ++entries_;
  obs::MetricsRegistry::global().counter("checkpoint.written").add(1);
  obs::MetricsRegistry::global().counter("checkpoint.bytes").add(
      static_cast<i64>(framed.size()));
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
  ::fsync(::fileno(file_));
#endif
}

void JournalWriter::row_planned(usize row, const MatrixProfile& profile) {
  ByteWriter w;
  w.put_u8(kRowPlanned);
  w.put_u32(static_cast<u32>(row));
  put_profile(w, profile);
  append(w.out);
}

void JournalWriter::row_degenerate(usize row) {
  ByteWriter w;
  w.put_u8(kRowDegenerate);
  w.put_u32(static_cast<u32>(row));
  append(w.out);
}

void JournalWriter::row_error(usize row, const std::string& description) {
  ByteWriter w;
  w.put_u8(kRowError);
  w.put_u32(static_cast<u32>(row));
  w.put_str(description);
  append(w.out);
}

void JournalWriter::arm_done(usize row, int arm, double t_ms, double prep_ms) {
  ByteWriter w;
  w.put_u8(kArmDone);
  w.put_u32(static_cast<u32>(row));
  w.put_u8(static_cast<u8>(arm));
  w.put_f64(t_ms);
  w.put_f64(prep_ms);
  append(w.out);
}

void JournalWriter::arm_error(usize row, int arm, const std::string& description) {
  ByteWriter w;
  w.put_u8(kArmError);
  w.put_u32(static_cast<u32>(row));
  w.put_u8(static_cast<u8>(arm));
  w.put_str(description);
  append(w.out);
}

}  // namespace nmdt
