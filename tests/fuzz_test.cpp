// Robustness fuzzing: randomized single-field corruptions of valid
// structures must either remain valid (benign mutation) or throw a
// typed error — never crash, hang, or silently corrupt downstream
// consumers.  Every trial that survives validation is pushed through
// the converters and a kernel to make "benign" mean benign end to end.
#include <gtest/gtest.h>

#include "core/executor.hpp"
#include "core/journal.hpp"
#include "formats/convert.hpp"
#include "proc/frame.hpp"
#include "formats/matrix_market.hpp"
#include "formats/serialize.hpp"
#include "kernels/spmm.hpp"
#include "matgen/generators.hpp"
#include "service/protocol.hpp"
#include "transform/engine.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/line_reader.hpp"
#include "util/rng.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace nmdt {
namespace {

Csr base_matrix(u64 seed) { return gen_uniform(96, 96, 0.05, seed); }

/// Apply one random mutation to a CSR structure.
void mutate(Csr& m, Rng& rng) {
  switch (rng.below(6)) {
    case 0:
      if (!m.row_ptr.empty()) {
        m.row_ptr[rng.below(m.row_ptr.size())] =
            static_cast<index_t>(rng.range(-3, static_cast<i64>(m.val.size()) + 3));
      }
      break;
    case 1:
      if (!m.col_idx.empty()) {
        m.col_idx[rng.below(m.col_idx.size())] =
            static_cast<index_t>(rng.range(-2, m.cols + 2));
      }
      break;
    case 2:
      m.rows = static_cast<index_t>(rng.range(-1, m.rows + 1));
      break;
    case 3:
      m.cols = static_cast<index_t>(rng.range(-1, m.cols + 1));
      break;
    case 4:
      if (!m.val.empty()) m.val.pop_back();
      break;
    default:
      m.row_ptr.push_back(m.row_ptr.back());
      break;
  }
}

TEST(Fuzz, MutatedCsrEitherValidatesOrThrowsTypedError) {
  Rng rng(0xf022);
  int benign = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    Csr m = base_matrix(1 + trial % 5);
    const int mutations = 1 + static_cast<int>(rng.below(3));
    for (int i = 0; i < mutations; ++i) mutate(m, rng);
    bool valid = true;
    try {
      m.validate();
    } catch (const Error&) {
      valid = false;
      ++rejected;
    }
    if (!valid) continue;
    ++benign;
    // A structure that validates must survive the full pipeline.
    const Csc csc = csc_from_csr(m);
    csc.validate();
    const Dcsr d = dcsr_from_csr(m);
    d.validate();
    Rng brng(7);
    DenseMatrix B(m.cols, 8);
    B.randomize(brng);
    SpmmConfig cfg;
    const SpmmResult r = run_one_shot(KernelKind::kTiledDcsrOnline, m, B, cfg);
    EXPECT_LE(r.C.max_abs_diff(spmm_reference(m, B)), 1e-3);
  }
  // The mutation mix must actually exercise both branches.
  EXPECT_GT(rejected, 50);
  EXPECT_GT(benign, 5);
}

TEST(Fuzz, CorruptedBinaryStreamsNeverCrash) {
  Rng rng(0xf023);
  const Csr m = base_matrix(9);
  std::stringstream ss;
  save_csr(ss, m);
  const std::string golden = ss.str();
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes = golden;
    // Flip 1-4 random bytes anywhere in the stream.
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    std::stringstream corrupted(bytes);
    try {
      const Csr back = load_csr(corrupted);
      back.validate();  // anything that loads must be structurally sound
      ++loaded;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, 300);
  EXPECT_GT(rejected, 100) << "most random corruption must be caught";
}

TEST(Fuzz, CorruptedMatrixMarketTextNeverCrashes) {
  Rng rng(0xf025);
  const Csr m = base_matrix(11);
  std::stringstream ss;
  write_matrix_market(ss, coo_from_csr(m));
  const std::string golden = ss.str();
  int loaded = 0, rejected = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = golden;
    // 1-4 random printable-character edits: overwrite, insert, or
    // delete a span — models hand-edited or mis-transferred files.
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < edits && !text.empty(); ++i) {
      const usize pos = rng.below(text.size());
      switch (rng.below(3)) {
        case 0: text[pos] = static_cast<char>(32 + rng.below(95)); break;
        case 1: text.insert(pos, 1, static_cast<char>(32 + rng.below(95))); break;
        default: text.erase(pos, 1 + rng.below(8)); break;
      }
    }
    std::istringstream is(text);
    try {
      const Coo coo = read_matrix_market(is);
      coo.validate();
      ++loaded;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(loaded + rejected, 300);
  EXPECT_GT(rejected, 50) << "the edit mix must actually damage the format";
}

TEST(Fuzz, MatrixMarketRejectsDimensionsBeyondIndexRange) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "4294967296 10 1\n"
      "1 1 1.0\n");
  try {
    read_matrix_market(is);
    FAIL() << "2^32 rows must not silently wrap in index_t";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("exceed the index range"), std::string::npos);
  }
}

TEST(Fuzz, MatrixMarketRejectsEntryCountBeyondIndexRange) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "10 10 4294967296\n");
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

TEST(Fuzz, MatrixMarketRejectsEntriesPastTheDeclaredCount) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 1.0\n"
      "2 2 2.0\n");
  try {
    read_matrix_market(is);
    FAIL() << "extra entries mean the size line lied about nnz";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("beyond the declared count"), std::string::npos);
  }
}

/// A small but representative checkpoint journal: planned rows with
/// successful and failed arms, a degenerate row, a row-level error.
std::string golden_journal(u64 fingerprint) {
  const std::string path = testing::TempDir() + "nmdt_fuzz_journal.nmdj";
  std::remove(path.c_str());
  {
    JournalWriter w(path, fingerprint, 4, 8, 4, 1, /*append=*/false);
    MatrixProfile p;
    p.stats.rows = 96;
    p.stats.nnz = 123;
    p.ssf = 0.25;
    w.row_planned(0, p);
    w.arm_done(0, 0, 1.5, 0.0);
    w.arm_done(0, 1, 2.5, 0.0);
    w.arm_done(0, 2, 3.5, 0.0);
    w.arm_done(0, 3, 4.5, 0.125);
    w.row_degenerate(1);
    w.row_error(2, "FaultError: injected transient fault");
    w.row_planned(3, p);
    w.arm_error(3, 2, "TimeoutError: work unit exceeded its deadline");
  }
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(Fuzz, JournalRoundTripsTheGoldenBytes) {
  const std::string golden = golden_journal(0xfeed);
  std::istringstream is(golden);
  const JournalReplay replay = read_journal(is);
  EXPECT_TRUE(replay.has_header);
  EXPECT_EQ(replay.fingerprint, 0xfeedu);
  EXPECT_EQ(replay.entries, 9u);
  ASSERT_EQ(replay.rows.size(), 4u);
  EXPECT_TRUE(replay.rows.at(0).complete(4));
  EXPECT_EQ(replay.rows.at(0).arms[3]->prep_ms, 0.125);
  EXPECT_TRUE(replay.rows.at(1).degenerate);
  EXPECT_TRUE(replay.rows.at(2).error.has_value());
  EXPECT_FALSE(replay.rows.at(3).complete(4));
  EXPECT_TRUE(replay.rows.at(3).arms[2]->failed());
}

TEST(Fuzz, TruncatedJournalYieldsAValidPrefixOrATypedError) {
  // A crash can cut the file at ANY byte.  Every cut must give either a
  // clean prefix replay (the dropped tail re-executes on resume) or a
  // typed error — never UB and never a replay longer than the original.
  const std::string golden = golden_journal(0xfeed);
  for (usize cut = 0; cut < golden.size(); ++cut) {
    std::istringstream is(golden.substr(0, cut));
    try {
      const JournalReplay replay = read_journal(is);
      EXPECT_LE(replay.entries, 9u) << "cut at " << cut;
      EXPECT_LE(replay.rows.size(), 4u) << "cut at " << cut;
    } catch (const Error&) {
      // Typed rejection (e.g. cut inside the magic) is equally fine.
    }
  }
}

TEST(Fuzz, BitFlippedJournalNeverResumesWrong) {
  const std::string golden = golden_journal(0xfeed);
  Rng rng(0xf026);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = golden;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    std::istringstream is(bytes);
    try {
      const JournalReplay replay = read_journal(is);
      // Flips that survive the CRC can only have landed in a dropped
      // tail or cancelled out; the replay must still be structurally
      // sane.
      EXPECT_LE(replay.entries, 9u);
      for (const auto& [idx, row] : replay.rows) EXPECT_LT(idx, 64u);
      ++accepted;
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(accepted + rejected, 500);
  EXPECT_GT(rejected, 250) << "CRC framing must catch most corruption";
}

TEST(Fuzz, StaleJournalFingerprintIsRejectedBeforeResume) {
  const std::string golden = golden_journal(0xfeed);
  std::istringstream is(golden);
  const JournalReplay replay = read_journal(is);
  // Matching sweep: accepted.
  verify_journal(replay, 0xfeed, 4, 8, 4);
  // The journal belongs to a different experiment: typed rejection.
  EXPECT_THROW(verify_journal(replay, 0xbeef, 4, 8, 4), ConfigError);
  EXPECT_THROW(verify_journal(replay, 0xfeed, 5, 8, 4), ConfigError);
  EXPECT_THROW(verify_journal(replay, 0xfeed, 4, 16, 4), ConfigError);
}

TEST(Fuzz, MutatedServiceRequestsParseOrThrowTypedError) {
  // The daemon's request decoder is the service's attack surface:
  // random single-byte corruptions of a valid request line must parse
  // to a valid Request or throw a typed ParseError — never crash, never
  // throw anything untyped.
  const std::string valid =
      R"({"id":"r1","tenant":"t","matrix":"gen:uniform:64x64:0.05:1","k":16,)"
      R"("b_seed":7,"kernel":"auto","precision":"f32","deadline_ms":100,)"
      R"("return_c":false})";
  // Sanity: the uncorrupted line parses.
  ASSERT_EQ(service::parse_request(valid, 1).k, 16);

  Rng rng(0xf025);
  int benign = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string line = valid;
    const int mutations = 1 + static_cast<int>(rng.below(3));
    for (int m = 0; m < mutations; ++m) {
      const usize pos = rng.below(line.size());
      switch (rng.below(3)) {
        case 0: line[pos] = static_cast<char>(rng.below(256)); break;
        case 1: line.erase(pos, 1); break;
        default: {
          const char insert[2] = {static_cast<char>(rng.below(128)), '\0'};
          line = line.substr(0, pos) + insert + line.substr(pos);
          break;
        }
      }
      // Move-assigned: GCC 12 misreports operator=(const char*) as -Wrestrict.
      if (line.empty()) line = std::string("x");
    }
    try {
      const service::Request req = service::parse_request(line, 1);
      EXPECT_GE(req.k, 1);  // every accepted request satisfies the caps
      EXPECT_LE(req.k, service::kMaxRequestK);
      EXPECT_FALSE(req.matrix.empty());
      ++benign;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(benign + rejected, 500);
  EXPECT_GT(rejected, 0);  // corruptions really were exercised
}

TEST(Fuzz, RandomGarbageRequestLinesAlwaysThrowTyped) {
  Rng rng(0xf026);
  for (int trial = 0; trial < 200; ++trial) {
    std::string line;
    const usize len = rng.below(120);
    for (usize i = 0; i < len; ++i) {
      line.push_back(static_cast<char>(rng.below(256)));
    }
    try {
      (void)service::parse_request(line, static_cast<u64>(trial));
    } catch (const ParseError&) {
      // typed rejection is the expected outcome for garbage
    }
  }
}

TEST(Fuzz, BoundedLineReaderCapsNewlineFreeStreams) {
  // A newline-free stream (or one oversized line) must surface as a
  // typed ParseError at the cap, not as unbounded buffering.
  std::istringstream huge(std::string(4096, 'a'));
  std::string line;
  EXPECT_THROW(read_bounded_line(huge, line, 1024, "request"), ParseError);

  // At or under the cap, behavior matches std::getline exactly.
  std::istringstream ok("short\r\nsecond line\nlast");
  ASSERT_TRUE(read_bounded_line(ok, line, 1024, "request"));
  EXPECT_EQ(line, "short\r");  // '\r' kept, '\n' consumed and dropped
  ASSERT_TRUE(read_bounded_line(ok, line, 1024, "request"));
  EXPECT_EQ(line, "second line");
  ASSERT_TRUE(read_bounded_line(ok, line, 1024, "request"));
  EXPECT_EQ(line, "last");  // unterminated final line still returned
  EXPECT_FALSE(read_bounded_line(ok, line, 1024, "request"));  // EOF
}

TEST(Fuzz, MatrixMarketOverlongLineIsATypedParseError) {
  // The matrix_market reader shares the bounded-line reader: a header
  // comment longer than the cap is rejected, not buffered without
  // bound.
  std::string text = "%%MatrixMarket matrix coordinate real general\n%";
  text.append(kDefaultMaxLineBytes + 16, 'c');
  text += "\n2 2 1\n1 1 1.0\n";
  std::istringstream is(text);
  EXPECT_THROW(read_matrix_market(is), ParseError);
}

/// A representative supervisor↔worker pipe exchange: hello, heartbeat,
/// a task dispatch, and its result — the byte stream the FrameDecoder
/// must survive in any torn or corrupted form.
std::string golden_frame_stream() {
  std::string stream;
  {
    FieldWriter w(proc::kPipeRules);
    w.put_u64(4242);  // pid
    stream += proc::encode_frame(proc::FrameType::kHello, w.out);
  }
  stream += proc::encode_frame(proc::FrameType::kHeartbeat, "");
  {
    FieldWriter w(proc::kPipeRules);
    w.put_u64(7);            // task id
    w.put_u8(2);             // kind
    w.put_u64(0xabcdef);     // key
    w.put_u32(1);            // attempt
    w.put_str("row=3 arm=1");
    stream += proc::encode_frame(proc::FrameType::kTask, w.out);
  }
  {
    FieldWriter w(proc::kPipeRules);
    w.put_u64(7);  // task id
    w.put_u8(1);   // ok
    w.put_str("t_ms=1.25 prep_ms=0.0 crc=deadbeef");
    stream += proc::encode_frame(proc::FrameType::kResult, w.out);
  }
  return stream;
}

/// Drain a decoder over `bytes`, fed in `chunk`-sized slices.  Returns
/// the number of complete frames, or -1 if a typed ParseError fired.
/// Anything else escaping (crash, untyped throw) fails the test.
int drain_frames(const std::string& bytes, usize chunk) {
  proc::FrameDecoder dec;
  int frames = 0;
  try {
    for (usize off = 0; off < bytes.size(); off += chunk) {
      dec.feed(bytes.data() + off, std::min(chunk, bytes.size() - off));
      while (dec.next().has_value()) ++frames;
    }
  } catch (const ParseError&) {
    return -1;
  }
  return frames;
}

TEST(Fuzz, FrameDecoderRoundTripsTheGoldenStreamAtAnyChunking) {
  const std::string golden = golden_frame_stream();
  // Whole-stream, byte-at-a-time, and awkward prime-sized reads all
  // yield the same four frames — the decoder is chunking-agnostic.
  for (usize chunk : {golden.size(), usize{1}, usize{3}, usize{7}}) {
    EXPECT_EQ(drain_frames(golden, chunk), 4) << "chunk=" << chunk;
  }
  // Field-level round trip of the task frame.
  proc::FrameDecoder dec;
  dec.feed(golden.data(), golden.size());
  (void)dec.next();  // hello
  (void)dec.next();  // heartbeat
  const auto task = dec.next();
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->type, proc::FrameType::kTask);
  FieldReader r(task->payload, proc::kPipeRules);
  EXPECT_EQ(r.get_u64("id"), 7u);
  EXPECT_EQ(r.get_u8("kind"), 2);
  EXPECT_EQ(r.get_u64("key"), 0xabcdefu);
  EXPECT_EQ(r.get_u32("attempt"), 1u);
  EXPECT_EQ(r.get_str("payload"), "row=3 arm=1");
  r.expect_done("task frame");
}

TEST(Fuzz, TruncatedFrameStreamsNeverCrashOrOverRead) {
  // A worker can die at ANY byte of the stream.  Every prefix must
  // decode to a valid frame prefix (0..4 frames) and leave the decoder
  // non-idle when the cut lands mid-frame — that non-idle EOF is how
  // the supervisor types "died mid-frame" vs a clean close.
  const std::string golden = golden_frame_stream();
  for (usize cut = 0; cut < golden.size(); ++cut) {
    proc::FrameDecoder dec;
    dec.feed(golden.data(), cut);
    int frames = 0;
    while (dec.next().has_value()) ++frames;  // must terminate, never throw
    EXPECT_LE(frames, 4) << "cut at " << cut;
    // Decoded frame boundaries are monotone: a longer prefix never
    // yields fewer frames, and mid-frame cuts leave residue buffered.
    if (cut > 0 && frames == 0) {
      EXPECT_FALSE(dec.idle()) << "cut at " << cut;
    }
  }
  // The full stream drains to idle: clean EOF.
  proc::FrameDecoder dec;
  dec.feed(golden.data(), golden.size());
  while (dec.next().has_value()) {
  }
  EXPECT_TRUE(dec.idle());
}

TEST(Fuzz, BitFlippedFrameStreamsAreCaughtOrBenign) {
  const std::string golden = golden_frame_stream();
  Rng rng(0xf027);
  int accepted = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string bytes = golden;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int i = 0; i < flips; ++i) {
      bytes[rng.below(bytes.size())] ^= static_cast<char>(1 + rng.below(255));
    }
    const int frames = drain_frames(bytes, 1 + rng.below(16));
    if (frames < 0) {
      ++rejected;  // typed ParseError — the supervisor kills the worker
    } else {
      // Flips that evade the CRC must have landed in a frame that still
      // checksums (length-field flips usually just leave a partial
      // tail); whatever decoded is a structurally valid frame sequence.
      EXPECT_LE(frames, 4);
      ++accepted;
    }
  }
  EXPECT_EQ(accepted + rejected, 500);
  EXPECT_GT(rejected, 200) << "CRC framing must catch most corruption";
}

TEST(Fuzz, ImplausibleFrameLengthIsATypedErrorNotAnAllocation) {
  // A corrupt length prefix claiming a multi-GiB payload must throw
  // immediately — before any buffering decision — not attempt the
  // allocation or wait forever for bytes that never come.  The wire
  // length counts the tag byte, so the largest legal value is
  // kMaxFramePayloadBytes + 1.
  for (u32 len : {proc::kMaxFramePayloadBytes + 2, u32{0xffffffff}}) {
    FieldWriter w(proc::kPipeRules);
    w.put_u32(len);
    proc::FrameDecoder dec;
    dec.feed(w.out.data(), w.out.size());
    try {
      dec.next();
      FAIL() << "length " << len << " must not be accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("implausible length"), std::string::npos);
    }
  }
  // At the cap exactly, the decoder just waits for the payload bytes.
  FieldWriter w(proc::kPipeRules);
  w.put_u32(proc::kMaxFramePayloadBytes + 1);
  proc::FrameDecoder dec;
  dec.feed(w.out.data(), w.out.size());
  EXPECT_FALSE(dec.next().has_value());
}

TEST(Fuzz, EmptyPayloadAndUnknownTagFramesAreTypedErrors) {
  {
    // Zero-length payload: no room for the type tag.
    u32 fields[2] = {0, crc32("", 0)};
    proc::FrameDecoder dec;
    dec.feed(fields, sizeof(fields));
    try {
      dec.next();
      FAIL() << "empty payload must be rejected";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("empty payload"), std::string::npos);
    }
  }
  {
    // Valid CRC over a payload whose tag is not a FrameType.
    const std::string bogus = proc::encode_frame(static_cast<proc::FrameType>(99), "x");
    proc::FrameDecoder dec;
    dec.feed(bogus.data(), bogus.size());
    try {
      dec.next();
      FAIL() << "unknown tag must be rejected";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown type tag"), std::string::npos);
    }
  }
}

TEST(Fuzz, RandomGarbageFrameStreamsNeverCrashOrHang) {
  Rng rng(0xf028);
  for (int trial = 0; trial < 300; ++trial) {
    std::string bytes;
    const usize len = rng.below(256);
    for (usize i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.below(256)));
    }
    // Either some frames decode (vanishingly unlikely) or a typed
    // ParseError fires or the decoder just wants more bytes — all fine;
    // drain_frames fails the test on anything untyped.
    (void)drain_frames(bytes, 1 + rng.below(32));
  }
}

TEST(Fuzz, WireReaderTruncationIsAlwaysATypedError) {
  // Layout disagreement (e.g. version skew) surfaces as truncated-field
  // ParseErrors at every possible cut, never an over-read.
  FieldWriter w(proc::kPipeRules);
  w.put_u64(123);
  w.put_u8(7);
  w.put_str("hello");
  w.put_f64(2.5);
  for (usize cut = 0; cut + 1 < w.out.size(); ++cut) {
    FieldReader r(std::string_view(w.out).substr(0, cut), proc::kPipeRules);
    try {
      (void)r.get_u64("a");
      (void)r.get_u8("b");
      (void)r.get_str("c");
      (void)r.get_f64("d");
      FAIL() << "cut at " << cut << " must not decode every field";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos);
    }
  }
  // Extra trailing bytes are equally typed.
  FieldReader r(w.out, proc::kPipeRules);
  (void)r.get_u64("a");
  EXPECT_THROW(r.expect_done("short read"), ParseError);
}

// The journal and pipe-frame bytes, pinned as literals.  Each test checks
// both directions: the writer reproduces the bytes exactly, and the reader
// decodes the literal to the values that were written.  A codec change that
// moves one byte on disk or on the pipe fails here.
constexpr std::string_view kGoldenJournalHex =
    "4e4d444a010000001a00000000edfe0000000000000400000000000000080000"
    "0000000000045eb2ad3c9d000000010000000060000000000000000000000000"
    "0000007b00000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000d03fa740283216000000040000000000000000000000f8"
    "3f00000000000000008ee19b0616000000040000000001000000000000044000"
    "00000000000000de4a57a4160000000400000000020000000000000c40000000"
    "0000000000ae511ae41600000004000000000300000000000012400000000000"
    "00c03fc5d1472705000000020100000018c35e042d0000000302000000240000"
    "004661756c744572726f723a20696e6a6563746564207472616e7369656e7420"
    "6661756c749c5794469d00000001030000006000000000000000000000000000"
    "00007b0000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000d03f6b12ce15370000000503000000022d00000054696d65"
    "6f75744572726f723a20776f726b20756e697420657863656564656420697473"
    "20646561646c696e65bd20a6b1";

constexpr std::string_view kGoldenFrameHex =
    "09000000019210000000000000af2f09fb0100000004942b6fd5250000000207"
    "0000000000000002efcdab0000000000010000000b000000726f773d33206172"
    "6d3d31f7bd29be300000000307000000000000000122000000745f6d733d312e"
    "323520707265705f6d733d302e30206372633d6465616462656566ed5cb557";

std::string from_hex(std::string_view hex) {
  const std::vector<u8> bytes = service::hex_decode(hex);
  return std::string(bytes.begin(), bytes.end());
}

TEST(Fuzz, JournalGoldenBytesArePinned) {
  const std::string golden = golden_journal(0xfeed);
  EXPECT_EQ(service::hex_encode(golden.data(), golden.size()), kGoldenJournalHex);

  const std::string pinned = from_hex(kGoldenJournalHex);
  std::istringstream is(pinned);
  const JournalReplay replay = read_journal(is);
  EXPECT_TRUE(replay.has_header);
  EXPECT_FALSE(replay.torn_tail);
  EXPECT_EQ(replay.fingerprint, 0xfeedu);
  EXPECT_EQ(replay.total, 4);
  EXPECT_EQ(replay.k, 8);
  EXPECT_EQ(replay.arm_count, 4);
  EXPECT_EQ(replay.entries, 9u);
  EXPECT_EQ(replay.valid_bytes, static_cast<i64>(pinned.size()));
  ASSERT_EQ(replay.rows.size(), 4u);
  const JournalRow& r0 = replay.rows.at(0);
  EXPECT_TRUE(r0.planned);
  EXPECT_EQ(r0.profile.stats.rows, 96);
  EXPECT_EQ(r0.profile.stats.nnz, 123);
  EXPECT_EQ(r0.profile.ssf, 0.25);
  for (usize a = 0; a < 4; ++a) {
    ASSERT_TRUE(r0.arms[a].has_value());
    EXPECT_EQ(r0.arms[a]->t_ms, 1.5 + static_cast<double>(a));
    EXPECT_EQ(r0.arms[a]->prep_ms, a == 3 ? 0.125 : 0.0);
  }
  EXPECT_TRUE(replay.rows.at(1).degenerate);
  EXPECT_EQ(replay.rows.at(2).error, "FaultError: injected transient fault");
  const JournalRow& r3 = replay.rows.at(3);
  EXPECT_TRUE(r3.planned);
  ASSERT_TRUE(r3.arms[2].has_value());
  EXPECT_EQ(r3.arms[2]->error, "TimeoutError: work unit exceeded its deadline");
  EXPECT_FALSE(r3.arms[0].has_value());
}

TEST(Fuzz, FrameGoldenBytesArePinned) {
  const std::string golden = golden_frame_stream();
  EXPECT_EQ(service::hex_encode(golden.data(), golden.size()), kGoldenFrameHex);

  const std::string pinned = from_hex(kGoldenFrameHex);
  proc::FrameDecoder dec;
  dec.feed(pinned.data(), pinned.size());
  const auto hello = dec.next();
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->type, proc::FrameType::kHello);
  FieldReader h(hello->payload, proc::kPipeRules);
  EXPECT_EQ(h.get_u64("pid"), 4242u);
  h.expect_done("hello frame");
  const auto beat = dec.next();
  ASSERT_TRUE(beat.has_value());
  EXPECT_EQ(beat->type, proc::FrameType::kHeartbeat);
  EXPECT_TRUE(beat->payload.empty());
  const auto task = dec.next();
  ASSERT_TRUE(task.has_value());
  EXPECT_EQ(task->type, proc::FrameType::kTask);
  FieldReader t(task->payload, proc::kPipeRules);
  EXPECT_EQ(t.get_u64("id"), 7u);
  EXPECT_EQ(t.get_u8("kind"), 2);
  EXPECT_EQ(t.get_u64("key"), 0xabcdefu);
  EXPECT_EQ(t.get_u32("attempt"), 1u);
  EXPECT_EQ(t.get_str("body"), "row=3 arm=1");
  t.expect_done("task frame");
  const auto result = dec.next();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->type, proc::FrameType::kResult);
  FieldReader r(result->payload, proc::kPipeRules);
  EXPECT_EQ(r.get_u64("id"), 7u);
  EXPECT_EQ(r.get_u8("ok"), 1);
  EXPECT_EQ(r.get_str("body"), "t_ms=1.25 prep_ms=0.0 crc=deadbeef");
  r.expect_done("result frame");
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.idle());
}

TEST(Fuzz, EngineHandlesArbitraryValidInputs) {
  Rng rng(0xf024);
  for (int trial = 0; trial < 50; ++trial) {
    const index_t rows = static_cast<index_t>(1 + rng.below(200));
    const index_t cols = static_cast<index_t>(1 + rng.below(200));
    const double density = rng.uniform(0.0, 0.2);
    const Csr csr = gen_uniform(rows, cols, density, 5000 + trial);
    const Csc csc = csc_from_csr(csr);
    const TilingSpec spec{static_cast<index_t>(1 + rng.below(64)),
                          static_cast<index_t>(1 + rng.below(128))};
    ConversionEngine engine;
    i64 total = 0;
    for (index_t s = 0; s < spec.num_strips(cols); ++s) {
      for (const auto& tile : engine.convert_strip(csc, s, spec)) {
        tile.body.validate();
        total += tile.nnz();
      }
    }
    EXPECT_EQ(total, csr.nnz()) << "rows=" << rows << " cols=" << cols;
  }
}

}  // namespace
}  // namespace nmdt
