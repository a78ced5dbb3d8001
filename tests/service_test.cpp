// SpMM-as-a-service tests: the JSON-lines protocol (parse/serialize),
// admission control (token buckets, bounded queue, load shedding), and
// the server end to end — including the two contracts the daemon lives
// by: every submitted request gets exactly one response, and a served
// result is bit-identical to a batch-mode execution of the same
// (matrix, kernel, precision, b_seed, k).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/executor.hpp"
#include "core/suite_driver.hpp"
#include "fault/fault.hpp"
#include "formats/serialize.hpp"
#include "matgen/generators.hpp"
#include "matgen/suite.hpp"
#include "obs/json_check.hpp"
#include "service/server.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace nmdt::service {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

constexpr const char* kSpecA = "gen:uniform:128x128:0.05:1";
constexpr const char* kSpecB = "gen:powerlaw_rows:128x96:0.04:2";

Request make_request(std::string id, const char* spec = kSpecA, index_t k = 8) {
  Request req;
  req.id = std::move(id);
  req.matrix = spec;
  req.k = k;
  return req;
}

/// What batch mode (`nmdt_cli run` semantics) produces for this
/// request: plan the matrix, generate B from b_seed, run the requested
/// (or heuristic) kernel, CRC the stored result bits.
struct BatchReference {
  u32 crc = 0;
  std::vector<u8> bits;
  std::string kernel;
};

BatchReference batch_reference(const Request& req) {
  const Csr A = load_matrix_spec(req.matrix);
  Rng rng(req.b_seed);
  DenseMatrix B(A.cols, req.k);
  B.randomize(rng);
  SpmmConfig cfg = evaluation_config(A.rows, req.k);
  cfg.precision = req.precision;
  const auto plan = build_plan(A, plan_options_for(cfg));
  const KernelKind kind = req.kernel.value_or(plan->kernel());
  const SpmmResult r = SpmmExecutor(cfg).execute(kind, *plan, B);
  const auto bits = result_bits(r);
  return {crc32(bits.data(), bits.size()),
          std::vector<u8>(bits.begin(), bits.end()), kernel_name(kind)};
}

/// Thread-safe response collector used as the server sink.
struct Collector {
  std::mutex mu;
  std::vector<Response> all;

  ResponseSink sink() {
    return [this](const Response& r) {
      std::lock_guard<std::mutex> lock(mu);
      all.push_back(r);
    };
  }
  usize count() {
    std::lock_guard<std::mutex> lock(mu);
    return all.size();
  }
  Response only(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    const Response* found = nullptr;
    for (const auto& r : all) {
      if (r.id == id) {
        EXPECT_EQ(found, nullptr) << "duplicate response for " << id;
        found = &r;
      }
    }
    EXPECT_NE(found, nullptr) << "no response for " << id;
    return found != nullptr ? *found : Response{};
  }
};

// ---------------------------------------------------------------- protocol

TEST(Protocol, ParsesFullRequest) {
  const Request req = parse_request(
      R"({"id":"r1","tenant":"team-a","matrix":"m.mtx","k":32,"b_seed":9,)"
      R"("kernel":"dcsr_c_stationary","precision":"f64","deadline_ms":250,)"
      R"("return_c":true})",
      1);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.tenant, "team-a");
  EXPECT_EQ(req.matrix, "m.mtx");
  EXPECT_EQ(req.k, 32);
  EXPECT_EQ(req.b_seed, 9u);
  ASSERT_TRUE(req.kernel.has_value());
  EXPECT_EQ(*req.kernel, KernelKind::kDcsrCStationary);
  EXPECT_EQ(req.precision, Precision::kF64);
  EXPECT_EQ(req.deadline_ms, 250.0);
  EXPECT_TRUE(req.return_c);
}

TEST(Protocol, DefaultsMatchBatchMode) {
  const Request req = parse_request(R"({"matrix":"m.mtx"})", 17);
  EXPECT_EQ(req.id, "line-17");  // unnamed requests get a line id
  EXPECT_EQ(req.tenant, "default");
  EXPECT_EQ(req.k, 64);
  EXPECT_EQ(req.b_seed, 2u);  // nmdt_cli run's B seed
  EXPECT_FALSE(req.kernel.has_value());
  EXPECT_EQ(req.precision, Precision::kF32);
  EXPECT_EQ(req.deadline_ms, 0.0);
  EXPECT_FALSE(req.return_c);
}

TEST(Protocol, KernelAutoMeansHeuristic) {
  const Request req = parse_request(R"({"matrix":"m.mtx","kernel":"auto"})", 1);
  EXPECT_FALSE(req.kernel.has_value());
}

TEST(Protocol, RejectsMalformedRequestsTyped) {
  const char* bad[] = {
      "",                                            // empty
      "not json",                                    // malformed JSON
      "[1,2]",                                       // not an object
      R"({"k":4})",                                  // missing matrix
      R"({"matrix":"m.mtx","bogus":1})",             // unknown field
      R"({"matrix":42})",                            // wrong type
      R"({"matrix":"m.mtx","k":0})",                 // k out of range
      R"({"matrix":"m.mtx","k":99999})",             // k over cap
      R"({"matrix":"m.mtx","k":1.5})",               // non-integer k
      R"({"matrix":"m.mtx","kernel":"warp_drive"})", // unknown kernel
      R"({"matrix":"m.mtx","precision":"f8"})",      // unknown precision
      R"({"matrix":"m.mtx","deadline_ms":-1})",      // negative deadline
      R"({"matrix":"m.mtx","b_seed":-1})",           // negative seed
      R"({"matrix":"","k":4})",                      // empty matrix
  };
  for (const char* line : bad) {
    EXPECT_THROW(parse_request(line, 1), ParseError) << line;
  }
}

TEST(Protocol, OverlongFieldsAreRejected) {
  const std::string long_id(kMaxIdBytes + 1, 'x');
  EXPECT_THROW(
      parse_request("{\"id\":\"" + long_id + "\",\"matrix\":\"m.mtx\"}", 1),
      ParseError);
  const std::string long_spec(kMaxMatrixSpecBytes + 1, 'y');
  EXPECT_THROW(parse_request("{\"matrix\":\"" + long_spec + "\"}", 1), ParseError);
}

TEST(Protocol, OkResponseRoundTripsThroughJsonParser) {
  Response r;
  r.id = "req \"quoted\"\n";
  r.tenant = "t";
  r.ok = true;
  r.kernel = "dcsr_c_stationary";
  r.precision = "f32";
  r.rows = 128;
  r.k = 8;
  r.c_crc32 = 0xdeadbeef;
  r.c_hex = "00112233";
  r.used_fallback = true;
  r.coalesced = 3;
  r.queue_ms = 1.5;
  r.exec_ms = 2.5;
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(to_json_line(r), v, &err)) << err;
  EXPECT_EQ(v.find("id")->str, r.id);
  EXPECT_EQ(v.find("status")->str, "ok");
  EXPECT_EQ(v.find("kernel")->str, "dcsr_c_stationary");
  EXPECT_EQ(static_cast<u32>(v.find("c_crc32")->number), 0xdeadbeefu);
  EXPECT_EQ(v.find("c_hex")->str, "00112233");
  EXPECT_TRUE(v.find("used_fallback")->boolean);
  EXPECT_EQ(v.find("coalesced")->number, 3.0);
  EXPECT_EQ(v.find("retry_after_ms"), nullptr);  // ok responses carry none
}

TEST(Protocol, ErrorResponseCarriesTypeAndOverloadHint) {
  const Request req = make_request("r9");
  const Response shed = error_response(req, OverloadError("queue full", 42));
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error_type, "OverloadError");
  EXPECT_EQ(shed.message, "queue full");
  EXPECT_EQ(shed.retry_after_ms, 42);
  obs::JsonValue v;
  std::string err;
  ASSERT_TRUE(obs::json_parse(to_json_line(shed), v, &err)) << err;
  EXPECT_EQ(v.find("status")->str, "error");
  EXPECT_EQ(v.find("error_type")->str, "OverloadError");
  EXPECT_EQ(v.find("retry_after_ms")->number, 42.0);

  const Response timed = error_response(req, TimeoutError("too slow"));
  EXPECT_EQ(timed.error_type, "TimeoutError");
  EXPECT_EQ(timed.retry_after_ms, -1);
  obs::JsonValue v2;  // fresh value: json_parse appends into the object
  ASSERT_TRUE(obs::json_parse(to_json_line(timed), v2, &err)) << err;
  EXPECT_EQ(v2.find("retry_after_ms"), nullptr);
}

TEST(Protocol, HexRoundTrips) {
  const std::vector<u8> bytes = {0x00, 0xff, 0x12, 0xab};
  const std::string hex = hex_encode(bytes.data(), bytes.size());
  EXPECT_EQ(hex, "00ff12ab");
  EXPECT_EQ(hex_decode(hex), bytes);
  EXPECT_THROW(hex_decode("abc"), ParseError);   // odd length
  EXPECT_THROW(hex_decode("zz"), ParseError);    // non-hex digit
}

TEST(Protocol, LoadMatrixSpecParsesGeneratorsAndRejectsGarbage) {
  const Csr A = load_matrix_spec("gen:uniform:64x48:0.1:3");
  EXPECT_EQ(A.rows, 64);
  EXPECT_EQ(A.cols, 48);
  EXPECT_GT(A.nnz(), 0);
  const Csr P = load_matrix_spec("gen:powerlaw_cols:32x32:0.1:1");
  EXPECT_EQ(P.rows, 32);
  for (const char* bad :
       {"gen:uniform:64x48:0.1", "gen:warp:64x48:0.1:3", "gen:uniform:64:0.1:3",
        "gen:uniform:0x48:0.1:3", "gen:uniform:64x48:1.5:3",
        "gen:uniform:axb:0.1:3", "plain-string", "m.txt",
        "gen:uniform:65536x65536:1:1", "gen:uniform:64x48:0.1:-3"}) {
    EXPECT_THROW(load_matrix_spec(bad), ParseError) << bad;
  }
}

// --------------------------------------------------------------- admission

TEST(Admission, TokenBucketRefillsDeterministically) {
  const auto t0 = Clock::now();
  TokenBucket bucket(/*rate_per_s=*/2.0, /*burst=*/2.0, t0);
  i64 retry = 0;
  EXPECT_TRUE(bucket.try_take(t0, &retry));
  EXPECT_TRUE(bucket.try_take(t0, &retry));
  EXPECT_FALSE(bucket.try_take(t0, &retry));  // burst exhausted
  EXPECT_GE(retry, 1);
  EXPECT_LE(retry, 500);  // one token accrues in <= 1/rate = 500 ms
  // Advance half a second: exactly one token back.
  const auto t1 = t0 + milliseconds(500);
  EXPECT_TRUE(bucket.try_take(t1, &retry));
  EXPECT_FALSE(bucket.try_take(t1, &retry));
  // Idle for long: capped at burst, not unbounded.
  const auto t2 = t1 + std::chrono::seconds(60);
  EXPECT_EQ(bucket.tokens_at(t2), 2.0);
}

TEST(Admission, TenantQuotasIsolateTenantsAndDisableAtRateZero) {
  TenantQuotas off(0.0, 8.0);
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(off.try_admit("anyone", Clock::now(), nullptr));
  }
  TenantQuotas quotas(1.0, 1.0);
  const auto now = Clock::now();
  i64 retry = 0;
  EXPECT_TRUE(quotas.try_admit("a", now, &retry));
  EXPECT_FALSE(quotas.try_admit("a", now, &retry));  // a's bucket empty
  EXPECT_GE(retry, 1);
  EXPECT_TRUE(quotas.try_admit("b", now, &retry));  // b unaffected
}

TEST(Admission, QueueShedsWhenFullAndDrainsAfterClose) {
  AdmissionQueue q(2);
  i64 retry = 0;
  Ticket t1, t2, t3;
  t1.req = make_request("q1");
  t2.req = make_request("q2");
  t3.req = make_request("q3");
  EXPECT_TRUE(q.try_push(std::move(t1), &retry));
  EXPECT_TRUE(q.try_push(std::move(t2), &retry));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_FALSE(q.try_push(std::move(t3), &retry));  // full → shed
  EXPECT_GE(retry, 1);
  q.close();
  Ticket t4;
  t4.req = make_request("q4");
  EXPECT_FALSE(q.try_push(std::move(t4), &retry));  // closed → shed
  // Pending tickets still drain, in order, before the closed signal.
  auto a = q.pop();
  auto b = q.pop();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->req.id, "q1");
  EXPECT_EQ(b->req.id, "q2");
  EXPECT_FALSE(q.pop().has_value());  // closed AND empty
}

TEST(Admission, ColdStartServiceHintSeedsTheEwmaAndTheShedHint) {
  // Before any batch completes, the EWMA is exactly the configured hint
  // (no magic constant, no zero cold start), and queue-full sheds quote
  // depth × hint.
  EXPECT_EQ(AdmissionQueue(4).ewma_service_ms(), 10.0);  // documented default
  AdmissionQueue q(2, /*service_hint_ms=*/200.0);
  EXPECT_EQ(q.ewma_service_ms(), 200.0);
  i64 retry = 0;
  for (const char* id : {"h1", "h2"}) {
    Ticket t;
    t.req = make_request(id);
    ASSERT_TRUE(q.try_push(std::move(t), &retry));
  }
  Ticket overflow;
  overflow.req = make_request("h3");
  EXPECT_FALSE(q.try_push(std::move(overflow), &retry));
  // Shed hint = ceil((depth + 1) × EWMA) = 3 × 200 ms, from the hint
  // alone — an operator-tuned value, not a guess.
  EXPECT_EQ(retry, 600);
  // Misconfiguration is typed, not silently clamped.
  EXPECT_THROW(AdmissionQueue(4, 0.0), ConfigError);
  EXPECT_THROW(AdmissionQueue(4, -1.0), ConfigError);
}

TEST(Admission, ServiceTimeSamplesConvergeTheEwmaAwayFromTheHint) {
  AdmissionQueue q(4, /*service_hint_ms=*/100.0);
  // EWMA update is 0.8·old + 0.2·sample.
  q.note_service_ms(50.0);
  EXPECT_DOUBLE_EQ(q.ewma_service_ms(), 0.8 * 100.0 + 0.2 * 50.0);
  for (int i = 0; i < 100; ++i) q.note_service_ms(50.0);
  EXPECT_NEAR(q.ewma_service_ms(), 50.0, 0.01);  // hint fully forgotten
  q.note_service_ms(-5.0);  // negative samples clamp to 0, never poison
  EXPECT_GE(q.ewma_service_ms(), 0.0);
}

TEST(Admission, PopMatchingClaimsInOrderAndLeavesRestQueued) {
  AdmissionQueue q(8);
  for (const char* id : {"a1", "b1", "a2", "b2", "a3"}) {
    Ticket t;
    t.req = make_request(id);
    ASSERT_TRUE(q.try_push(std::move(t), nullptr));
  }
  const auto starts_with_a = [](const Ticket& t) { return t.req.id[0] == 'a'; };
  const std::vector<Ticket> got = q.pop_matching(starts_with_a, 2);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].req.id, "a1");
  EXPECT_EQ(got[1].req.id, "a2");
  EXPECT_EQ(q.depth(), 3u);  // b1, b2, a3 untouched
  auto next = q.pop();
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->req.id, "b1");
}

// ----------------------------------------------------------------- service

TEST(Service, SingleRequestBitIdenticalToBatchExecution) {
  Request req = make_request("solo", kSpecA, 8);
  req.return_c = true;
  const BatchReference ref = batch_reference(req);

  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  SpmmServer server(opts, out.sink());
  ASSERT_TRUE(server.submit(req));
  server.start();
  server.drain();

  const Response r = out.only("solo");
  ASSERT_TRUE(r.ok) << r.error_type << ": " << r.message;
  EXPECT_EQ(r.kernel, ref.kernel);
  EXPECT_EQ(r.rows, 128);
  EXPECT_EQ(r.k, 8);
  EXPECT_EQ(r.c_crc32, ref.crc);
  EXPECT_EQ(hex_decode(r.c_hex), ref.bits);  // the bit-identity witness
  EXPECT_FALSE(r.used_fallback);
}

TEST(Service, ExplicitKernelAndPrecisionMatchBatch) {
  Request req = make_request("pinned", kSpecB, 8);
  req.kernel = KernelKind::kTiledDcsrOnline;
  req.precision = Precision::kF64;
  req.return_c = true;
  const BatchReference ref = batch_reference(req);

  Collector out;
  SpmmServer server(ServerOptions{}, out.sink());
  ASSERT_TRUE(server.submit(req));
  server.start();
  server.drain();

  const Response r = out.only("pinned");
  ASSERT_TRUE(r.ok) << r.error_type << ": " << r.message;
  EXPECT_EQ(r.kernel, "tiled_dcsr_online");
  EXPECT_EQ(r.precision, "f64");
  EXPECT_EQ(r.c_crc32, ref.crc);
  EXPECT_EQ(hex_decode(r.c_hex), ref.bits);
}

TEST(Service, CoalescedBatchBitIdenticalToSoloRuns) {
  // Three same-key requests staged before the single worker starts: it
  // pops one and claims the other two, serving all three as ONE kernel
  // execution over the concatenated B panels.  Every member must still
  // get exactly the bits a solo run would have produced.
  std::vector<Request> reqs;
  for (int i = 0; i < 3; ++i) {
    Request req = make_request("co" + std::to_string(i), kSpecA, 8);
    req.b_seed = static_cast<u64>(10 + i);  // distinct B panels
    req.return_c = true;
    reqs.push_back(req);
  }
  std::vector<BatchReference> refs;
  for (const auto& r : reqs) refs.push_back(batch_reference(r));

  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  opts.coalesce_max = 4;
  SpmmServer server(opts, out.sink());
  for (const auto& r : reqs) ASSERT_TRUE(server.submit(r));
  server.start();
  server.drain();

  for (usize i = 0; i < reqs.size(); ++i) {
    const Response r = out.only(reqs[i].id);
    ASSERT_TRUE(r.ok) << r.error_type << ": " << r.message;
    EXPECT_EQ(r.coalesced, 3) << reqs[i].id;
    EXPECT_EQ(r.c_crc32, refs[i].crc) << reqs[i].id;
    EXPECT_EQ(hex_decode(r.c_hex), refs[i].bits) << reqs[i].id;
  }
  const ServerStats s = server.stats();
  EXPECT_EQ(s.coalesced_batches, 1u);
  EXPECT_EQ(s.coalesced_requests, 3u);
  const PlanCacheStats pc = server.plan_cache_stats();
  EXPECT_EQ(pc.misses, 1u);  // one plan build served the whole batch
}

TEST(Service, CoalescingRespectsKeyAndBounds) {
  // Different matrix → different key → separate batches.
  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  SpmmServer server(opts, out.sink());
  ASSERT_TRUE(server.submit(make_request("ka", kSpecA, 8)));
  ASSERT_TRUE(server.submit(make_request("kb", kSpecB, 8)));
  server.start();
  server.drain();
  EXPECT_EQ(out.only("ka").coalesced, 1);
  EXPECT_EQ(out.only("kb").coalesced, 1);
  EXPECT_EQ(server.stats().coalesced_batches, 0u);
}

TEST(Service, OverQuotaRequestsShedWithRetryHint) {
  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  opts.tenant_rate = 0.001;  // effectively no refill during the test
  opts.tenant_burst = 1.0;
  SpmmServer server(opts, out.sink());
  const bool first = server.submit(make_request("ok-1"));
  const bool second = server.submit(make_request("shed-1"));
  EXPECT_TRUE(first);
  EXPECT_FALSE(second);
  // A different tenant still has its own bucket.
  Request other = make_request("other-tenant");
  other.tenant = "vip";
  EXPECT_TRUE(server.submit(other));
  server.start();
  server.drain();

  const Response shed = out.only("shed-1");
  EXPECT_FALSE(shed.ok);
  EXPECT_EQ(shed.error_type, "OverloadError");
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_TRUE(out.only("ok-1").ok);
  EXPECT_TRUE(out.only("other-tenant").ok);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.shed_over_quota, 1u);
  EXPECT_EQ(s.accepted, 2u);
}

TEST(Service, QueueOverflowShedsWithRetryHint) {
  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  opts.queue_capacity = 2;
  SpmmServer server(opts, out.sink());  // workers not started: queue fills
  EXPECT_TRUE(server.submit(make_request("f1")));
  EXPECT_TRUE(server.submit(make_request("f2")));
  EXPECT_FALSE(server.submit(make_request("f3")));
  const Response shed = out.only("f3");
  EXPECT_EQ(shed.error_type, "OverloadError");
  EXPECT_GE(shed.retry_after_ms, 1);
  EXPECT_EQ(server.stats().shed_queue_full, 1u);
  server.start();
  server.drain();
  EXPECT_TRUE(out.only("f1").ok);
  EXPECT_TRUE(out.only("f2").ok);
  EXPECT_EQ(out.count(), 3u);
}

TEST(Service, PastDeadlineRequestAnswersTimeoutError) {
  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  SpmmServer server(opts, out.sink());
  Request req = make_request("late");
  req.deadline_ms = 1.0;
  ASSERT_TRUE(server.submit(req));  // deadline armed at admission
  std::this_thread::sleep_for(milliseconds(20));
  server.start();  // worker first polls the already-expired token
  server.drain();
  const Response r = out.only("late");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_type, "TimeoutError");
}

TEST(Service, BadMatrixSpecAnswersTypedParseError) {
  Collector out;
  SpmmServer server(ServerOptions{}, out.sink());
  ASSERT_TRUE(server.submit(make_request("bad-spec", "gen:bogus:8x8:0.1:1")));
  server.start();
  server.drain();
  const Response r = out.only("bad-spec");
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error_type, "ParseError");
}

TEST(Service, ShutdownShedsNewAndDrainsAdmitted) {
  Collector out;
  ServerOptions opts;
  opts.workers = 2;
  SpmmServer server(opts, out.sink());
  ASSERT_TRUE(server.submit(make_request("d1")));
  ASSERT_TRUE(server.submit(make_request("d2")));
  server.begin_shutdown();
  EXPECT_FALSE(server.submit(make_request("rejected")));  // after shutdown
  const Response shed = out.only("rejected");
  EXPECT_EQ(shed.error_type, "OverloadError");
  server.start();  // workers drain the two admitted tickets, then exit
  server.drain();
  EXPECT_TRUE(out.only("d1").ok);
  EXPECT_TRUE(out.only("d2").ok);
  EXPECT_EQ(out.count(), 3u);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.completed_ok, 2u);
  EXPECT_EQ(s.shed_shutdown, 1u);
}

TEST(Service, RepeatRequestsHitThePlanCache) {
  Collector out;
  ServerOptions opts;
  opts.workers = 1;
  opts.coalesce_max = 1;  // force sequential solo executions
  SpmmServer server(opts, out.sink());
  server.start();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server.submit(make_request("rep" + std::to_string(i))));
  }
  server.drain();
  const PlanCacheStats pc = server.plan_cache_stats();
  EXPECT_EQ(pc.misses, 1u);
  EXPECT_EQ(pc.hits, 3u);
}

TEST(Service, IsolatedWorkersAnswerBitIdenticalToInProcess) {
  // isolate_workers moves execution into supervised child processes;
  // the result half of every response must not notice.
  std::vector<Request> reqs;
  reqs.push_back(make_request("iso-f32", kSpecA, 8));
  Request bf16 = make_request("iso-bf16", kSpecB, 8);
  bf16.precision = Precision::kBf16;
  reqs.push_back(bf16);
  Request f64 = make_request("iso-f64", kSpecB, 16);
  f64.kernel = KernelKind::kDcsrCStationary;
  f64.precision = Precision::kF64;
  f64.return_c = true;
  reqs.push_back(f64);

  const auto serve = [&](int isolate_workers, const std::vector<Request>& batch) {
    Collector out;
    ServerOptions opts;
    opts.workers = 1;
    opts.isolate_workers = isolate_workers;
    SpmmServer server(opts, out.sink());
    server.start();
    for (const auto& r : batch) EXPECT_TRUE(server.submit(r)) << r.id;
    server.drain();
    std::map<std::string, Response> by_id;
    for (const auto& r : batch) by_id[r.id] = out.only(r.id);
    return by_id;
  };
  auto in_process = serve(0, reqs);
  auto isolated = serve(2, reqs);
  for (const auto& req : reqs) {
    const Response& a = in_process[req.id];
    const Response& b = isolated[req.id];
    ASSERT_TRUE(a.ok) << req.id << ": " << a.error_type << ": " << a.message;
    ASSERT_TRUE(b.ok) << req.id << ": " << b.error_type << ": " << b.message;
    EXPECT_EQ(b.kernel, a.kernel) << req.id;
    EXPECT_EQ(b.precision, a.precision) << req.id;
    EXPECT_EQ(b.rows, a.rows) << req.id;
    EXPECT_EQ(b.k, a.k) << req.id;
    EXPECT_EQ(b.used_fallback, a.used_fallback) << req.id;
    EXPECT_EQ(b.c_crc32, a.c_crc32) << req.id;
    EXPECT_EQ(b.c_hex, a.c_hex) << req.id;
  }
  EXPECT_EQ(isolated["iso-f64"].kernel, "dcsr_c_stationary");
  EXPECT_FALSE(isolated["iso-f64"].c_hex.empty());

  // Typed failures cross the process boundary with their type intact.
  Request late = make_request("iso-late");
  late.deadline_ms = 0.001;
  auto failures =
      serve(2, {make_request("iso-bad-spec", "gen:bogus:8x8:0.1:1"), late});
  EXPECT_FALSE(failures["iso-bad-spec"].ok);
  EXPECT_EQ(failures["iso-bad-spec"].error_type, "ParseError");
  EXPECT_FALSE(failures["iso-late"].ok);
  EXPECT_EQ(failures["iso-late"].error_type, "TimeoutError");
}

TEST(Service, F64ResultIsStoredOnceAndDigestedAlikeByServiceAndSuite) {
  // One f64 run, three readers.  The result holds C once, at f64; the
  // service's c_crc32 and the suite's c_crc both digest result_bits.
  // The suite draws row 0's B from Rng(0xb0b0), so a request with that
  // b_seed on the same generator spec is the same run.
  const index_t K = 8;
  suite::RowWork work;
  work.specs = {MatrixSpec{.name = "uniform_128", .family = MatrixFamily::kUniform,
                           .rows = 128, .cols = 128, .density = 0.05, .seed = 1}};
  work.cfg = evaluation_config(128, K);
  work.cfg.precision = Precision::kF64;
  work.K = K;
  work.want_crc = true;
  const suite::Completion planned = work.plan(0);
  ASSERT_NE(planned.inputs, nullptr);
  const suite::Completion arm = work.arm(0, SuiteRow::kArmOnlineB, *planned.inputs);
  ASSERT_EQ(arm.error, nullptr) << arm.error_desc;

  const SpmmResult r = SpmmExecutor(work.cfg).execute(
      KernelKind::kTiledDcsrOnline, *planned.inputs->plan, planned.inputs->B);
  EXPECT_TRUE(r.C.data().empty());
  const auto bits = result_bits(r);
  ASSERT_EQ(bits.size(), usize{128} * K * sizeof(double));
  const u32 crc = crc32(bits.data(), bits.size());
  EXPECT_EQ(arm.c_crc, crc);

  Request req = make_request("f64", kSpecA, K);
  req.kernel = KernelKind::kTiledDcsrOnline;
  req.precision = Precision::kF64;
  req.b_seed = 0xb0b0;
  Collector out;
  SpmmServer server(ServerOptions{}, out.sink());
  ASSERT_TRUE(server.submit(req));
  server.start();
  server.drain();
  const Response resp = out.only("f64");
  ASSERT_TRUE(resp.ok) << resp.error_type << ": " << resp.message;
  EXPECT_EQ(resp.c_crc32, crc);
}

TEST(Service, PlanTtlPicksUpARewrittenMatrixFile) {
  // A .bin served, rewritten on disk, and served again after the TTL:
  // the second answer must be a fresh daemon's answer for the new file,
  // in process and from an isolated worker's own caches alike.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("nmdt_ttl_" + std::to_string(::getpid()) + ".bin"))
          .string();
  const Csr before = gen_uniform(128, 128, 0.05, 1);
  const Csr after = gen_uniform(128, 128, 0.05, 2);
  const Request req = make_request("r", path.c_str(), 8);

  save_csr_file(path, after);
  u32 fresh_crc = 0;
  {
    Collector out;
    SpmmServer fresh(ServerOptions{}, out.sink());
    ASSERT_TRUE(fresh.submit(req));
    fresh.start();
    fresh.drain();
    const Response r = out.only("r");
    ASSERT_TRUE(r.ok) << r.error_type << ": " << r.message;
    fresh_crc = r.c_crc32;
  }

  for (const int isolate_workers : {0, 1}) {
    SCOPED_TRACE("isolate_workers " + std::to_string(isolate_workers));
    save_csr_file(path, before);
    Collector out;
    ServerOptions opts;
    opts.workers = 1;
    opts.plan_ttl_ms = 5.0;
    opts.isolate_workers = isolate_workers;
    SpmmServer server(opts, out.sink());
    server.start();
    Request first = req;
    first.id = "first";
    ASSERT_TRUE(server.submit(first));
    const auto give_up = Clock::now() + std::chrono::seconds(60);
    while (out.count() < 1 && Clock::now() < give_up) {
      std::this_thread::sleep_for(milliseconds(2));
    }
    ASSERT_EQ(out.count(), 1u);

    save_csr_file(path, after);
    std::this_thread::sleep_for(milliseconds(50));
    Request second = req;
    second.id = "second";
    ASSERT_TRUE(server.submit(second));
    server.drain();

    const Response a = out.only("first");
    const Response b = out.only("second");
    ASSERT_TRUE(a.ok) << a.error_type << ": " << a.message;
    ASSERT_TRUE(b.ok) << b.error_type << ": " << b.message;
    EXPECT_NE(a.c_crc32, fresh_crc);
    EXPECT_EQ(b.c_crc32, fresh_crc);
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------- chaos

TEST(ServiceChaos, BurstFaultsAndShutdownNeverLoseAResponse) {
  // The acceptance sweep: overload burst × fault injection × shutdown
  // mid-flight × jobs {1, 4}.  Invariants: the process never crashes,
  // every submitted request gets exactly one response, ok responses
  // that did not degrade are bit-identical to batch mode, and shed
  // requests carry a typed OverloadError.
  struct Case {
    fault::FaultSite site;
    int jobs;
  };
  const Case cases[] = {
      {fault::FaultSite::kTileVal, 1},
      {fault::FaultSite::kTileVal, 4},
      {fault::FaultSite::kCacheEntry, 1},
      {fault::FaultSite::kCacheEntry, 4},
  };

  // Reference CRCs computed fault-free, outside the FaultScope.
  std::map<std::string, u32> ref_crc;
  for (const char* spec : {kSpecA, kSpecB}) {
    for (index_t k : {index_t{8}, index_t{16}}) {
      Request probe = make_request("probe", spec, k);
      ref_crc[std::string(spec) + "#" + std::to_string(k)] =
          batch_reference(probe).crc;
    }
  }

  for (const Case& c : cases) {
    fault::FaultPlan plan;
    plan.site = c.site;
    plan.rate = 0.05;
    plan.seed = 1234;
    fault::FaultScope scope(plan);

    Collector out;
    ServerOptions opts;
    opts.workers = 2;
    opts.jobs = c.jobs;
    opts.queue_capacity = 8;  // small enough that the burst sheds
    SpmmServer server(opts, out.sink());
    server.start();

    usize submitted = 0;
    std::map<std::string, std::string> key_of;  // id → expected crc key
    const char* specs[] = {kSpecA, kSpecB};
    for (int i = 0; i < 24; ++i) {
      const char* spec = specs[i % 2];
      const index_t k = (i % 4 < 2) ? index_t{8} : index_t{16};
      Request req = make_request(std::string("c").append(std::to_string(i)), spec, k);
      if (i % 8 == 7) req.matrix = "gen:bogus:1x1:0.1:1";  // typed failure
      ++submitted;
      if (server.submit(req) && req.matrix[4] != 'b') {
        key_of[req.id] = std::string(spec) + "#" + std::to_string(k);
      }
      if (i == 11) server.begin_shutdown();  // mid-flight shutdown
    }
    server.drain();

    ASSERT_EQ(out.count(), submitted) << "lost or duplicated a response";
    std::lock_guard<std::mutex> lock(out.mu);
    std::map<std::string, int> seen;
    for (const auto& r : out.all) ++seen[r.id];
    for (const auto& [id, n] : seen) {
      EXPECT_EQ(n, 1) << "duplicate response for " << id;
    }
    for (const auto& r : out.all) {
      if (r.ok) {
        if (!r.used_fallback && key_of.count(r.id) != 0) {
          EXPECT_EQ(r.c_crc32, ref_crc[key_of[r.id]])
              << r.id << " diverged from batch mode (site "
              << fault::site_name(c.site) << ", jobs " << c.jobs << ")";
        }
      } else {
        EXPECT_TRUE(r.error_type == "OverloadError" ||
                    r.error_type == "ParseError" || r.error_type == "FaultError")
            << r.id << ": " << r.error_type << ": " << r.message;
        if (r.error_type == "OverloadError" && r.message.find("quota") == std::string::npos &&
            r.message.find("shutting down") == std::string::npos) {
          EXPECT_GE(r.retry_after_ms, 1) << r.id;
        }
      }
    }
    const ServerStats s = server.stats();
    EXPECT_EQ(s.submitted, submitted);
    EXPECT_EQ(s.accepted + s.shed_queue_full + s.shed_over_quota + s.shed_shutdown,
              submitted);
    EXPECT_EQ(s.completed_ok + s.completed_error, s.accepted);
  }
}

TEST(ServiceChaos, CancelAllAnswersEveryInFlightRequest) {
  // Escalated shutdown (second SIGTERM): cancel_all() must still leave
  // exactly one response per accepted request — CancelledError or a
  // result, never silence.
  Collector out;
  ServerOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 64;
  SpmmServer server(opts, out.sink());
  usize submitted = 0;
  for (int i = 0; i < 12; ++i) {
    Request req = make_request(std::string("x").append(std::to_string(i)), kSpecA, 16);
    if (server.submit(req)) ++submitted;
  }
  server.start();
  server.cancel_all();
  server.begin_shutdown();
  server.drain();
  usize answered = 0;
  {
    std::lock_guard<std::mutex> lock(out.mu);
    for (const auto& r : out.all) {
      ++answered;
      if (!r.ok) {
        EXPECT_TRUE(r.error_type == "CancelledError" ||
                    r.error_type == "TimeoutError")
            << r.error_type << ": " << r.message;
      }
    }
  }
  EXPECT_EQ(answered, submitted);
  const ServerStats s = server.stats();
  EXPECT_EQ(s.completed_ok + s.completed_error, s.accepted);
}

}  // namespace
}  // namespace nmdt::service
