// Byte-exact goldens for both wire dialects. Round-trip tests only prove a
// peer can read its own output; these pin the serialized bytes of every
// request verb and response shape — each optional field set and unset — so
// a change to the codec shows up as a diff against what older peers already
// speak. Every golden is also parsed back and re-serialized to itself.
#include <gtest/gtest.h>

#include <string>

#include "common/status.h"
#include "common/value.h"
#include "protocol/client_protocol.h"
#include "protocol/message.h"

namespace fusion {
namespace {

void ExpectSourceRequestGolden(const SourceRequest& request,
                               const std::string& golden) {
  const std::string wire = SerializeRequest(request);
  EXPECT_EQ(wire, golden);
  const auto parsed = ParseRequest(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeRequest(*parsed), golden);
}

void ExpectSourceResponseGolden(const SourceResponse& response,
                                const std::string& golden) {
  const std::string wire = SerializeResponse(response);
  EXPECT_EQ(wire, golden);
  const auto parsed = ParseResponse(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeResponse(*parsed), golden);
}

void ExpectClientRequestGolden(const ClientRequest& request,
                               const std::string& golden) {
  const std::string wire = SerializeClientRequest(request);
  EXPECT_EQ(wire, golden);
  const auto parsed = ParseClientRequest(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeClientRequest(*parsed), golden);
}

void ExpectClientResponseGolden(const ClientResponse& response,
                                const std::string& golden) {
  const std::string wire = SerializeClientResponse(response);
  EXPECT_EQ(wire, golden);
  const auto parsed = ParseClientResponse(golden);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(SerializeClientResponse(*parsed), golden);
}

// ---------------------------------------------------------------------------
// FUSIONP/1 (mediator -> source wrapper)
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, SourceValues) {
  EXPECT_EQ(SerializeValue(Value::Null()), "null");
  EXPECT_EQ(SerializeValue(Value(int64_t{-42})), "i:-42");
  EXPECT_EQ(SerializeValue(Value(0.1)), "d:0.10000000000000001");
  EXPECT_EQ(SerializeValue(Value(2.5)), "d:2.5");
  EXPECT_EQ(SerializeValue(Value("a\\b\nc")), "s:a\\\\b\\nc");
  EXPECT_EQ(SerializeValue(Value("")), "s:");
}

TEST(WireGoldenTest, SourceHelloRequest) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kHello;
  ExpectSourceRequestGolden(request, "FUSIONP/1 HELLO\nend\n");
}

TEST(WireGoldenTest, SourceSelectRequest) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSelect;
  request.merge_attribute = "L";
  request.condition_text = "V = 'a\\b'\nOR V = 'c'";
  ExpectSourceRequestGolden(request,
                            "FUSIONP/1 SELECT\n"
                            "merge L\n"
                            "cond V = 'a\\\\b'\\nOR V = 'c'\n"
                            "end\n");
  request.trace_id = 18446744073709551615ull;
  request.parent_span = 7;
  ExpectSourceRequestGolden(request,
                            "FUSIONP/1 SELECT\n"
                            "merge L\n"
                            "cond V = 'a\\\\b'\\nOR V = 'c'\n"
                            "trace 18446744073709551615 7\n"
                            "end\n");
  // A trace without a parent span still ships both numbers.
  request.parent_span = 0;
  ExpectSourceRequestGolden(request,
                            "FUSIONP/1 SELECT\n"
                            "merge L\n"
                            "cond V = 'a\\\\b'\\nOR V = 'c'\n"
                            "trace 18446744073709551615 0\n"
                            "end\n");
  // A parent span without a trace id is not a context: nothing ships.
  request.trace_id = 0;
  request.parent_span = 9;
  EXPECT_EQ(SerializeRequest(request),
            "FUSIONP/1 SELECT\n"
            "merge L\n"
            "cond V = 'a\\\\b'\\nOR V = 'c'\n"
            "end\n");
}

TEST(WireGoldenTest, SourceSemiJoinRequest) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'sp'";
  request.bindings = {Value("J55"), Value(int64_t{7}), Value(2.5),
                      Value::Null()};
  ExpectSourceRequestGolden(request,
                            "FUSIONP/1 SEMIJOIN\n"
                            "merge L\n"
                            "cond V = 'sp'\n"
                            "bind s:J55\n"
                            "bind i:7\n"
                            "bind d:2.5\n"
                            "bind null\n"
                            "end\n");
  request.bindings.clear();
  ExpectSourceRequestGolden(request,
                            "FUSIONP/1 SEMIJOIN\n"
                            "merge L\n"
                            "cond V = 'sp'\n"
                            "end\n");
}

TEST(WireGoldenTest, SourceLoadAndFetchRequests) {
  SourceRequest load;
  load.kind = SourceRequest::Kind::kLoad;
  ExpectSourceRequestGolden(load, "FUSIONP/1 LOAD\nend\n");
  load.trace_id = 3;
  load.parent_span = 4;
  ExpectSourceRequestGolden(load, "FUSIONP/1 LOAD\ntrace 3 4\nend\n");

  SourceRequest fetch;
  fetch.kind = SourceRequest::Kind::kFetch;
  fetch.merge_attribute = "L";
  fetch.bindings = {Value("J55"), Value("T21")};
  ExpectSourceRequestGolden(fetch,
                            "FUSIONP/1 FETCH\n"
                            "merge L\n"
                            "bind s:J55\n"
                            "bind s:T21\n"
                            "end\n");
}

TEST(WireGoldenTest, SourceResponses) {
  // The smallest OK: `load` is the one field always written.
  SourceResponse bare;
  ExpectSourceResponseGolden(bare, "FUSIONP/1 OK\nload yes\nend\n");

  SourceResponse error;
  error.ok = false;
  error.error_code = StatusCode::kUnavailable;
  error.error_message = "down\nhard";
  ExpectSourceResponseGolden(error,
                             "FUSIONP/1 ERROR\n"
                             "error Unavailable down\\nhard\n"
                             "load yes\n"
                             "end\n");

  SourceResponse hello;
  hello.name = "R1";
  hello.semijoin_support = "native";
  hello.supports_load = false;
  hello.features = {"trace", "later"};
  hello.relation_lines = {"L:string,V:string"};
  ExpectSourceResponseGolden(hello,
                             "FUSIONP/1 OK\n"
                             "relation-line L:string,V:string\n"
                             "name R1\n"
                             "semijoin native\n"
                             "load no\n"
                             "features trace,later\n"
                             "end\n");

  SourceResponse answer;
  answer.items = {Value("J55"), Value(int64_t{-1})};
  answer.relation_lines = {"a\\b", "x\ny"};
  answer.charges.push_back({"sq", 0, 2, 3, 15.5});
  answer.charges.push_back({"sjq", 4, 1, 4294967296ull, 0.1});
  ExpectSourceResponseGolden(answer,
                             "FUSIONP/1 OK\n"
                             "item s:J55\n"
                             "item i:-1\n"
                             "relation-line a\\\\b\n"
                             "relation-line x\\ny\n"
                             "load yes\n"
                             "charge sq 0 2 3 15.5\n"
                             "charge sjq 4 1 4294967296 "
                             "0.10000000000000001\n"
                             "end\n");
}

// ---------------------------------------------------------------------------
// FUSIONQ/1 (client -> mediator service / router)
// ---------------------------------------------------------------------------

TEST(WireGoldenTest, ClientHelloRequest) {
  ClientRequest hello;
  hello.kind = ClientRequest::Kind::kHello;
  ExpectClientRequestGolden(hello, "FUSIONQ/1 HELLO\nend\n");
  hello.client_id = "ten ant\n1";
  hello.features = {"trace", "stats", "idempotency"};
  ExpectClientRequestGolden(hello,
                            "FUSIONQ/1 HELLO\n"
                            "client ten ant\\n1\n"
                            "features trace,stats,idempotency\n"
                            "end\n");
  // Fields of other verbs never ride on HELLO.
  hello.ticket = 5;
  hello.wait = false;
  hello.explain = true;
  hello.trace_id = 1;
  hello.request_id = 2;
  hello.version = 3;
  EXPECT_EQ(SerializeClientRequest(hello),
            "FUSIONQ/1 HELLO\n"
            "client ten ant\\n1\n"
            "features trace,stats,idempotency\n"
            "end\n");
}

TEST(WireGoldenTest, ClientSubmitRequest) {
  ClientRequest submit;
  submit.kind = ClientRequest::Kind::kSubmit;
  submit.client_id = "a";
  submit.sql = "SELECT u1.L FROM U u1\nWHERE u1.V = 'x\\y'";
  ExpectClientRequestGolden(submit,
                            "FUSIONQ/1 SUBMIT\n"
                            "client a\n"
                            "sql SELECT u1.L FROM U u1\\nWHERE u1.V = "
                            "'x\\\\y'\n"
                            "end\n");
  submit.wait = false;
  submit.explain = true;
  submit.trace_id = 11;
  submit.parent_span = 12;
  submit.request_id = 18446744073709551615ull;
  submit.features = {"trace"};  // HELLO-only: never written on SUBMIT
  ExpectClientRequestGolden(submit,
                            "FUSIONQ/1 SUBMIT\n"
                            "client a\n"
                            "sql SELECT u1.L FROM U u1\\nWHERE u1.V = "
                            "'x\\\\y'\n"
                            "wait no\n"
                            "explain yes\n"
                            "trace-id 11\n"
                            "parent-span 12\n"
                            "request-id 18446744073709551615\n"
                            "end\n");
  // parent-span only travels under a trace-id.
  submit.parent_span = 0;
  ExpectClientRequestGolden(submit,
                            "FUSIONQ/1 SUBMIT\n"
                            "client a\n"
                            "sql SELECT u1.L FROM U u1\\nWHERE u1.V = "
                            "'x\\\\y'\n"
                            "wait no\n"
                            "explain yes\n"
                            "trace-id 11\n"
                            "request-id 18446744073709551615\n"
                            "end\n");
  submit.trace_id = 0;
  submit.parent_span = 12;
  submit.request_id = 0;
  ExpectClientRequestGolden(submit,
                            "FUSIONQ/1 SUBMIT\n"
                            "client a\n"
                            "sql SELECT u1.L FROM U u1\\nWHERE u1.V = "
                            "'x\\\\y'\n"
                            "wait no\n"
                            "explain yes\n"
                            "end\n");
}

TEST(WireGoldenTest, ClientTicketRequests) {
  ClientRequest status;
  status.kind = ClientRequest::Kind::kStatus;
  // The ticket line is always written for STATUS and CANCEL, even as 0.
  ExpectClientRequestGolden(status, "FUSIONQ/1 STATUS\nticket 0\nend\n");
  status.client_id = "c";
  status.ticket = 18446744073709551615ull;
  ExpectClientRequestGolden(status,
                            "FUSIONQ/1 STATUS\n"
                            "client c\n"
                            "ticket 18446744073709551615\n"
                            "end\n");
  ClientRequest cancel;
  cancel.kind = ClientRequest::Kind::kCancel;
  cancel.ticket = 42;
  ExpectClientRequestGolden(cancel, "FUSIONQ/1 CANCEL\nticket 42\nend\n");
}

TEST(WireGoldenTest, ClientStatsAndInvalidateRequests) {
  ClientRequest stats;
  stats.kind = ClientRequest::Kind::kStats;
  ExpectClientRequestGolden(stats, "FUSIONQ/1 STATS\nend\n");
  stats.client_id = "ops";
  ExpectClientRequestGolden(stats, "FUSIONQ/1 STATS\nclient ops\nend\n");

  ClientRequest invalidate;
  invalidate.kind = ClientRequest::Kind::kInvalidate;
  // The source line is always written for INVALIDATE, even empty.
  ExpectClientRequestGolden(invalidate,
                            "FUSIONQ/1 INVALIDATE\nsource \nend\n");
  invalidate.client_id = "feed";
  invalidate.source = "R\n1";
  invalidate.version = 18446744073709551615ull;
  ExpectClientRequestGolden(invalidate,
                            "FUSIONQ/1 INVALIDATE\n"
                            "client feed\n"
                            "source R\\n1\n"
                            "version 18446744073709551615\n"
                            "end\n");
}

TEST(WireGoldenTest, ClientBareAndErrorResponses) {
  ExpectClientResponseGolden(ClientResponse{}, "FUSIONQ/1 OK\nend\n");
  ExpectClientResponseGolden(
      ClientErrorResponse(Status::NotFound("unknown ticket\n5")),
      "FUSIONQ/1 ERROR\nerror NotFound unknown ticket\\n5\nend\n");
  ClientResponse empty_message;
  empty_message.ok = false;
  empty_message.error_code = StatusCode::kInternal;
  ExpectClientResponseGolden(empty_message,
                             "FUSIONQ/1 ERROR\nerror Internal \nend\n");
}

TEST(WireGoldenTest, ClientHelloAndTicketResponses) {
  ClientResponse hello;
  hello.server = "fusion qd\n2";
  hello.features = {"trace", "stats", "explain", "idempotency", "sharding"};
  ExpectClientResponseGolden(hello,
                             "FUSIONQ/1 OK\n"
                             "server fusion qd\\n2\n"
                             "features trace,stats,explain,idempotency,"
                             "sharding\n"
                             "end\n");

  ClientResponse queued;
  queued.ticket = 18446744073709551615ull;
  queued.state = "queued";
  ExpectClientResponseGolden(queued,
                             "FUSIONQ/1 OK\n"
                             "ticket 18446744073709551615\n"
                             "state queued\n"
                             "end\n");
  ClientResponse stale;
  stale.state = "stale";
  ExpectClientResponseGolden(stale, "FUSIONQ/1 OK\nstate stale\nend\n");
}

TEST(WireGoldenTest, ClientResultResponses) {
  ClientResponse result;
  result.ticket = 9;
  result.state = "done";
  result.items = {Value("J55"), Value(int64_t{3}), Value(0.1)};
  result.cost = 88.74;
  result.source_queries = 6;
  result.cache_hits = 1;
  result.cache_misses = 5;
  result.items_sent = 18446744073709551615ull;
  result.items_received = 12;
  ExpectClientResponseGolden(result,
                             "FUSIONQ/1 OK\n"
                             "ticket 9\n"
                             "state done\n"
                             "item s:J55\n"
                             "item i:3\n"
                             "item d:0.10000000000000001\n"
                             "cost 88.739999999999995\n"
                             "source-queries 6\n"
                             "cache-hits 1\n"
                             "cache-misses 5\n"
                             "items-sent 18446744073709551615\n"
                             "items-received 12\n"
                             "end\n");
  // Optional trailers: containment, calibration, degraded, explain.
  result.cache_containment_hits = 2;
  result.calibration_cost = 1.5;
  result.complete = false;
  result.explain_lines = {"plan SJA", "  op\\1"};
  ExpectClientResponseGolden(result,
                             "FUSIONQ/1 OK\n"
                             "ticket 9\n"
                             "state done\n"
                             "item s:J55\n"
                             "item i:3\n"
                             "item d:0.10000000000000001\n"
                             "cost 88.739999999999995\n"
                             "source-queries 6\n"
                             "cache-hits 1\n"
                             "cache-misses 5\n"
                             "items-sent 18446744073709551615\n"
                             "items-received 12\n"
                             "cache-containment 2\n"
                             "calibration-cost 1.5\n"
                             "complete no\n"
                             "explain plan SJA\n"
                             "explain   op\\\\1\n"
                             "end\n");
  // The metering block is written when anything was metered or answered:
  // a free, empty answer that issued a source query still reports it...
  ClientResponse probe;
  probe.source_queries = 1;
  ExpectClientResponseGolden(probe,
                             "FUSIONQ/1 OK\n"
                             "cost 0\n"
                             "source-queries 1\n"
                             "cache-hits 0\n"
                             "cache-misses 0\n"
                             "items-sent 0\n"
                             "items-received 0\n"
                             "end\n");
  // ...and a cost alone triggers it too.
  ClientResponse cost_only;
  cost_only.cost = 2.0;
  ExpectClientResponseGolden(cost_only,
                             "FUSIONQ/1 OK\n"
                             "cost 2\n"
                             "source-queries 0\n"
                             "cache-hits 0\n"
                             "cache-misses 0\n"
                             "items-sent 0\n"
                             "items-received 0\n"
                             "end\n");
  // Counters without any trigger stay off the wire.
  ClientResponse silent;
  silent.cache_hits = 3;
  silent.items_sent = 4;
  EXPECT_EQ(SerializeClientResponse(silent), "FUSIONQ/1 OK\nend\n");
}

TEST(WireGoldenTest, ClientStatsResponse) {
  ClientResponse stats;
  stats.server = "fusionrd";
  stats.stats_lines = {"# fusionq-stats schema 1", "counter x 3"};
  ExpectClientResponseGolden(stats,
                             "FUSIONQ/1 OK\n"
                             "server fusionrd\n"
                             "stats # fusionq-stats schema 1\n"
                             "stats counter x 3\n"
                             "end\n");
}

}  // namespace
}  // namespace fusion
