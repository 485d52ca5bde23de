// Tests for the FUSIONP/1 wrapper protocol: message round trips, server
// behaviour, and RemoteSource equivalence with in-process wrappers —
// including the key invariant that metered costs are identical whether a
// source is called directly or across the serialized boundary.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <string_view>
#include <thread>

#include "cost/oracle_cost_model.h"
#include "exec/executor.h"
#include "optimizer/sja.h"
#include "protocol/message.h"
#include "protocol/remote_source.h"
#include "protocol/socket.h"
#include "protocol/source_server.h"
#include "protocol/tcp_server.h"
#include "relational/reference_evaluator.h"
#include "source/simulated_source.h"
#include "workload/dmv.h"
#include "workload/synthetic.h"

namespace fusion {
namespace {

// ---------------------------------------------------------------------------
// Value / message serialization round trips
// ---------------------------------------------------------------------------

TEST(ProtocolValueTest, RoundTripsEveryType) {
  for (const Value& v :
       {Value::Null(), Value(int64_t{-42}), Value(3.141592653589793),
        Value("plain"), Value("with\nnewline"), Value("back\\slash"),
        Value("")}) {
    const auto back = ParseSerializedValue(SerializeValue(v));
    ASSERT_TRUE(back.ok()) << SerializeValue(v);
    EXPECT_EQ(*back, v) << SerializeValue(v);
    if (!v.is_null()) {
      EXPECT_EQ(back->type(), v.type());
    }
  }
}

TEST(ProtocolValueTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSerializedValue("x:1").ok());
  EXPECT_FALSE(ParseSerializedValue("i:abc").ok());
  EXPECT_FALSE(ParseSerializedValue("d:").ok());
  EXPECT_FALSE(ParseSerializedValue("s").ok());
  EXPECT_FALSE(ParseSerializedValue("s:bad\\q").ok());
}

TEST(ProtocolMessageTest, RequestRoundTrip) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSemiJoin;
  request.merge_attribute = "L";
  request.condition_text = "V = 'it''s' AND D >= 1990";
  request.bindings = {Value("J55"), Value(int64_t{7})};
  const auto back = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->kind, SourceRequest::Kind::kSemiJoin);
  EXPECT_EQ(back->merge_attribute, "L");
  EXPECT_EQ(back->condition_text, request.condition_text);
  ASSERT_EQ(back->bindings.size(), 2u);
  EXPECT_EQ(back->bindings[0], Value("J55"));
  EXPECT_EQ(back->bindings[1], Value(int64_t{7}));
}

TEST(ProtocolMessageTest, ResponseRoundTrip) {
  SourceResponse response;
  response.items = {Value("J55"), Value("T21")};
  response.relation_lines = {"L:string,V:string", "J55,dui"};
  response.name = "R1";
  response.semijoin_support = "bindings";
  response.supports_load = false;
  response.charges.push_back({"sq", 0, 2, 3, 15.5});
  const auto back = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_TRUE(back->ok);
  EXPECT_EQ(back->items.size(), 2u);
  EXPECT_EQ(back->relation_lines, response.relation_lines);
  EXPECT_EQ(back->name, "R1");
  EXPECT_EQ(back->semijoin_support, "bindings");
  EXPECT_FALSE(back->supports_load);
  ASSERT_EQ(back->charges.size(), 1u);
  EXPECT_EQ(back->charges[0].kind, "sq");
  EXPECT_DOUBLE_EQ(back->charges[0].cost, 15.5);
}

TEST(ProtocolMessageTest, ErrorResponseRoundTrip) {
  SourceResponse response;
  response.ok = false;
  response.error_code = StatusCode::kUnsupported;
  response.error_message = "no semijoins\nhere";
  const auto back = ParseResponse(SerializeResponse(response));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error_code, StatusCode::kUnsupported);
  EXPECT_EQ(back->error_message, response.error_message);
}

TEST(ProtocolMessageTest, RejectsMalformedFrames) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("HTTP/1.1 GET\nend\n").ok());
  EXPECT_FALSE(ParseRequest("FUSIONP/1 NOPE\nend\n").ok());
  EXPECT_FALSE(ParseRequest("FUSIONP/1 SELECT\nmerge L\n").ok());  // no end
  EXPECT_FALSE(ParseResponse("FUSIONP/1 MAYBE\nend\n").ok());
  EXPECT_FALSE(ParseResponse("FUSIONP/1 OK\ncharge sq 1\nend\n").ok());
  // Malformed values of *known* fields still fail...
  EXPECT_FALSE(ParseRequest("FUSIONP/1 SELECT\ntrace x y\nend\n").ok());
  // Metering numbers are strict: no junk, no sign, no overflow.
  EXPECT_FALSE(
      ParseResponse("FUSIONP/1 OK\ncharge sq x 7y -3 cheap\nend\n").ok());
  EXPECT_FALSE(ParseResponse("FUSIONP/1 OK\ncharge sq 0 1 2 lots\nend\n").ok());
  EXPECT_FALSE(
      ParseResponse("FUSIONP/1 OK\ncharge sq 0 99999999999999999999999 2 1\n"
                    "end\n")
          .ok());
  EXPECT_FALSE(ParseRequest("FUSIONP/1 SELECT\ntrace 1 2x\nend\n").ok());
  // Flags are strictly yes or no.
  EXPECT_FALSE(ParseResponse("FUSIONP/1 OK\nload maybe\nend\n").ok());
}

TEST(ProtocolMessageTest, IgnoresUnknownFieldsForForwardCompat) {
  // ...but unknown fields are skipped, so an older peer survives a newer
  // peer's extensions (the way trace/features were added) instead of
  // erroring on every new line.
  const auto request = ParseRequest("FUSIONP/1 SELECT\nwat x\nend\n");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->kind, SourceRequest::Kind::kSelect);
  const auto response =
      ParseResponse("FUSIONP/1 OK\nname dmv\nshiny new-field\nend\n");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->name, "dmv");
}

TEST(ProtocolMessageTest, TraceContextRoundTrip) {
  SourceRequest request;
  request.kind = SourceRequest::Kind::kSelect;
  request.condition_text = "V = 'x'";
  request.merge_attribute = "L";
  request.trace_id = 0xdeadbeefcafef00dULL;
  request.parent_span = 42;
  const auto back = ParseRequest(SerializeRequest(request));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->trace_id, request.trace_id);
  EXPECT_EQ(back->parent_span, request.parent_span);
  // A request without a context serializes no trace line at all.
  request.trace_id = 0;
  EXPECT_EQ(SerializeRequest(request).find("trace"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Server + RemoteSource end to end (in-process transport)
// ---------------------------------------------------------------------------

/// Builds a connected (server, remote-wrapper) pair over one Figure 1 DMV
/// source.
struct Endpoint {
  std::shared_ptr<SourceServer> server;
  std::unique_ptr<RemoteSource> remote;
};

Endpoint MakeEndpoint() {
  auto instance = BuildDmvFigure1();
  EXPECT_TRUE(instance.ok());
  // Copy the first simulated source into a server.
  const SimulatedSource* sim = instance->simulated[0];
  auto server = std::make_shared<SourceServer>(
      std::make_unique<SimulatedSource>(*sim));
  auto remote = RemoteSource::Connect(
      [server](const std::string& request) { return server->Handle(request); });
  EXPECT_TRUE(remote.ok()) << remote.status().ToString();
  return {server, std::move(remote).value()};
}

TEST(RemoteSourceTest, HandshakeCarriesMetadata) {
  Endpoint ep = MakeEndpoint();
  EXPECT_EQ(ep.remote->name(), "R1");
  EXPECT_TRUE(ep.remote->schema().HasColumn("L"));
  EXPECT_TRUE(ep.remote->schema().HasColumn("V"));
  EXPECT_EQ(ep.remote->capabilities().semijoin, SemijoinSupport::kNative);
}

TEST(RemoteSourceTest, SelectMatchesDirectCallIncludingCosts) {
  Endpoint ep = MakeEndpoint();
  const SimulatedSource& direct = *ep.server->impl().AsSimulated();
  SimulatedSource local(direct);

  const Condition cond = Condition::Eq("V", Value("dui"));
  CostLedger remote_ledger, local_ledger;
  const auto via_protocol = ep.remote->Select(cond, "L", &remote_ledger);
  const auto via_direct = local.Select(cond, "L", &local_ledger);
  ASSERT_TRUE(via_protocol.ok()) << via_protocol.status().ToString();
  ASSERT_TRUE(via_direct.ok());
  EXPECT_EQ(*via_protocol, *via_direct);
  EXPECT_DOUBLE_EQ(remote_ledger.total(), local_ledger.total());
  EXPECT_EQ(remote_ledger.num_queries(), local_ledger.num_queries());
}

TEST(RemoteSourceTest, SemiJoinAndLoadAndFetch) {
  Endpoint ep = MakeEndpoint();
  ItemSet candidates({Value("J55"), Value("T21"), Value("ZZ")});
  CostLedger ledger;
  const auto semi = ep.remote->SemiJoin(Condition::Eq("V", Value("sp")), "L",
                                        candidates, &ledger);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  EXPECT_EQ(semi->ToString(), "{'T21'}");

  const auto loaded = ep.remote->Load(&ledger);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 3u);
  EXPECT_EQ(loaded->schema(), ep.remote->schema());

  const auto records = ep.remote->FetchRecords("L", candidates, &ledger);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);  // J55 + T21 rows in R1
  EXPECT_GT(ledger.total(), 0.0);
}

TEST(RemoteSourceTest, ServerErrorsMapBackToStatus) {
  // A wrapper without native semijoin support refuses SEMIJOIN; the error
  // crosses the protocol as ERROR and comes back as kUnsupported.
  auto instance = BuildDmvFigure1();
  ASSERT_TRUE(instance.ok());
  Capabilities caps;
  caps.semijoin = SemijoinSupport::kPassedBindingsOnly;
  auto server = std::make_shared<SourceServer>(
      std::make_unique<SimulatedSource>(
          "R1", instance->simulated[0]->relation(), caps,
          instance->simulated[0]->network()));
  auto remote = RemoteSource::Connect(
      [server](const std::string& r) { return server->Handle(r); });
  ASSERT_TRUE(remote.ok());
  ItemSet candidates({Value("J55")});
  const auto semi = (*remote)->SemiJoin(Condition::True(), "L", candidates,
                                        nullptr);
  ASSERT_FALSE(semi.ok());
  EXPECT_EQ(semi.status().code(), StatusCode::kUnsupported);
}

TEST(RemoteSourceTest, GarbageTransportFailsCleanly) {
  auto remote = RemoteSource::Connect(
      [](const std::string&) { return std::string("NOISE"); });
  EXPECT_FALSE(remote.ok());
}

// ---------------------------------------------------------------------------
// MessageSocket: frame assembly
// ---------------------------------------------------------------------------

/// A connected stream pair: frames are received on `reader`; the test
/// writes raw bytes to `writer_fd` and closes it when done, so a missed
/// terminator ends in "closed mid-message" instead of a hang.
struct StreamPair {
  MessageSocket reader;
  int writer_fd = -1;
};

StreamPair MakeStreamPair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {MessageSocket(fds[0]), fds[1]};
}

void WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    bytes.remove_prefix(static_cast<size_t>(n));
  }
}

TEST(MessageSocketTest, ReceivesAMultiMegabyteFrameSentInPieces) {
  // 8 MiB of item lines, then a second small frame: both must come back
  // byte-exact, the first with no trace of the second.
  std::string big = "FUSIONP/1 OK\n";
  for (int i = 0; big.size() < (8u << 20); ++i) {
    big += "item s:value-" + std::to_string(i) + "\n";
  }
  big += "end\n";
  const std::string small = "FUSIONP/1 OK\nname tail\nend\n";
  StreamPair pair = MakeStreamPair();
  std::thread writer([&] {
    const std::string bytes = big + small;
    // Uneven pieces, so frame and read boundaries never line up.
    const size_t pieces[] = {1, 4093, 7, 65536, 3, 100003};
    size_t at = 0;
    for (size_t i = 0; at < bytes.size(); ++i) {
      const size_t n = std::min(pieces[i % std::size(pieces)],
                                bytes.size() - at);
      WriteAll(pair.writer_fd, std::string_view(bytes).substr(at, n));
      at += n;
    }
    ::close(pair.writer_fd);
  });
  const auto first = pair.reader.Receive();
  const auto second = pair.reader.Receive();
  writer.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_TRUE(*first == big) << "frame of " << first->size() << " bytes";
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, small);
  EXPECT_EQ(pair.reader.Receive().status().code(), StatusCode::kUnavailable);
}

TEST(MessageSocketTest, FindsATerminatorSplitAcrossReads) {
  // The resumed terminator search must look back over the bytes that ended
  // the previous read: split "\nend\n" at each of its inner offsets.
  const std::string frame = "FUSIONP/1 OK\nname split\nend\n";
  for (size_t split = 1; split < 5; ++split) {
    SCOPED_TRACE("split " + std::to_string(split));
    StreamPair pair = MakeStreamPair();
    const size_t cut = frame.size() - 5 + split;
    std::thread writer([&] {
      WriteAll(pair.writer_fd, std::string_view(frame).substr(0, cut));
      // Let the reader take the first piece alone.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      WriteAll(pair.writer_fd, std::string_view(frame).substr(cut));
      ::close(pair.writer_fd);
    });
    const auto received = pair.reader.Receive();
    writer.join();
    ASSERT_TRUE(received.ok()) << received.status().ToString();
    EXPECT_EQ(*received, frame);
  }
}

// ---------------------------------------------------------------------------
// TcpServer: bounded connection state
// ---------------------------------------------------------------------------

bool WaitFor(const std::function<bool()>& done) {
  for (int i = 0; i < 5000 && !done(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return done();
}

TEST(TcpServerTest, ReapsFinishedConnectionsOneAtATime) {
  // An echo server serving many short connections, strictly one after
  // another: the live gauge returns to 0 after each, and finished
  // connection threads are joined rather than kept until Stop().
  TcpServer server([](const std::string& frame) { return frame; },
                   TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.port());
  const std::string frame = "FUSIONP/1 HELLO\nend\n";
  for (int i = 0; i < 64; ++i) {
    {
      auto socket = DialTcp(endpoint);
      ASSERT_TRUE(socket.ok()) << socket.status().ToString();
      ASSERT_TRUE(socket->Send(frame).ok());
      const auto echoed = socket->Receive();
      ASSERT_TRUE(echoed.ok()) << echoed.status().ToString();
      EXPECT_EQ(*echoed, frame);
      EXPECT_EQ(server.live_connections(), 1u);
      EXPECT_LE(server.retained_threads(), server.live_connections() + 2);
    }
    ASSERT_TRUE(WaitFor([&] { return server.live_connections() == 0; }))
        << "connection " << i << " never deregistered";
    EXPECT_LE(server.retained_threads(), 2u) << "after connection " << i;
  }
  server.Stop();
  EXPECT_EQ(server.live_connections(), 0u);
  EXPECT_EQ(server.retained_threads(), 0u);
}

TEST(TcpServerTest, EmptyReplyHangsUpAndStopResetsLiveConnections) {
  TcpServer server([](const std::string&) { return std::string(); },
                   TcpServer::Options());
  ASSERT_TRUE(server.Start().ok());
  auto hung_up = DialTcp("127.0.0.1:" + std::to_string(server.port()));
  ASSERT_TRUE(hung_up.ok());
  ASSERT_TRUE(hung_up->Send("FUSIONP/1 HELLO\nend\n").ok());
  const auto reply = hung_up->Receive();
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kUnavailable);

  // An idle connection blocks its serve thread in recv; Stop() must still
  // return, having reset it.
  auto idle = DialTcp("127.0.0.1:" + std::to_string(server.port()));
  ASSERT_TRUE(idle.ok());
  ASSERT_TRUE(WaitFor([&] { return server.live_connections() == 1; }));
  server.Stop();
  EXPECT_EQ(server.retained_threads(), 0u);
  EXPECT_FALSE(idle->Receive().ok());
}

// ---------------------------------------------------------------------------
// Whole federation behind the protocol
// ---------------------------------------------------------------------------

TEST(RemoteFederationTest, PlansExecuteIdenticallyOverTheWire) {
  SyntheticSpec spec;
  spec.universe_size = 300;
  spec.num_sources = 3;
  spec.num_conditions = 2;
  spec.selectivity = {0.1, 0.3};
  spec.frac_native_semijoin = 1.0;
  spec.seed = 23;
  auto instance = GenerateSynthetic(spec);
  ASSERT_TRUE(instance.ok());
  const FusionQuery query = instance->query;
  const ItemSet expected =
      *ReferenceFusionAnswer(RelationsOf(*instance), "M", query.conditions());

  // Optimize against the local instance.
  const auto model = OracleCostModel::Create(instance->simulated, query);
  ASSERT_TRUE(model.ok());
  const auto sja = OptimizeSja(*model);
  ASSERT_TRUE(sja.ok());
  const auto local_report =
      ExecutePlan(sja->plan, instance->catalog, query);
  ASSERT_TRUE(local_report.ok());

  // Rebuild the catalog with every source behind a protocol boundary.
  SourceCatalog remote_catalog;
  std::vector<std::shared_ptr<SourceServer>> servers;
  for (const SimulatedSource* sim : instance->simulated) {
    servers.push_back(std::make_shared<SourceServer>(
        std::make_unique<SimulatedSource>(*sim)));
    auto server = servers.back();
    auto remote = RemoteSource::Connect(
        [server](const std::string& r) { return server->Handle(r); });
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(remote_catalog.Add(std::move(remote).value()).ok());
  }

  const auto remote_report = ExecutePlan(sja->plan, remote_catalog, query);
  ASSERT_TRUE(remote_report.ok()) << remote_report.status().ToString();
  EXPECT_EQ(remote_report->answer, expected);
  EXPECT_EQ(remote_report->answer, local_report->answer);
  EXPECT_NEAR(remote_report->ledger.total(), local_report->ledger.total(),
              1e-9);
}

}  // namespace
}  // namespace fusion
