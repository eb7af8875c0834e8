// Lifecycle tests for the network front-end: real sockets on loopback,
// streaming byte-identity against the in-process engine, mid-query
// cancellation (CANCEL frame and plain disconnect), graceful drain under
// load, per-tenant quota shedding, and QUERY frame validation.

#include "src/server/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "src/engine/engine.h"
#include "src/graph/builtin_graphs.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/graph/graph_io.h"
#include "src/regex/parser.h"
#include "src/server/client.h"

namespace gqzoo {
namespace server {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

Client ConnectTo(const GraphServer& server) {
  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.error().message();
  return std::move(client).value();
}

/// Polls `predicate` until it holds or `deadline_ms` elapses.
bool WaitFor(const std::function<bool()>& predicate, int deadline_ms) {
  const auto deadline = steady_clock::now() + milliseconds(deadline_ms);
  while (steady_clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(milliseconds(5));
  }
  return predicate();
}

TEST(ServerTest, StreamedRowsAreByteIdenticalToInProcessExecution) {
  // Cycle(60) with (a)+ yields 3600 pairs — several 4 KiB chunks, so the
  // identity actually crosses chunk boundaries.
  QueryEngine engine(ToPropertyGraph(Cycle(60)));
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  ClientQueryOptions options;
  options.language = "rpq";
  options.max_display_rows = 100000;
  std::string streamed;
  size_t chunks = 0;
  Result<DoneStatus> done =
      client.Query("(a)+", options, [&](std::string_view chunk) {
        streamed += chunk;
        ++chunks;
        return true;
      });
  ASSERT_TRUE(done.ok()) << done.error().message();
  ASSERT_TRUE(done.value().ok) << done.value().message;
  EXPECT_GT(chunks, 1u) << "expected a multi-chunk stream";

  QueryRequest request;
  request.language = QueryLanguage::kRpq;
  request.text = "(a)+";
  request.max_display_rows = 100000;
  Result<QueryResponse> local = engine.Execute(request);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(streamed, local.value().text);
  EXPECT_EQ(done.value().num_rows, local.value().num_rows);
  EXPECT_GT(engine.metrics().server_stream_chunks.value(), 1u);
}

TEST(ServerTest, SessionDefaultsFromHelloApply) {
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  // Session default language gql: a bare query must parse as CoreGQL.
  ASSERT_TRUE(client.Hello("tenant-a", "gql").ok());
  std::string streamed;
  Result<DoneStatus> done = client.Query(
      "MATCH (x:Person)-[:worksFor]->(y) RETURN x, y", {},
      [&](std::string_view chunk) {
        streamed += chunk;
        return true;
      });
  ASSERT_TRUE(done.ok()) << done.error().message();
  ASSERT_TRUE(done.value().ok) << done.value().message;
  EXPECT_NE(streamed.find("x | y"), std::string::npos);

  // An unknown per-request language is an invalid argument, not a hang.
  ClientQueryOptions bad;
  bad.language = "sparql";
  Result<DoneStatus> rejected = client.Query("whatever", bad);
  ASSERT_TRUE(rejected.ok());
  EXPECT_FALSE(rejected.value().ok);
  EXPECT_EQ(rejected.value().code, ErrorCode::kInvalidArgument);
}

TEST(ServerTest, CancelFrameTripsRunningQuery) {
  // A big all-pairs evaluation; the CANCEL lands while it runs and the
  // engine's cooperative cancellation trips it.
  QueryEngine engine(ToPropertyGraph(Cycle(2000)));
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());
  std::thread canceller([&client] {
    std::this_thread::sleep_for(milliseconds(30));
    (void)client.SendCancel();
  });
  ClientQueryOptions options;
  options.language = "rpq";
  Result<DoneStatus> done = client.Query("(a)+", options);
  canceller.join();
  ASSERT_TRUE(done.ok()) << done.error().message();
  EXPECT_FALSE(done.value().ok);
  EXPECT_EQ(done.value().code, ErrorCode::kCancelled)
      << done.value().message;
}

TEST(ServerTest, ClientDisconnectCancelsRunningQuery) {
  QueryEngine engine(ToPropertyGraph(Cycle(2000)));
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  {
    Client client = ConnectTo(server);
    ASSERT_TRUE(client.Hello("tenant-a").ok());
    ClientQueryOptions options;
    options.language = "rpq";
    ASSERT_TRUE(client.StartQuery("(a)+", options).ok());
    std::this_thread::sleep_for(milliseconds(30));
    client.Close();  // vanish mid-query, without reading a single frame
  }

  // The connection thread observes the EOF and trips the engine's
  // external cancel; the query must die as kCancelled, not run to
  // completion against a dead socket.
  EXPECT_TRUE(WaitFor(
      [&engine] { return engine.metrics().cancelled.value() >= 1; }, 30000))
      << "query was not cancelled after client disconnect";

  // The server stays healthy for new sessions afterwards.
  Client again = ConnectTo(server);
  ASSERT_TRUE(again.Hello("tenant-a").ok());
  ClientQueryOptions small;
  small.language = "rpq";
  Result<DoneStatus> done = again.Query("a", small);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().ok);
}

TEST(ServerTest, DrainUnderLoadShedsWithUnavailable) {
  QueryEngine engine(ToPropertyGraph(Cycle(2000)));
  ServerOptions options;
  options.drain_deadline = milliseconds(50);
  GraphServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());
  Result<DoneStatus> done = Error("not finished");
  std::thread runner([&client, &done] {
    ClientQueryOptions slow;
    slow.language = "rpq";
    done = client.Query("(a)+", slow);
  });
  // Wait until the query is actually in flight before draining.
  ASSERT_TRUE(WaitFor(
      [&engine] { return engine.metrics().server_queries.value() >= 1; },
      30000));
  std::this_thread::sleep_for(milliseconds(20));

  size_t sheds = server.Shutdown();
  runner.join();

  // The in-flight query outlived the 50ms drain deadline, so the drain
  // cancelled it and its DONE reports kUnavailable — the client is told
  // to retry elsewhere, it is never left hanging.
  EXPECT_EQ(sheds, 1u);
  ASSERT_TRUE(done.ok()) << done.error().message();
  EXPECT_FALSE(done.value().ok);
  EXPECT_EQ(done.value().code, ErrorCode::kUnavailable)
      << done.value().message;
  EXPECT_GE(engine.metrics().server_drain_shed.value(), 1u);

  // Draining twice is a no-op, and new connections are refused.
  EXPECT_EQ(server.Shutdown(), 0u);
  EXPECT_FALSE(Client::Connect("127.0.0.1", server.port()).ok());
}

TEST(ServerTest, TenantQuotaExhaustionShedsWithOverloaded) {
  QueryEngine engine(Figure3Graph());
  ServerOptions options;
  options.quota.queries_per_sec = 1;
  options.quota.burst = 2;
  GraphServer server(&engine, options);
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("small-tenant").ok());
  ClientQueryOptions query;
  query.language = "rpq";
  for (int i = 0; i < 2; ++i) {
    Result<DoneStatus> done = client.Query("worksFor", query);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done.value().ok) << done.value().message;
  }
  // The burst is spent and 1 qps cannot refill a whole token this fast.
  Result<DoneStatus> shed = client.Query("worksFor", query);
  ASSERT_TRUE(shed.ok());
  EXPECT_FALSE(shed.value().ok);
  EXPECT_EQ(shed.value().code, ErrorCode::kOverloaded) << shed.value().message;
  EXPECT_GE(engine.metrics().tenant_quota_shed.value(), 1u);

  // Quotas are per tenant: a different tenant has its own full bucket.
  Client other = ConnectTo(server);
  ASSERT_TRUE(other.Hello("big-tenant").ok());
  Result<DoneStatus> done = other.Query("worksFor", query);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().ok);

  // Both tenants show up in the stats report with their counts.
  Result<std::string> stats = other.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats.value().find("small-tenant"), std::string::npos);
  EXPECT_NE(stats.value().find("big-tenant"), std::string::npos);
}

TEST(ServerTest, MutationsStreamThroughTheWritePathAndAck) {
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());
  Result<DoneStatus> done = client.Mutate(
      {"add-node carol Person", "add-edge e100 carol carol knows"});
  ASSERT_TRUE(done.ok()) << done.error().message();
  ASSERT_TRUE(done.value().ok) << done.value().message;
  EXPECT_EQ(done.value().num_rows, 2u);

  // The write is visible to a query on the same session right away.
  ClientQueryOptions query;
  query.language = "rpq";
  std::string streamed;
  Result<DoneStatus> read =
      client.Query("knows", query, [&](std::string_view chunk) {
        streamed += chunk;
        return true;
      });
  ASSERT_TRUE(read.ok());
  ASSERT_TRUE(read.value().ok);
  EXPECT_NE(streamed.find("carol"), std::string::npos);

  // A malformed mutation line fails the batch with a parse error.
  Result<DoneStatus> bad = client.Mutate({"add-node"});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad.value().ok);
}

/// A QUERY frame for an rpq `text`, encoded by hand so a test can set
/// fields the client never sends.
std::string QueryPayload(const std::string& text, uint8_t flags,
                         uint8_t paths_mode) {
  std::string payload;
  AppendString(&payload, "rpq");
  AppendString(&payload, text);
  AppendU32(&payload, 0);  // timeout_ms
  AppendU32(&payload, 0);  // max_display_rows
  AppendU8(&payload, flags);
  AppendString(&payload, "");  // paths_from
  AppendString(&payload, "");  // paths_to
  AppendU8(&payload, paths_mode);
  AppendU32(&payload, 0);  // k_shortest
  return payload;
}

/// Sends one raw QUERY frame and reads frames up to its DONE.
DoneStatus SendRawQuery(Client* client, const std::string& payload) {
  EXPECT_TRUE(WriteFrame(client->fd(), FrameType::kQuery, payload).ok());
  for (;;) {
    Result<Frame> frame = ReadFrame(client->fd());
    EXPECT_TRUE(frame.ok());
    if (!frame.ok()) return DoneStatus{};
    if (frame.value().type != FrameType::kDone) continue;
    Result<DoneStatus> done = DecodeDone(frame.value().payload);
    EXPECT_TRUE(done.ok());
    return done.ok() ? done.value() : DoneStatus{};
  }
}

TEST(ServerTest, QueryFrameWithUnknownFlagBitIsMalformed) {
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  EXPECT_TRUE(SendRawQuery(&client, QueryPayload("Transfer", 0x01, 0)).ok);
  for (uint8_t flags : {0x02, 0x04, 0x03, 0x80}) {
    DoneStatus done = SendRawQuery(&client, QueryPayload("Transfer", flags, 0));
    EXPECT_FALSE(done.ok) << int{flags};
    EXPECT_EQ(done.code, ErrorCode::kInvalidArgument) << int{flags};
    EXPECT_NE(done.message.find("malformed QUERY payload"), std::string::npos)
        << done.message;
  }
  // The session survives a rejected frame.
  EXPECT_TRUE(SendRawQuery(&client, QueryPayload("Transfer", 0, 0)).ok);
}

TEST(ServerTest, QueryFrameWithPathsModeAboveThreeIsMalformed) {
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  ClientQueryOptions options;
  options.language = "paths";
  options.paths_from = "a2";
  options.paths_to = "a4";
  options.paths_mode = 3;  // trail
  Result<DoneStatus> trail = client.Query("Transfer+", options);
  ASSERT_TRUE(trail.ok());
  EXPECT_TRUE(trail.value().ok) << trail.value().message;
  for (uint8_t mode : {4, 255}) {
    options.paths_mode = mode;
    Result<DoneStatus> done = client.Query("Transfer+", options);
    ASSERT_TRUE(done.ok());
    EXPECT_FALSE(done.value().ok) << int{mode};
    EXPECT_EQ(done.value().code, ErrorCode::kInvalidArgument);
    EXPECT_NE(done.value().message.find("malformed QUERY payload"),
              std::string::npos)
        << done.value().message;
  }
}

TEST(ServerTest, RegexDepthLimitHoldsOverTheWire) {
  // A concatenation of n atoms is a syntax tree n deep.
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  std::string at_limit = "Transfer";
  for (size_t i = 1; i < kMaxRegexDepth; ++i) at_limit += " Transfer";
  ClientQueryOptions options;
  options.language = "rpq";
  Result<DoneStatus> ok = client.Query(at_limit, options);
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok.value().ok) << ok.value().message;

  Result<DoneStatus> deep = client.Query(at_limit + " Transfer", options);
  ASSERT_TRUE(deep.ok());
  EXPECT_FALSE(deep.value().ok);
  EXPECT_EQ(deep.value().code, ErrorCode::kParse) << deep.value().message;
}

TEST(ServerTest, PatternDepthLimitHoldsOverTheWire) {
  // 100000 nested groups used to overflow the CoreGQL parser's stack and
  // take the server down; now the request fails and the server answers
  // the next one.
  QueryEngine engine(Figure3Graph());
  GraphServer server(&engine, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client = ConnectTo(server);
  ASSERT_TRUE(client.Hello("tenant-a").ok());

  ClientQueryOptions options;
  options.language = "gqlgroup";
  const std::string deep =
      std::string(100000, '(') + "(x)" + std::string(100000, ')');
  Result<DoneStatus> done = client.Query(deep, options);
  ASSERT_TRUE(done.ok());
  EXPECT_FALSE(done.value().ok);
  EXPECT_EQ(done.value().code, ErrorCode::kParse) << done.value().message;

  Result<DoneStatus> next = client.Query("(x:Account)", options);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next.value().ok) << next.value().message;
}

}  // namespace
}  // namespace server
}  // namespace gqzoo
