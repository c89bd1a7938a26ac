// Tests for RPC endpoints: request/reply matching, compound sizing, load
// signals.
#include <gtest/gtest.h>

#include "net/rpc.hpp"

namespace redbud::net {
namespace {

using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

struct Rig {
  Simulation sim;
  Network net;
  NodeId client_node, server_node;
  RpcEndpoint client, server;

  Rig()
      : net(sim, NetworkParams{}),
        client_node(net.add_node()),
        server_node(net.add_node()),
        client(sim, net, client_node),
        server(sim, net, server_node) {}

  // Echo server: replies to every stat request with a fixed size.
  void spawn_echo_server(SimTime service_time = SimTime::micros(50)) {
    sim.spawn([](Simulation& s, RpcEndpoint& srv, SimTime svc) -> Process {
      for (;;) {
        IncomingRpc rpc = co_await srv.incoming().recv();
        co_await s.delay(svc);
        StatResp resp;
        resp.size_bytes = 4242;
        srv.reply(rpc, resp);
      }
    }(sim, server, service_time));
  }
};

TEST(Rpc, CallRoundTripDeliversResponse) {
  Rig rig;
  rig.spawn_echo_server();
  std::uint64_t got = 0;
  rig.sim.spawn([](Simulation&, Rig& r, std::uint64_t& out) -> Process {
    auto fut = r.client.call(r.server, StatReq{7});
    auto resp = co_await fut;
    out = std::get<StatResp>(resp).size_bytes;
  }(rig.sim, rig, got));
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(got, 4242u);
  EXPECT_EQ(rig.client.calls_sent(), 1u);
  EXPECT_EQ(rig.server.calls_received(), 1u);
}

TEST(Rpc, ConcurrentCallsMatchById) {
  Rig rig;
  // Server replies out of order: echoes the file id, but delays the first
  // request longer.
  rig.sim.spawn([](Simulation& s, RpcEndpoint& srv) -> Process {
    IncomingRpc first = co_await srv.incoming().recv();
    IncomingRpc second = co_await srv.incoming().recv();
    StatResp r2;
    r2.size_bytes = std::get<StatReq>(second.body).file;
    srv.reply(second, r2);
    co_await s.delay(SimTime::millis(5));
    StatResp r1;
    r1.size_bytes = std::get<StatReq>(first.body).file;
    srv.reply(first, r1);
  }(rig.sim, rig.server));
  std::uint64_t a = 0, b = 0;
  rig.sim.spawn([](Simulation&, Rig& r, std::uint64_t& out) -> Process {
    auto fut = r.client.call(r.server, StatReq{111});
    auto resp = co_await fut;
    out = std::get<StatResp>(resp).size_bytes;
  }(rig.sim, rig, a));
  rig.sim.spawn([](Simulation&, Rig& r, std::uint64_t& out) -> Process {
    auto fut = r.client.call(r.server, StatReq{222});
    auto resp = co_await fut;
    out = std::get<StatResp>(resp).size_bytes;
  }(rig.sim, rig, b));
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(a, 111u);
  EXPECT_EQ(b, 222u);
}

TEST(Rpc, RttReflectsServiceTime) {
  Rig rig;
  rig.spawn_echo_server(SimTime::millis(10));
  rig.sim.spawn([](Simulation&, Rig& r) -> Process {
    auto fut = r.client.call(r.server, StatReq{1});
    (void)co_await fut;
  }(rig.sim, rig));
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_GE(rig.client.mean_rtt(), SimTime::millis(10));
  EXPECT_LT(rig.client.mean_rtt(), SimTime::millis(20));
}

TEST(Rpc, IncomingDepthVisibleToServer) {
  Rig rig;
  // No server loop: requests pile up.
  for (int i = 0; i < 5; ++i) {
    (void)rig.client.call(rig.server, StatReq{std::uint64_t(i)});
  }
  rig.sim.run_until(SimTime::seconds(1));
  EXPECT_EQ(rig.server.incoming_depth(), 5u);
}

TEST(WireSize, CompoundCommitGrowsWithEntriesAndExtents) {
  CommitReq one;
  one.entries.push_back(CommitEntry{1, {Extent{0, 8, {0, 100}}}, 32768});
  CommitReq three = one;
  three.entries.push_back(CommitEntry{2, {Extent{0, 8, {0, 200}}}, 32768});
  three.entries.push_back(CommitEntry{3, {Extent{0, 8, {0, 300}}}, 32768});
  const auto s1 = wire_size(RequestBody{one});
  const auto s3 = wire_size(RequestBody{three});
  EXPECT_GT(s3, s1);
  // Compounding three into one RPC is cheaper than three separate RPCs
  // once headers are included.
  EXPECT_LT(s3 + kRpcHeaderBytes, 3 * (s1 + kRpcHeaderBytes));
}

TEST(WireSize, NfsWriteCarriesPayload) {
  NfsWriteReq w;
  w.nbytes = 32768;
  EXPECT_GT(wire_size(RequestBody{w}), 32768u);
  NfsReadResp r;
  r.tokens.assign(8, 1);
  EXPECT_GT(wire_size(ResponseBody{r}), 8 * storage::kBlockSize - 1);
}

TEST(WireSize, OpNames) {
  EXPECT_STREQ(op_name(RequestBody{CreateReq{}}), "create");
  EXPECT_STREQ(op_name(RequestBody{LookupReq{}}), "lookup");
  EXPECT_STREQ(op_name(RequestBody{LayoutGetReq{}}), "layout_get");
  EXPECT_STREQ(op_name(RequestBody{CommitReq{}}), "commit");
  EXPECT_STREQ(op_name(RequestBody{DelegateReq{}}), "delegate");
  EXPECT_STREQ(op_name(RequestBody{DelegateReturnReq{}}), "delegate_return");
  EXPECT_STREQ(op_name(RequestBody{RemoveReq{}}), "remove");
  EXPECT_STREQ(op_name(RequestBody{StatReq{}}), "stat");
  EXPECT_STREQ(op_name(RequestBody{NfsWriteReq{}}), "nfs_write");
  EXPECT_STREQ(op_name(RequestBody{NfsCommitReq{}}), "nfs_commit");
  EXPECT_STREQ(op_name(RequestBody{NfsReadReq{}}), "nfs_read");
  EXPECT_STREQ(op_name(RequestBody{PvfsIoReq{}}), "pvfs_io");
}

}  // namespace
}  // namespace redbud::net
