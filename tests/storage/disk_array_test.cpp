// Tests for the FC-attached disk array.
#include <gtest/gtest.h>

#include "sim/parallel.hpp"
#include "storage/disk_array.hpp"

namespace redbud::storage {
namespace {

using redbud::sim::Process;
using redbud::sim::SimDomain;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

ArrayParams small_array() {
  ArrayParams p;
  p.ndisks = 2;
  p.disk.total_blocks = 1 << 20;
  return p;
}

// The array in its own partition of a domain; test bodies run
// in a second partition, as a client host's would.
struct Rig {
  explicit Rig(ArrayParams p = small_array())
      : issuer(domain.add_partition()),
        array(domain, domain.add_partition(), p) {
    array.start();
  }
  void run() {
    domain.run_until(SimTime::seconds(10));
    domain.check_failures();
  }

  SimDomain domain{SimTime::micros(40)};
  Simulation& issuer;
  DiskArray array;
};

TEST(DiskArray, WriteThenPeekSeesTokens) {
  Rig rig;
  bool done = false;
  rig.issuer.spawn([](Simulation& s, DiskArray& a, bool& out) -> Process {
    std::vector<ContentToken> t{11, 22};
    co_await a.write(s, PhysAddr{0, 100}, 2, std::move(t));
    out = true;
  }(rig.issuer, rig.array, done));
  rig.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(rig.array.peek({0, 100}, 2), (std::vector<ContentToken>{11, 22}));
}

TEST(DiskArray, DevicesAreIndependent) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 100}, 1, std::move(t2));
  }(rig.issuer, rig.array));
  rig.run();
  EXPECT_EQ(rig.array.peek({0, 100}, 1)[0], 1u);
  EXPECT_EQ(rig.array.peek({1, 100}, 1)[0], 2u);
}

TEST(DiskArray, ReadCompletesAfterDiskAndFc) {
  Rig rig;
  SimTime write_done = SimTime::zero();
  SimTime read_done = SimTime::zero();
  std::vector<ContentToken> got;
  rig.issuer.spawn([](Simulation& s, DiskArray& a, SimTime& wdone,
                      SimTime& rdone,
                      std::vector<ContentToken>& out) -> Process {
    std::vector<ContentToken> t{1, 2, 3, 4};
    co_await a.write(s, PhysAddr{0, 10}, 4, std::move(t));
    wdone = s.now();
    out = co_await a.read(s, PhysAddr{0, 10}, 4);
    rdone = s.now();
  }(rig.issuer, rig.array, write_done, read_done, got));
  rig.run();
  // The read pays the request hop, the device and the FC transfer back.
  EXPECT_GE(read_done, write_done + 2 * small_array().fc_latency);
  EXPECT_EQ(got, (std::vector<ContentToken>{1, 2, 3, 4}));
}

TEST(DiskArray, WriteAckCrossesTheFabricAfterDurability) {
  // The durable ack is a message: the issuer sees completion one FC hop
  // after the device write, never before the blocks are on the platter.
  Rig rig;
  SimTime acked = SimTime::zero();
  rig.issuer.spawn([](Simulation& s, DiskArray& a, SimTime& out) -> Process {
    std::vector<ContentToken> t{5};
    co_await a.write(s, PhysAddr{0, 0}, 1, std::move(t));
    out = s.now();
  }(rig.issuer, rig.array, acked));
  rig.run();
  const Disk& d = rig.array.disk(0);
  EXPECT_EQ(d.ios_serviced(), 1u);
  // Request hop + transfer + service, then the ack hop.
  EXPECT_GE(acked, d.busy_time() + 2 * small_array().fc_latency);
}

TEST(DiskArray, FcPipeCarriesPayloadBytes) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    co_await a.write(s, PhysAddr{0, 0}, 8, std::vector<ContentToken>(8, 9));
  }(rig.issuer, rig.array));
  rig.run();
  EXPECT_EQ(rig.array.fc_pipe().meter().bytes(), 8 * kBlockSize);
}

TEST(DiskArray, AggregateStatsSumDevices) {
  Rig rig;
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    std::vector<ContentToken> t1{1}, t2{2};
    co_await a.write(s, PhysAddr{0, 100}, 1, std::move(t1));
    co_await a.write(s, PhysAddr{1, 200}, 1, std::move(t2));
  }(rig.issuer, rig.array));
  rig.run();
  EXPECT_EQ(rig.array.total_submitted(), 2u);
  EXPECT_EQ(rig.array.total_dispatched(), 2u);
  rig.array.reset_stats();
  EXPECT_EQ(rig.array.total_submitted(), 0u);
}

TEST(DiskArray, ConcurrentAdjacentWritesMergeOnOneDevice) {
  Rig rig;
  // A far-away blocker parks the device busy, then adjacent writes pile up.
  rig.issuer.spawn([](Simulation& s, DiskArray& a) -> Process {
    (void)a.write(s, PhysAddr{0, 900'000}, 1, std::vector<ContentToken>{1});
    co_await s.delay(SimTime::millis(1));
    for (int i = 0; i < 8; ++i) {
      (void)a.write(s, {0, BlockNo(1000 + i * 4)}, 4,
                    std::vector<ContentToken>(4, ContentToken(i + 1)));
    }
  }(rig.issuer, rig.array));
  rig.run();
  EXPECT_GT(rig.array.total_merged(), 0u);
  EXPECT_GT(rig.array.merge_ratio(), 0.0);
}

}  // namespace
}  // namespace redbud::storage
