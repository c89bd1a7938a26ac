// Watch the adaptive machinery react to a bursty workload: the commit
// daemon pool grows with the queue (ThreadNums = rho * QueueLen) and the
// compound degree rises while the MDS is busy, then both relax.
//
//   $ ./build/examples/adaptive_tuning
#include <cstdio>

#include "core/cluster.hpp"

using namespace redbud;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

namespace {

Process one_writer(Simulation& sim, client::ClientFs& fs, int base,
                   int nfiles) {
  (void)sim;
  for (int i = 0; i < nfiles; ++i) {
    auto cfut = fs.create(net::kRootDir, "burst_" + std::to_string(base + i));
    const auto id = co_await cfut;
    auto wfut = fs.write(id, 0, 8 * 1024);
    (void)co_await wfut;
  }
}

Process bursty_writer(Simulation& sim, client::ClientFs& fs, int bursts,
                      int files_per_burst) {
  constexpr int kWriters = 24;  // many application threads per burst
  int seq = 0;
  for (int b = 0; b < bursts; ++b) {
    std::vector<redbud::sim::ProcRef> writers;
    for (int wtr = 0; wtr < kWriters; ++wtr) {
      writers.push_back(sim.spawn(
          one_writer(sim, fs, seq, files_per_burst / kWriters)));
      seq += files_per_burst / kWriters;
    }
    for (auto& w : writers) co_await w.join();
    // Quiet period between bursts: the pool should shrink back.
    co_await sim.delay(SimTime::millis(900));
  }
}

Process sampler(Simulation& sim, client::ClientFs& fs) {
  std::printf("%8s %12s %14s %16s %16s\n", "time", "queue len",
              "commit threads", "compound degree", "commits acked");
  for (int i = 0; i < 40; ++i) {
    std::printf("%6.1f s %12zu %14u %16u %16llu\n", sim.now().to_seconds(),
                fs.commit_queue().size(), fs.commit_pool().live_threads(),
                fs.compound().degree(),
                static_cast<unsigned long long>(
                    fs.commit_queue().committed_total()));
    co_await sim.delay(SimTime::millis(200));
  }
}

}  // namespace

int main() {
  ClusterParams params;
  params.nclients = 1;
  params.client.mode = client::CommitMode::kDelayed;
  params.client.pool.max_threads = 9;
  params.client.pool.max_queue_len = 200;  // small queue: visible scaling
  params.client.compound.adaptive = true;
  // One slow MDS daemon so the compound controller sees real pressure.
  params.mds.ndaemons = 1;

  Cluster cluster(params);
  cluster.start();
  Simulation& host = cluster.client_sim(0);
  host.spawn(bursty_writer(host, cluster.client(0), 5, 1200));
  host.spawn(sampler(host, cluster.client(0)));
  cluster.run_until(SimTime::seconds(30));
  cluster.check_failures();

  auto& fs = cluster.client(0);
  std::printf("\nfinal: %llu commit RPCs for %llu commits "
              "(mean compound degree %.2f)\n",
              static_cast<unsigned long long>(fs.commit_pool().rpcs_sent()),
              static_cast<unsigned long long>(
                  fs.commit_pool().entries_committed()),
              fs.commit_pool().mean_degree());
  return 0;
}
