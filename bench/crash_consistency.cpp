// Crash-consistency sweep (beyond the paper's figures, validating its
// §I/§III consistency argument): crash the cluster at a range of points
// under each commit mode, fsck the durable state, and garbage-collect
// orphans.
//
// Expected: ordered modes (sync, delayed) are consistent at EVERY crash
// point — "even if the system crashes in between the two sub-operations,
// the file system can still be kept consistent"; the deliberately
// unordered mode lets metadata outrun data and is caught by the checker;
// orphan GC reclaims every unreachable block.
#include <cstdint>
#include <iostream>
#include <string>

#include "core/metrics.hpp"
#include "core/recovery.hpp"

using namespace redbud;
using client::CommitMode;
using core::Cluster;
using core::ClusterParams;
using redbud::sim::Process;
using redbud::sim::SimTime;
using redbud::sim::Simulation;

namespace {

ClusterParams crash_cluster(CommitMode mode, std::uint32_t nshards) {
  ClusterParams p;
  p.nclients = 4;
  p.array.ndisks = 2;
  p.nshards = nshards;
  p.client.mode = mode;
  p.client.chunk_blocks = 1024;
  return p;
}

Process churn(Simulation& sim, client::ClientFs& fs, int id, int nfiles) {
  for (int i = 0; i < nfiles; ++i) {
    auto cfut =
        fs.create(net::kRootDir, "c" + std::to_string(id) + "_" +
                                     std::to_string(i));
    const auto file = co_await cfut;
    if (file == net::kInvalidFile) continue;
    auto wfut = fs.write(file, 0, 16384);
    (void)co_await wfut;
    co_await sim.delay(SimTime::millis(1));
  }
}

const char* mode_name(CommitMode m) {
  switch (m) {
    case CommitMode::kSync:
      return "sync (ordered)";
    case CommitMode::kDelayed:
      return "delayed (ordered)";
    default:
      return "unordered (broken)";
  }
}

}  // namespace

int main() {
  core::print_banner(std::cout, "Crash consistency sweep",
                     "crash at T, fsck the durable state, collect orphans");

  core::Table table({"mode", "shards", "crash point", "durable commits",
                     "blocks checked", "inconsistent", "orphan blocks GC'd",
                     "verdict"});

  // Ordered modes must survive every crash point on a single MDS *and* on
  // a sharded metadata cluster — a shard whose journal flushed out of
  // step with its peers must not leave dangling metadata.
  bool ordered_ok = true;
  bool unordered_caught = false;
  for (auto mode :
       {CommitMode::kSync, CommitMode::kDelayed, CommitMode::kUnordered}) {
    for (std::uint32_t nshards : {1u, 4u}) {
      for (int crash_ms : {5, 25, 100, 400, 1500}) {
        Cluster c(crash_cluster(mode, nshards));
        c.start();
        for (std::size_t i = 0; i < c.nclients(); ++i) {
          c.client_sim(i).spawn(
              churn(c.client_sim(i), c.client(i), int(i), 80));
        }
        c.run_until(SimTime::millis(crash_ms));  // <- the crash

        const auto report = core::check_consistency(c);
        const auto gc = core::collect_orphans(c);
        const bool consistent = report.consistent();
        if (mode == CommitMode::kUnordered) {
          unordered_caught = unordered_caught || !consistent;
        } else {
          ordered_ok = ordered_ok && consistent;
        }
        table.add_row(
            {mode_name(mode), std::to_string(nshards),
             std::to_string(crash_ms) + " ms",
             std::to_string(report.commits_checked),
             std::to_string(report.blocks_checked),
             std::to_string(report.inconsistent_blocks),
             std::to_string(gc.provisional_blocks_freed +
                            gc.delegated_blocks_reclaimed),
             consistent ? "consistent" : "METADATA OUTRAN DATA"});
      }
    }
  }
  table.print(std::cout);

  std::cout << "ordered modes consistent at every crash point: "
            << (ordered_ok ? "yes" : "NO — BUG") << "\n"
            << "unordered mode caught violating the invariant: "
            << (unordered_caught ? "yes" : "no (model too forgiving)")
            << "\n";
  return ordered_ok && unordered_caught ? 0 : 1;
}
