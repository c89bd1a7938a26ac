// Figure 3: overall performance of PVFS2, NFS3, original Redbud and
// Redbud with delayed commit across the five workloads, normalised to
// original Redbud.
//
// Paper shapes to reproduce:
//  * varmail / webproxy: delayed commit ~1.5x over original Redbud;
//  * xcdn 32KB: ~2.6x, close to NFS3 (which wins this one);
//  * xcdn 1MB: delayed commit still improves; Redbud >> NFS3 on large
//    files (FC data path vs the NFS server's single Ethernet NIC);
//  * NPB BT: PVFS2 best (MPI-IO collective buffering); no degradation
//    from delayed commit despite the verify phase's conflict reads.
#include <memory>
#include <vector>

#include "common.hpp"
#include "parallel_runner.hpp"

using namespace redbud;
using namespace redbud::workload;
using core::Protocol;

namespace {

struct Row {
  std::string workload;
  std::string paper_note;
  double value[4] = {0, 0, 0, 0};  // PVFS2, NFS3, Redbud, Redbud+DC
  // Per-protocol so parallel configuration runs never share a slot.
  std::uint64_t verify[4] = {0, 0, 0, 0};
};

constexpr Protocol kProtocols[] = {Protocol::kPvfs2, Protocol::kNfs3,
                                   Protocol::kRedbudSync,
                                   Protocol::kRedbudDelayed};

std::unique_ptr<Workload> make_workload(const std::string& which) {
  if (which == "fileserver") {
    return std::make_unique<FileserverWorkload>(bench::fileserver_params());
  }
  if (which == "varmail") return std::make_unique<VarmailWorkload>();
  if (which == "webproxy") {
    // Default fileset: webproxy's read set fits the cache, as the paper's
    // did in 8 GB of client RAM — the gains come from the writes/deletes.
    return std::make_unique<WebproxyWorkload>();
  }
  if (which == "xcdn-32KB") {
    return std::make_unique<XcdnWorkload>(bench::xcdn_params(32));
  }
  if (which == "xcdn-1MB") {
    return std::make_unique<XcdnWorkload>(bench::xcdn_params(1024));
  }
  return std::make_unique<NpbBtWorkload>();
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Options cli = bench::Options::parse(argc, argv);
  core::print_banner(
      std::cout, "Figure 3 — Overall performance",
      "throughput normalised to original Redbud (higher is better)");

  const std::vector<std::pair<std::string, std::string>> workloads = {
      {"fileserver", "DC gains on small-file creates/appends"},
      {"varmail", "paper: DC ~1.5x"},
      {"webproxy", "paper: DC ~1.5x"},
      {"xcdn-32KB", "paper: DC ~2.6x, ~NFS3"},
      {"xcdn-1MB", "paper: DC still improves; Redbud >> NFS3"},
      {"NPB-BT", "paper: PVFS2 best; DC unharmed by conflict reads"},
  };

  // Every (workload, protocol) cell is an independent simulation; fan the
  // 24-configuration grid out over OS threads.
  std::vector<Row> rows(workloads.size());
  bench::ParallelRunner runner;
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    rows[wi].workload = workloads[wi].first;
    rows[wi].paper_note = workloads[wi].second;
    for (int pi = 0; pi < 4; ++pi) {
      const std::string name = workloads[wi].first;
      Row& row = rows[wi];
      runner.add(name + "/" + core::protocol_name(kProtocols[pi]),
                 [name, pi, &row, cli]() -> bench::KernelStats {
                   auto w = make_workload(name);
                   core::Testbed bed(bench::paper_testbed(kProtocols[pi], cli));
                   bed.start();
                   auto opt = bench::paper_run(cli.smoke);
                   auto r = run_workload(bed, *w, opt);
                   // Time-driven workloads compare ops/s; the fixed-work NPB
                   // job compares aggregate bandwidth (inverse makespan).
                   row.value[pi] = w->fixed_work() ? r.mb_per_sec : r.ops_per_sec;
                   row.verify[pi] = r.verify_failures + r.op_errors;
                   if (auto* c = bed.cluster()) {
                     bench::write_obs_artifacts(
                         *c, "fig3_" + name + "_" +
                                 core::protocol_name(kProtocols[pi]));
                   }
                   return bench::kernel_stats(bed);
                 });
    }
  }
  runner.run_all();
  runner.write_json("fig3_overall");

  core::Table table({"workload", "PVFS2", "NFS3", "Redbud", "Redbud+DC",
                     "DC gain", "paper expectation"});
  bool clean = true;
  for (const auto& row : rows) {
    const double base = row.value[2];  // original Redbud
    auto norm = [&](double v) {
      return base > 0 ? core::Table::fmt_ratio(v / base) : "-";
    };
    table.add_row({row.workload, norm(row.value[0]), norm(row.value[1]),
                   norm(row.value[2]), norm(row.value[3]),
                   norm(row.value[3]), row.paper_note});
    for (auto v : row.verify) clean = clean && v == 0;
  }
  table.print(std::cout);
  std::cout << "verification: "
            << (clean ? "all reads verified, no op errors"
                      : "FAILURES DETECTED")
            << "\n";
  if (!cli.check) return clean ? 0 : 1;

  // Paper-claims gate. NPB-BT's "PVFS2 best" is a known mismatch of the
  // model (EXPERIMENTS.md) and is deliberately not gated.
  bench::ClaimGate gate;
  for (const auto& row : rows) {
    const double gain = row.value[2] > 0 ? row.value[3] / row.value[2] : 0.0;
    gate.expect(gain > 1.0, row.workload + ": Redbud+DC beats Redbud (" +
                                core::Table::fmt_ratio(gain) + " > 1.00x)");
    if (row.workload == "xcdn-32KB") {
      gate.expect(gain >= 2.0, "xcdn-32KB: DC gain " +
                                   core::Table::fmt_ratio(gain) +
                                   " >= 2.00x (paper ~2.6x)");
    }
    if (row.workload == "xcdn-1MB") {
      gate.expect(row.value[2] > row.value[1],
                  "xcdn-1MB: Redbud beats NFS3 on large files");
    }
  }
  gate.expect(clean, "every read verified, no op errors");
  return gate.ok() ? 0 : 1;
}
