// Randomized differential test for the inode extent map: arbitrary
// commit sequences (appends, overwrites, straddles, splits) are applied
// both to the Inode and to a naive per-block reference model; lookups
// must agree exactly.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <type_traits>

#include "mds/inode.hpp"
#include "sim/random.hpp"

namespace redbud::mds {
namespace {

using net::Extent;

// gtest prints a case as a byte dump of this struct, and ctest takes
// that dump as the test's name, so every byte is a declared, initialised
// member: uninitialised padding made the names change from build to
// build. `name_tag` fills the slot after `commits`; its values keep the
// names the cases have been listed under.
struct FuzzCase {
  FuzzCase(std::uint64_t seed, int commits, std::uint64_t file_blocks,
           std::uint32_t max_extent, std::uint32_t name_tag)
      : seed(seed),
        commits(commits),
        name_tag(name_tag),
        file_blocks(file_blocks),
        max_extent(max_extent) {}

  std::uint64_t seed;
  int commits;
  std::uint32_t name_tag;
  std::uint64_t file_blocks;  // logical file size bound, in blocks
  std::uint32_t max_extent;
  std::uint32_t tail = 0;
};
static_assert(std::has_unique_object_representations_v<FuzzCase>,
              "FuzzCase must have no padding: its bytes name the test");

class InodeFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(InodeFuzz, MatchesPerBlockReferenceModel) {
  const auto c = GetParam();
  sim::Rng rng(c.seed);
  Inode ino(1);
  // Reference: logical block -> physical address.
  std::map<std::uint64_t, storage::PhysAddr> ref;

  std::uint64_t next_phys = 0;
  for (int i = 0; i < c.commits; ++i) {
    // Build one commit of 1..3 extents.
    std::vector<Extent> extents;
    const int next = 1 + int(rng.next_below(3));
    for (int e = 0; e < next; ++e) {
      Extent x;
      x.file_block = rng.next_below(c.file_blocks);
      x.nblocks = static_cast<std::uint32_t>(1 + rng.next_below(c.max_extent));
      x.addr.device = static_cast<std::uint32_t>(rng.next_below(4));
      x.addr.block = next_phys;
      next_phys += x.nblocks + 8;
      extents.push_back(x);
    }
    ino.apply_commit(extents, 0);
    for (const auto& x : extents) {
      for (std::uint32_t k = 0; k < x.nblocks; ++k) {
        ref[x.file_block + k] =
            storage::PhysAddr{x.addr.device, x.addr.block + k};
      }
    }
    ASSERT_TRUE(ino.validate()) << "commit " << i;

    // Probe a few random ranges for agreement.
    for (int probe = 0; probe < 8; ++probe) {
      const auto lo = rng.next_below(c.file_blocks);
      const auto len =
          static_cast<std::uint32_t>(1 + rng.next_below(c.max_extent * 2));
      const auto got = ino.lookup(lo, len);
      // Flatten the result for block-level comparison.
      std::map<std::uint64_t, storage::PhysAddr> flat;
      for (const auto& x : got) {
        for (std::uint32_t k = 0; k < x.nblocks; ++k) {
          flat[x.file_block + k] =
              storage::PhysAddr{x.addr.device, x.addr.block + k};
        }
      }
      for (std::uint64_t b = lo; b < lo + len; ++b) {
        auto rit = ref.find(b);
        auto fit = flat.find(b);
        if (rit == ref.end()) {
          ASSERT_EQ(fit, flat.end()) << "phantom mapping at block " << b;
        } else {
          ASSERT_NE(fit, flat.end()) << "missing mapping at block " << b;
          ASSERT_EQ(fit->second, rit->second) << "wrong mapping at " << b;
        }
      }
    }
  }

  // Full-range final agreement, and extent count sanity: a fully mapped
  // file of N blocks can never need more than N extents.
  const auto all = ino.all_extents();
  std::uint64_t mapped = 0;
  for (const auto& x : all) mapped += x.nblocks;
  EXPECT_EQ(mapped, ref.size());
  EXPECT_LE(all.size(), ref.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InodeFuzz,
    ::testing::Values(
        FuzzCase{11, 300, 64, 8, 0x25},     // dense overwrite churn
        FuzzCase{12, 300, 1024, 16, 0x6D},  // moderate density
        FuzzCase{13, 150, 32, 32, 0xC2},    // extents >> file span
        FuzzCase{14, 500, 256, 4, 0x25},    // many small commits
        FuzzCase{15, 300, 4096, 64, 0x6D}));  // sparse big file

}  // namespace
}  // namespace redbud::mds
