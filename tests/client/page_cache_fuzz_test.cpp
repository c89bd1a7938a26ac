// Randomized differential test for the page cache against a naive
// reference model, checking the dirty-pinning contract: a dirty page may
// NEVER be evicted or lose its newest token; clean pages may vanish but
// must never resurrect stale data.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <type_traits>

#include "client/page_cache.hpp"
#include "sim/random.hpp"

namespace redbud::client {
namespace {

struct Ref {
  struct Page {
    storage::ContentToken token;
    bool dirty;
  };
  std::map<std::pair<net::FileId, std::uint64_t>, Page> pages;
};

// gtest prints a case as a byte dump of this struct, and ctest takes
// that dump as the test's name, so every byte is a declared, initialised
// member: uninitialised padding made the names change from build to
// build. `name_tag` fills the slot after `ops`; its values keep the
// names the cases have been listed under.
struct FuzzCase {
  FuzzCase(std::uint64_t seed, int ops, std::size_t capacity,
           std::uint64_t files, std::uint64_t blocks, std::uint32_t name_tag)
      : seed(seed),
        ops(ops),
        name_tag(name_tag),
        capacity(capacity),
        files(files),
        blocks(blocks) {}

  std::uint64_t seed;
  int ops;
  std::uint32_t name_tag;
  std::size_t capacity;
  std::uint64_t files;
  std::uint64_t blocks;
};
static_assert(std::has_unique_object_representations_v<FuzzCase>,
              "FuzzCase must have no padding: its bytes name the test");

class PageCacheFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(PageCacheFuzz, DirtyContractHolds) {
  const auto c = GetParam();
  sim::Rng rng(c.seed);
  PageCache cache(c.capacity);
  Ref ref;
  storage::ContentToken next_token = 1;

  for (int i = 0; i < c.ops; ++i) {
    const net::FileId file = 1 + rng.next_below(c.files);
    const std::uint64_t block = rng.next_below(c.blocks);
    const auto key = std::make_pair(file, block);
    switch (rng.next_below(5)) {
      case 0: {  // dirty write
        cache.put_dirty(file, block, next_token);
        ref.pages[key] = {next_token, true};
        ++next_token;
        break;
      }
      case 1: {  // clean fill
        cache.put_clean(file, block, next_token);
        ref.pages[key] = {next_token, false};
        ++next_token;
        break;
      }
      case 2: {  // commit ack
        cache.mark_clean(file, block);
        if (auto it = ref.pages.find(key); it != ref.pages.end()) {
          it->second.dirty = false;
        }
        break;
      }
      case 3: {  // lookup — THE check
        const auto got = cache.get(file, block);
        auto it = ref.pages.find(key);
        if (it != ref.pages.end() && it->second.dirty) {
          // Dirty pages are pinned: must be present with the newest token.
          ASSERT_TRUE(got.has_value()) << "dirty page evicted";
          ASSERT_EQ(*got, it->second.token) << "dirty page stale";
        } else if (got.has_value()) {
          // Clean hits must return the newest token, never stale data.
          ASSERT_NE(it, ref.pages.end()) << "hit on a never-written page";
          ASSERT_EQ(*got, it->second.token) << "stale clean page";
        }
        break;
      }
      default: {  // drop a file
        if (rng.bernoulli(0.05)) {
          cache.invalidate_file(file);
          for (auto it = ref.pages.begin(); it != ref.pages.end();) {
            it = it->first.first == file ? ref.pages.erase(it) : ++it;
          }
        }
        break;
      }
    }
    // Aggregate invariants.
    std::size_t ref_dirty = 0;
    for (const auto& [k, p] : ref.pages) {
      if (p.dirty) ++ref_dirty;
    }
    ASSERT_EQ(cache.dirty_count(), ref_dirty) << "op " << i;
    // Capacity may only be exceeded by pinned dirty pages.
    ASSERT_LE(cache.size(),
              std::max(c.capacity, cache.dirty_count() + c.capacity))
        << "op " << i;
  }

  // Every dirty page enumerable via dirty_pages_of with the right token.
  for (net::FileId f = 1; f <= c.files; ++f) {
    for (const auto& [block, token] : cache.dirty_pages_of(f)) {
      auto it = ref.pages.find({f, block});
      ASSERT_NE(it, ref.pages.end());
      ASSERT_TRUE(it->second.dirty);
      ASSERT_EQ(token, it->second.token);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageCacheFuzz,
    ::testing::Values(
        FuzzCase{21, 5000, 16, 3, 32, 0x0E9DC2},  // tiny cache: churn
        FuzzCase{22, 5000, 256, 5, 64, 0},        // roomy cache
        FuzzCase{23, 8000, 8, 2, 8, 0x0E9DC2},    // pathological
        FuzzCase{24, 5000, 64, 10, 128, 0},       // many files
        FuzzCase{25, 3000, 4, 1, 64, 0x7F6D}));   // all-dirty overflow

}  // namespace
}  // namespace redbud::client
