// Unit tests for the deterministic fork-join executor: static
// sharding coverage, the serial fast path, exception propagation by
// lowest shard index, and inline serialization of nested regions.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <vector>

namespace bmg::parallel {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_thread_count(0); }  // back to env/default
};

TEST_F(ParallelTest, EmptyRangeInvokesNothing) {
  set_thread_count(4);
  std::atomic<int> calls{0};
  parallel_for(0, 1, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST_F(ParallelTest, SerialPathIsSingleInlineShard) {
  set_thread_count(1);
  std::vector<std::size_t> begins, ends, shards;
  parallel_for(100, 1, [&](std::size_t b, std::size_t e, std::size_t s) {
    begins.push_back(b);
    ends.push_back(e);
    shards.push_back(s);
  });
  ASSERT_EQ(begins.size(), 1u);
  EXPECT_EQ(begins[0], 0u);
  EXPECT_EQ(ends[0], 100u);
  EXPECT_EQ(shards[0], 0u);
}

TEST_F(ParallelTest, ShardsPartitionTheRangeExactly) {
  set_thread_count(4);
  constexpr std::size_t kN = 1013;  // prime — exercises the ragged tail
  std::vector<std::atomic<int>> visits(kN);
  parallel_for(kN, 16, [&](std::size_t b, std::size_t e, std::size_t) {
    for (std::size_t i = b; i < e; ++i) visits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(visits[i].load(), 1) << i;
}

TEST_F(ParallelTest, ShardBoundariesIndependentOfScheduling) {
  // The partition must be a pure function of (n, min_per_shard,
  // thread_count): run twice and compare the recorded shard map.
  set_thread_count(4);
  const auto record = [] {
    std::mutex mu;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    parallel_for(777, 10, [&](std::size_t b, std::size_t e, std::size_t) {
      std::lock_guard<std::mutex> lock(mu);
      spans.emplace_back(b, e);
    });
    std::sort(spans.begin(), spans.end());
    return spans;
  };
  EXPECT_EQ(record(), record());
}

TEST_F(ParallelTest, MinPerShardLimitsShardCount) {
  set_thread_count(8);
  std::atomic<int> shards{0};
  parallel_for(100, 60, [&](std::size_t, std::size_t, std::size_t) { ++shards; });
  // 100 items at >=60 per shard -> at most one extra shard.
  EXPECT_LE(shards.load(), 2);

  // min_per_shard caps the shard count, not each shard's size: 17
  // items at min 16 make ceil(17/16) = 2 shards of 9 and 8.  Ed25519
  // batch verify relies on this to split batches of 17-31 signatures.
  set_thread_count(2);
  std::mutex mu;
  std::vector<std::array<std::size_t, 3>> spans;
  parallel_for(17, 16, [&](std::size_t b, std::size_t e, std::size_t s) {
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back({s, b, e});
  });
  std::sort(spans.begin(), spans.end());
  const std::vector<std::array<std::size_t, 3>> want = {{0, 0, 9}, {1, 9, 17}};
  EXPECT_EQ(spans, want);
}

TEST_F(ParallelTest, ExceptionPropagatesFromLowestShard) {
  set_thread_count(4);
  try {
    parallel_for(400, 10, [&](std::size_t b, std::size_t, std::size_t s) {
      if (b >= 100) throw std::runtime_error("shard " + std::to_string(s));
      (void)b;
    });
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    // Several shards throw; the one with the lowest shard index wins,
    // deterministically, regardless of completion order.
    const std::string what = e.what();
    const std::string again = [&] {
      try {
        parallel_for(400, 10, [&](std::size_t b, std::size_t, std::size_t s) {
          if (b >= 100) throw std::runtime_error("shard " + std::to_string(s));
        });
      } catch (const std::runtime_error& e2) {
        return std::string(e2.what());
      }
      return std::string();
    }();
    EXPECT_EQ(what, again);
  }
}

TEST_F(ParallelTest, ExceptionOnSerialPathPropagates) {
  set_thread_count(1);
  EXPECT_THROW(
      parallel_for(10, 1,
                   [](std::size_t, std::size_t, std::size_t) {
                     throw std::invalid_argument("boom");
                   }),
      std::invalid_argument);
  EXPECT_FALSE(in_parallel_region());  // flag restored after the throw
}

TEST_F(ParallelTest, NestedForkJoinSerializesInline) {
  set_thread_count(4);
  std::atomic<int> inner_shards{0};
  std::atomic<bool> saw_region_flag{false};
  parallel_for(8, 1, [&](std::size_t, std::size_t, std::size_t) {
    if (in_parallel_region()) saw_region_flag = true;
    // A nested region must not deadlock or re-enter the pool: it runs
    // inline as one shard covering the whole range.
    std::vector<std::size_t> shards;
    parallel_for(64, 1, [&](std::size_t b, std::size_t e, std::size_t s) {
      EXPECT_EQ(b, 0u);
      EXPECT_EQ(e, 64u);
      shards.push_back(s);
    });
    ASSERT_EQ(shards.size(), 1u);
    inner_shards += static_cast<int>(shards.size());
  });
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_GT(inner_shards.load(), 0);
}

TEST_F(ParallelTest, SetThreadCountClampsAndReports) {
  set_thread_count(3);
  EXPECT_EQ(thread_count(), 3u);
  set_thread_count(1);
  EXPECT_EQ(thread_count(), 1u);
  set_thread_count(0);  // re-read env/hardware default
  EXPECT_GE(thread_count(), 1u);
}

TEST_F(ParallelTest, ReusableAcrossManyDispatches) {
  set_thread_count(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> sum{0};
    parallel_for(257, 8, [&](std::size_t b, std::size_t e, std::size_t) {
      std::size_t local = 0;
      for (std::size_t i = b; i < e; ++i) local += i;
      sum += local;
    });
    EXPECT_EQ(sum.load(), 257u * 256u / 2u);
  }
}

}  // namespace
}  // namespace bmg::parallel
