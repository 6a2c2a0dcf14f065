#include "common/shard_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace bmg {
namespace {

class ShardPoolTest : public ::testing::Test {
 protected:
  void TearDown() override { shard::set_worker_count(0); }
};

TEST_F(ShardPoolTest, ResultsLandInGridOrderAtEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    shard::set_worker_count(workers);
    std::vector<int> out(37, -1);
    const auto stats = shard::run_cells(
        out.size(), [&](std::size_t c) { out[c] = static_cast<int>(c) * 3; });
    ASSERT_EQ(stats.size(), out.size());
    for (std::size_t c = 0; c < out.size(); ++c) {
      EXPECT_EQ(out[c], static_cast<int>(c) * 3) << "workers=" << workers;
      EXPECT_EQ(stats[c].cell, c);
      EXPECT_LT(stats[c].worker, workers);
    }
  }
}

TEST_F(ShardPoolTest, AdmissionBoundedByWorkerCount) {
  // At most W cells may be live at once — that is the peak-memory
  // bound the shard model promises (W whole simulations, not N).
  constexpr std::size_t kWorkers = 4;
  shard::set_worker_count(kWorkers);
  std::atomic<int> live{0}, peak{0};
  (void)shard::run_cells(64, [&](std::size_t) {
    const int now = ++live;
    int prev = peak.load();
    while (now > prev && !peak.compare_exchange_weak(prev, now)) {
    }
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 20000) {
    }
    --live;
  });
  EXPECT_LE(peak.load(), static_cast<int>(kWorkers));
  EXPECT_GE(peak.load(), 1);
}

TEST_F(ShardPoolTest, WorkerCountConfiguration) {
  shard::set_worker_count(3);
  EXPECT_EQ(shard::worker_count(), 3u);
  shard::set_worker_count(1);
  EXPECT_EQ(shard::worker_count(), 1u);
  // 0 re-reads the environment/hardware default; >= 1 always.
  shard::set_worker_count(0);
  EXPECT_GE(shard::worker_count(), 1u);
}

TEST_F(ShardPoolTest, IntraCellParallelForSerializesInline) {
  // Inside a cell the fork-join executor must not fan out: the cell is
  // the unit of parallelism.  parallel_for still computes the right
  // answer, on the calling thread alone.
  shard::set_worker_count(4);
  std::vector<std::vector<std::size_t>> shards_seen(8);
  (void)shard::run_cells(8, [&](std::size_t c) {
    parallel::parallel_for(100, 1, [&](std::size_t b, std::size_t e, std::size_t shard) {
      for (std::size_t i = b; i < e; ++i) shards_seen[c].push_back(shard);
    });
  });
  for (std::size_t c = 0; c < 8; ++c) {
    ASSERT_EQ(shards_seen[c].size(), 100u) << c;
    for (const std::size_t s : shards_seen[c]) EXPECT_EQ(s, 0u);
  }
}

TEST_F(ShardPoolTest, NestedRunCellsSerializesInline) {
  // Two nested grids in a row: the first must leave the cell still
  // marked as a cell, or the second would dispatch on the busy pool.
  shard::set_worker_count(4);
  std::vector<int> inner(5, 0);
  (void)shard::run_cells(2, [&](std::size_t outer) {
    if (outer != 0) return;
    for (int round = 1; round <= 2; ++round)
      (void)shard::run_cells(inner.size(), [&](std::size_t i) {
        inner[i] += static_cast<int>(i) + 1;
      });
  });
  for (std::size_t i = 0; i < inner.size(); ++i)
    EXPECT_EQ(inner[i], 2 * (static_cast<int>(i) + 1));
}

TEST_F(ShardPoolTest, LowestCellExceptionWins) {
  for (const std::size_t workers : {1u, 4u}) {
    shard::set_worker_count(workers);
    try {
      (void)shard::run_cells(16, [&](std::size_t c) {
        if (c == 11 || c == 3 || c == 14)
          throw std::runtime_error("cell " + std::to_string(c));
      });
      FAIL() << "expected throw at workers=" << workers;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "cell 3") << "workers=" << workers;
    }
  }
}

TEST_F(ShardPoolTest, RemainingCellsRunAfterAFailure) {
  shard::set_worker_count(2);
  std::vector<int> ran(12, 0);
  try {
    (void)shard::run_cells(ran.size(), [&](std::size_t c) {
      ran[c] = 1;
      if (c == 0) throw std::runtime_error("first");
    });
    FAIL();
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(std::accumulate(ran.begin(), ran.end(), 0), 12);
}

TEST_F(ShardPoolTest, CellStatsRecordTimings) {
  shard::set_worker_count(1);
  const auto stats = shard::run_cells(3, [&](std::size_t) {
    std::atomic<int> spin{0};
    while (spin.fetch_add(1, std::memory_order_relaxed) < 100000) {
    }
  });
  for (const auto& s : stats) {
    EXPECT_GE(s.wall_s, 0.0);
    EXPECT_GE(s.cpu_s, 0.0);
  }
}

TEST_F(ShardPoolTest, ZeroCellsIsANoop) {
  shard::set_worker_count(4);
  EXPECT_TRUE(shard::run_cells(0, [&](std::size_t) { FAIL(); }).empty());
}

class ShardPoolFrontEndsTest : public ShardPoolTest {
 protected:
  void TearDown() override {
    parallel::set_thread_count(0);
    ShardPoolTest::TearDown();
  }
};

TEST_F(ShardPoolFrontEndsTest, ParallelForRunsWhileCellsBlock) {
  // The two executors share one pool implementation but not its
  // threads or job slot.  Both cells of a 2-worker grid block until
  // another thread has finished a 4-thread parallel_for; if the front
  // ends ever shared a dispatch slot (or threads), that parallel_for
  // would wait behind the grid and the grid behind it.  Every wait is
  // bounded, so a regression fails instead of hanging.
  constexpr auto kTimeout = std::chrono::seconds(30);
  shard::set_worker_count(2);
  parallel::set_thread_count(4);

  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  bool released = false;
  std::atomic<bool> cells_timed_out{false};

  std::atomic<std::size_t> shards{0};
  bool kernel_saw_cells = false;
  std::thread kernel([&] {
    {
      std::unique_lock<std::mutex> lock(mu);
      kernel_saw_cells = cv.wait_for(lock, kTimeout, [&] { return started == 2; });
    }
    parallel::parallel_for(64, 1, [&](std::size_t, std::size_t, std::size_t) { ++shards; });
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  });

  const auto stats = shard::run_cells(2, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, kTimeout, [&] { return released; })) cells_timed_out = true;
  });
  kernel.join();

  EXPECT_TRUE(kernel_saw_cells) << "the two cells never ran side by side";
  EXPECT_FALSE(cells_timed_out.load()) << "parallel_for waited behind the grid";
  EXPECT_EQ(shards.load(), 4u);  // pooled: 4 shards, not one inline shard
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_NE(stats[0].worker, stats[1].worker);
}

}  // namespace
}  // namespace bmg
