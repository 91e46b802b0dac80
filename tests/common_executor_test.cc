#include "bdi/common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace bdi {
namespace {

TEST(ExecutorTest, ZeroIterationsIsNoop) {
  ParallelFor(0, [](size_t) { FAIL() << "should not be called"; });
  ParallelForRanges(0, [](size_t, size_t) { FAIL() << "no chunks"; });
}

TEST(ExecutorTest, SingleIterationRunsInline) {
  size_t seen = 1234;
  ParallelFor(1, [&](size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ExecutorTest, CoversAllIndices) {
  std::vector<std::atomic<int>> hits(10000);
  ParallelFor(hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ExecutorTest, FewerIterationsThanThreads) {
  std::atomic<int> counter{0};
  ParallelFor(3, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ExecutorTest, MaxParallelismOneIsSerialInOrder) {
  std::vector<size_t> order;
  ParallelFor(
      100, [&](size_t i) { order.push_back(i); }, /*max_parallelism=*/1);
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecutorTest, RangesPartitionWithoutOverlap) {
  std::vector<std::atomic<int>> hits(5000);
  std::atomic<int> chunks{0};
  ParallelForRanges(hits.size(), [&](size_t begin, size_t end) {
    EXPECT_LT(begin, end);
    ++chunks;
    for (size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_GE(chunks.load(), 1);
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ExecutorTest, RangesRespectMinChunk) {
  std::atomic<int> chunks{0};
  ParallelForRanges(
      1000,
      [&](size_t begin, size_t end) {
        // Every chunk except possibly the last is at least min_chunk wide.
        if (end != 1000) {
          EXPECT_GE(end - begin, 100u);
        }
        ++chunks;
      },
      /*max_parallelism=*/0, /*min_chunk=*/100);
  EXPECT_LE(chunks.load(), 10);
}

TEST(ExecutorTest, NestedParallelForRunsSerialInline) {
  // A loop entered from inside a worker body must not deadlock and must
  // still cover its whole iteration space.
  std::vector<std::atomic<int>> outer(64);
  std::atomic<int> inner_total{0};
  ParallelFor(outer.size(), [&](size_t i) {
    ++outer[i];
    ParallelFor(16, [&](size_t) { ++inner_total; });
  });
  for (size_t i = 0; i < outer.size(); ++i) {
    ASSERT_EQ(outer[i].load(), 1) << i;
  }
  EXPECT_EQ(inner_total.load(), 64 * 16);
}

TEST(ExecutorTest, ExceptionPropagates) {
  EXPECT_THROW(
      ParallelFor(1000,
                  [&](size_t i) {
                    if (i == 437) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ExecutorTest, UsableAfterException) {
  try {
    ParallelFor(100, [](size_t) { throw std::runtime_error("first"); });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> counter{0};
  ParallelFor(500, [&](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 500);
}

TEST(ExecutorTest, ExceptionFromRangesPropagates) {
  EXPECT_THROW(
      ParallelForRanges(
          256, [](size_t, size_t) { throw std::logic_error("chunk"); }),
      std::logic_error);
}

TEST(ExecutorTest, ConfigureAfterCreationIsRejected) {
  Executor::Get();  // force pool construction
  EXPECT_FALSE(Executor::Configure(3));
  EXPECT_GE(Executor::Get().num_threads(), 1u);
}

TEST(ExecutorTest, ParallelSumMatchesSerial) {
  std::vector<int64_t> partial(20000, 0);
  ParallelFor(partial.size(),
              [&](size_t i) { partial[i] = static_cast<int64_t>(i); });
  int64_t total =
      std::accumulate(partial.begin(), partial.end(), int64_t{0});
  EXPECT_EQ(total, int64_t{19999} * 20000 / 2);
}

// The shared worker pool behind Executor (the former ThreadPool): these
// drive it through Executor::Get()'s member loops, capped at the worker
// counts the standalone pool was built with.
TEST(ThreadPoolTest, RunsSubmittedWork) {
  std::atomic<int> counter{0};
  Executor::Get().ParallelFor(100, [&](size_t) { ++counter; },
                              /*max_parallelism=*/4);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, AtLeastOneThread) {
  EXPECT_GE(Executor::Get().num_threads(), 1u);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  Executor::Get().ParallelFor(1000, [&](size_t i) { ++hits[i]; },
                              /*max_parallelism=*/3);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  Executor::Get().ParallelFor(
      0, [](size_t) { FAIL() << "should not be called"; },
      /*max_parallelism=*/2);
}

TEST(ThreadPoolTest, ParallelForSmallerThanThreads) {
  std::atomic<int> counter{0};
  Executor::Get().ParallelFor(3, [&](size_t) { ++counter; },
                              /*max_parallelism=*/8);
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, ParallelSum) {
  std::vector<int64_t> partial(1000, 0);
  Executor::Get().ParallelFor(
      1000, [&](size_t i) { partial[i] = static_cast<int64_t>(i); },
      /*max_parallelism=*/4);
  int64_t total = std::accumulate(partial.begin(), partial.end(), int64_t{0});
  EXPECT_EQ(total, 999 * 1000 / 2);
}

}  // namespace
}  // namespace bdi
