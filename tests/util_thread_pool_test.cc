#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/parallel.h"

namespace sy::util {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, ResultsLandInPerIndexSlots) {
  ThreadPool pool(3);
  constexpr std::size_t kN = 513;
  std::vector<std::size_t> out(kN, 0);
  pool.parallel_for(kN, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 17) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionDoesNotLoseIterations) {
  // Every index is still visited exactly once even when one throws.
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::atomic<std::size_t> visited{0};
  try {
    pool.parallel_for(kN, [&](std::size_t i) {
      visited.fetch_add(1);
      if (i == 3) throw std::logic_error("first");
    });
    FAIL() << "expected an exception";
  } catch (const std::logic_error&) {
  }
  EXPECT_EQ(visited.load(), kN);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // The caller participates in the drain, so a pool task issuing its own
  // parallel_for must complete even with every worker occupied.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 64u);
}

TEST(ThreadPool, SubmitRunsDetachedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&] { count.fetch_add(1); });
    }
    // Destructor semantics: queued tasks may or may not run before shutdown
    // is requested, but every started task finishes; use parallel_for as the
    // barrier instead of sleeping.
    pool.parallel_for(1, [](std::size_t) {});
  }
  EXPECT_GE(count.load(), 0);
}

// N users x M contexts stress shape: uneven task costs, results in
// pre-sized slots, shared read-only input.
// Run under -fsanitize=thread to certify the pool (see CMake option SY_TSAN).
TEST(ThreadPool, StressUsersByContexts) {
  constexpr std::size_t kUsers = 32;
  constexpr std::size_t kContexts = 4;
  const std::vector<double> shared_input = [] {
    std::vector<double> v(4096);
    std::iota(v.begin(), v.end(), 0.0);
    return v;
  }();

  ThreadPool pool(8);
  std::vector<double> results(kUsers * kContexts, 0.0);
  for (int round = 0; round < 20; ++round) {
    pool.parallel_for(kUsers * kContexts, [&](std::size_t i) {
      // Uneven cost: later users do more work, exercising stealing.
      const std::size_t user = i / kContexts;
      double acc = 0.0;
      for (std::size_t r = 0; r <= user; ++r) {
        for (const double v : shared_input) acc += v * 1e-6;
      }
      results[i] = acc;
    });
  }
  for (std::size_t u = 0; u < kUsers; ++u) {
    for (std::size_t c = 1; c < kContexts; ++c) {
      EXPECT_DOUBLE_EQ(results[u * kContexts], results[u * kContexts + c]);
    }
  }
}

TEST(ParallelFor, SharedPoolPath) {
  constexpr std::size_t kN = 777;
  std::vector<int> out(kN, 0);
  parallel_for(kN, [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0),
            static_cast<int>(kN));
}

TEST(ParallelFor, SingleThreadFallback) {
  constexpr std::size_t kN = 100;
  std::vector<int> out(kN, 0);
  parallel_for(
      kN, [&](std::size_t i) { out[i] = static_cast<int>(i); }, 1);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

}  // namespace
}  // namespace sy::util
