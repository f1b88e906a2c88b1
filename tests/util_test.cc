#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "util/random.h"
#include "util/status.h"
#include "util/stopwatch.h"
#include "util/string_util.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

namespace sccf {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value(), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("nope");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  SCCF_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(StatusOrTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(4, &out).ok());
  EXPECT_EQ(out, 2);
  Status st = UseHalf(3, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(7);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 7);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformIsRoughlyUniform) {
  Rng rng(7);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.Uniform(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, UniformFloatInRange) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const float f = rng.UniformFloat();
    ASSERT_GE(f, 0.0f);
    ASSERT_LT(f, 1.0f);
    sum += f;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, TruncatedNormalWithinTwoSigma) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.TruncatedNormal(1.0f, 0.5f);
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 2.0f);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(15);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(17);
  std::vector<double> w = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  const int n = 60000;
  for (int i = 0; i < n; ++i) ++counts[rng.Categorical(w)];
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(19);
  for (int trial = 0; trial < 50; ++trial) {
    auto s = rng.SampleWithoutReplacement(40, 12);
    ASSERT_EQ(s.size(), 12u);
    std::set<uint64_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 12u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    for (auto v : s) EXPECT_LT(v, 40u);
  }
}

TEST(RngTest, SampleWithoutReplacementFullRange) {
  Rng rng(21);
  auto s = rng.SampleWithoutReplacement(8, 8);
  ASSERT_EQ(s.size(), 8u);
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(s[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ----------------------------------------------------------- string_util

TEST(StringUtilTest, SplitBasic) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringUtilTest, JoinBasic) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(StringUtilTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi \n"), "hi");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("a b"), "a b");
}

TEST(StringUtilTest, FormatFloat) {
  EXPECT_EQ(FormatFloat(0.12345, 4), "0.1235");
  EXPECT_EQ(FormatFloat(2.0, 1), "2.0");
}

TEST(StringUtilTest, ParseInt64) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt64("-5", &v));
  EXPECT_EQ(v, -5);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
}

TEST(StringUtilTest, ParseDouble) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("1.5", &v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("", &v));
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsAllTasksBeforeDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_EQ(counter.load(), 100);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, EmptyRangeIsNoop) {
  ParallelFor(5, 5, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, NestedSubmitFromWorkerRunsBeforeDestruction) {
  std::atomic<int> outer{0};
  std::atomic<int> inner{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 8; ++i) {
      pool.Submit([&pool, &outer, &inner] {
        // Submitting from inside a running task must enqueue (not
        // deadlock), and the destructor must run the nested task too: it
        // is queued before the outer task finishes.
        pool.Submit([&inner] { inner.fetch_add(1); });
        outer.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(outer.load(), 8);
  EXPECT_EQ(inner.load(), 8);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  std::atomic<int> visited{0};
  EXPECT_THROW(
      ParallelFor(0, 64,
                  [&](size_t i) {
                    visited.fetch_add(1);
                    if (i == 13) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The throwing block stops at the exception; everything before it (and
  // every other queued block) still ran. How much of the range that is
  // depends on the pool's block split, but iterations 0..13 are always in
  // or before the throwing block.
  EXPECT_GE(visited.load(), 14);
  EXPECT_LE(visited.load(), 64);
}

TEST(ParallelForBlockedTest, ExceptionPropagatesToCaller) {
  EXPECT_THROW(ParallelForBlocked(0, 128,
                                  [](size_t lo, size_t) {
                                    if (lo == 0) {
                                      throw std::runtime_error("first block");
                                    }
                                  }),
               std::runtime_error);
}

TEST(ParallelForTest, PoolIsReusableAfterException) {
  try {
    ParallelFor(0, 32, [](size_t) { throw std::runtime_error("boom"); });
    FAIL() << "must throw";
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  ParallelFor(0, 100, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelForBlockedTest, EmptyRangeIsNoop) {
  ParallelForBlocked(7, 7,
                     [](size_t, size_t) { FAIL() << "must not be called"; });
  ParallelForBlocked(9, 3,
                     [](size_t, size_t) { FAIL() << "must not be called"; });
}

// A ParallelFor issued from inside a pool worker runs inline on that
// worker. A worker that waited for sub-tasks queued behind itself could
// deadlock the pool (the ctest timeout catches a regression).
TEST(ParallelForTest, NestedCallFromWorkerCompletes) {
  std::atomic<int> inner{0};
  std::atomic<int> moved_off_worker{0};
  ParallelFor(0, 8, [&](size_t) {
    const bool in_worker = ThreadPool::Global().InWorker();
    const std::thread::id outer = std::this_thread::get_id();
    ParallelFor(0, 100, [&](size_t) {
      inner.fetch_add(1);
      if (in_worker && std::this_thread::get_id() != outer) {
        moved_off_worker.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(inner.load(), 800);
  EXPECT_EQ(moved_off_worker.load(), 0);
}

// Each ParallelFor waits for its own blocks only. Thread A's call keeps
// a pool worker blocked on a latch that only thread B's return releases;
// if B waited for the whole pool (A's task included), neither would
// finish. A watchdog releases the latch after a deadline so a
// regression fails instead of hanging.
TEST(ParallelForTest, ConcurrentCallersDoNotWaitForEachOther) {
  if (ThreadPool::Global().num_threads() < 2) {
    GTEST_SKIP() << "a one-thread pool runs every call inline";
  }
  std::latch b_returned(1);
  std::once_flag release_once;
  const auto release = [&] {
    std::call_once(release_once, [&] { b_returned.count_down(); });
  };
  std::atomic<bool> a_blocked{false};

  // Two blocks: the first worker to claim one blocks in it; A's own
  // thread holds its block until that has happened, so it cannot claim
  // both blocks itself.
  std::thread a([&] {
    ParallelFor(0, 2, [&](size_t) {
      if (ThreadPool::Global().InWorker()) {
        if (!a_blocked.exchange(true)) b_returned.wait();
      } else {
        while (!a_blocked.load()) std::this_thread::yield();
      }
    });
  });
  while (!a_blocked.load()) std::this_thread::yield();

  std::promise<int> b_done;
  std::future<int> b_result = b_done.get_future();
  std::thread b([&] {
    std::atomic<int> count{0};
    ParallelFor(0, 64, [&](size_t) { count.fetch_add(1); });
    release();
    b_done.set_value(count.load());
  });
  const bool b_finished_first =
      b_result.wait_for(std::chrono::seconds(30)) == std::future_status::ready;
  release();
  b.join();
  a.join();
  EXPECT_TRUE(b_finished_first)
      << "B's ParallelFor waited for A's still-blocked task";
  EXPECT_EQ(b_result.get(), 64);
}

TEST(ParallelForBlockedTest, BlocksPartitionRange) {
  std::mutex mu;
  std::vector<std::pair<size_t, size_t>> blocks;
  ParallelForBlocked(0, 103, [&](size_t lo, size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    blocks.push_back({lo, hi});
  });
  std::sort(blocks.begin(), blocks.end());
  size_t expected = 0;
  for (auto [lo, hi] : blocks) {
    EXPECT_EQ(lo, expected);
    EXPECT_LT(lo, hi);
    expected = hi;
  }
  EXPECT_EQ(expected, 103u);
}

// ------------------------------------------------------------- Stopwatch

TEST(StopwatchTest, MeasuresElapsed) {
  Stopwatch sw;
  double e1 = sw.ElapsedSeconds();
  EXPECT_GE(e1, 0.0);
  double e2 = sw.ElapsedSeconds();
  EXPECT_GE(e2, e1);
}

TEST(LatencyStatsTest, Aggregates) {
  LatencyStats st;
  EXPECT_EQ(st.count(), 0u);
  EXPECT_EQ(st.mean(), 0.0);
  st.Add(2.0);
  st.Add(4.0);
  st.Add(6.0);
  EXPECT_EQ(st.count(), 3u);
  EXPECT_DOUBLE_EQ(st.mean(), 4.0);
  EXPECT_DOUBLE_EQ(st.min(), 2.0);
  EXPECT_DOUBLE_EQ(st.max(), 6.0);
}

// ---------------------------------------------------------- TablePrinter

TEST(TablePrinterTest, RendersAlignedTable) {
  TablePrinter t({"Method", "HR@20"});
  t.AddRow({"Pop", "0.0596"});
  t.AddRow("SASRec", {0.3447}, 4);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("Method"), std::string::npos);
  EXPECT_NE(s.find("0.3447"), std::string::npos);
  EXPECT_NE(s.find("+"), std::string::npos);
}

TEST(TablePrinterTest, WritesCsv) {
  TablePrinter t({"a", "b"});
  t.AddRow({"1", "2"});
  const std::string path = testing::TempDir() + "/sccf_table_test.csv";
  ASSERT_TRUE(t.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[64] = {0};
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  EXPECT_EQ(std::string(buf), "a,b\n");
  std::fclose(f);
}

}  // namespace
}  // namespace sccf
