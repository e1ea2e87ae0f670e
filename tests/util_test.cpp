// Unit and property tests for src/util: RNG, CSV, env config, thread pool,
// and table printing.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <latch>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/fingerprint.hpp"
#include "util/fs.hpp"
#include "util/rng.hpp"
#include "util/table_printer.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dsa::util;

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

class RngBelowTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RngBelowTest, StaysBelowBoundAndHitsAllResidues) {
  const std::uint64_t n = GetParam();
  Rng rng(n * 7919 + 1);
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  const int draws = static_cast<int>(n) * 200;
  for (int i = 0; i < draws; ++i) {
    const std::uint64_t v = rng.below(n);
    ASSERT_LT(v, n);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (std::uint64_t v = 0; v < n; ++v) {
    EXPECT_GT(seen[v], 0) << "value " << v << " never drawn";
  }
}

INSTANTIATE_TEST_SUITE_P(Bounds, RngBelowTest,
                         ::testing::Values(1, 2, 3, 5, 10, 50, 64, 100));

TEST(Rng, BetweenIsInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.between(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(13);
  std::vector<int> values(100);
  std::iota(values.begin(), values.end(), 0);
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Rng, DeriveIsDeterministicAndSensitiveToAllArgs) {
  const Rng base(42);
  Rng a = base.derive(1, 2, 3);
  Rng a2 = base.derive(1, 2, 3);
  EXPECT_EQ(a(), a2());
  // Changing any coordinate changes the stream.
  for (auto [x, y, z] : {std::tuple{2ULL, 2ULL, 3ULL},
                         std::tuple{1ULL, 3ULL, 3ULL},
                         std::tuple{1ULL, 2ULL, 4ULL}}) {
    Rng b = base.derive(x, y, z);
    Rng a3 = base.derive(1, 2, 3);
    EXPECT_NE(a3(), b());
  }
}

TEST(Rng, Hash64IsStable) {
  EXPECT_EQ(hash64(0), hash64(0));
  EXPECT_NE(hash64(0), hash64(1));
}

// ---------------------------------------------------------------- Csv ----

TEST(CsvTable, RoundTripsThroughDisk) {
  CsvTable table({"id", "name", "value"});
  table.add_row({"1", "alpha", "0.5"});
  table.add_row({"2", "beta", "1.25"});
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_csv_test.csv";
  table.save(path);
  const CsvTable loaded = CsvTable::load(path);
  ASSERT_EQ(loaded.row_count(), 2u);
  EXPECT_EQ(loaded.at(0, "name"), "alpha");
  EXPECT_DOUBLE_EQ(loaded.number_at(1, "value"), 1.25);
  std::filesystem::remove(path);
}

TEST(CsvTable, SaveIsAtomicNoTemporaryLeftBehind) {
  CsvTable table({"k"});
  table.add_row({"1"});
  const auto path =
      std::filesystem::temp_directory_path() / "dsa_csv_atomic_test.csv";
  table.save(path);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::path tmp = path;
  tmp += ".tmp";
  EXPECT_FALSE(std::filesystem::exists(tmp));
  // Overwriting an existing file goes through the same rename and wins.
  CsvTable bigger({"k"});
  bigger.add_row({"1"});
  bigger.add_row({"2"});
  bigger.save(path);
  EXPECT_EQ(CsvTable::load(path).row_count(), 2u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove(path);
}

TEST(CsvTable, RejectsBadRows) {
  CsvTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(table.add_row({"x", "has,comma"}), std::invalid_argument);
}

TEST(CsvTable, UnknownColumnThrows) {
  CsvTable table({"a"});
  table.add_row({"1"});
  EXPECT_THROW((void)table.column("missing"), std::out_of_range);
  EXPECT_THROW((void)table.at(0, "missing"), std::out_of_range);
}

TEST(CsvTable, NonNumericFieldThrows) {
  CsvTable table({"a"});
  table.add_row({"not-a-number"});
  EXPECT_THROW((void)table.number_at(0, "a"), std::invalid_argument);
}

TEST(CsvTable, LoadMissingFileThrows) {
  EXPECT_THROW(CsvTable::load("/nonexistent/really/missing.csv"),
               std::runtime_error);
}

TEST(FormatNumber, RoundTripsTypicalMetrics) {
  for (double v : {0.0, 1.0, 0.123456789, 56.25, 1e-6, 745.0}) {
    EXPECT_DOUBLE_EQ(std::stod(format_number(v)), v);
  }
}

// ------------------------------------------------------- atomic_write ----

TEST(AtomicWrite, WritesContentsAndLeavesNoTmp) {
  const auto dir = std::filesystem::temp_directory_path() / "dsa_fs_test";
  const auto path = dir / "nested" / "out.json";
  std::filesystem::remove_all(dir);
  atomic_write(path, "{\"ok\":true}\n");
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "{\"ok\":true}\n");
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST(AtomicWrite, ReplacesExistingFile) {
  const auto dir = std::filesystem::temp_directory_path() / "dsa_fs_test2";
  const auto path = dir / "out.txt";
  std::filesystem::remove_all(dir);
  atomic_write(path, "first");
  atomic_write(path, "second");
  std::ifstream in(path);
  std::string text;
  std::getline(in, text);
  EXPECT_EQ(text, "second");
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- env ----

TEST(Env, FallsBackWhenUnset) {
  unsetenv("DSA_TEST_VAR");
  EXPECT_EQ(env_string("DSA_TEST_VAR", "fallback"), "fallback");
  EXPECT_EQ(env_int("DSA_TEST_VAR", 7), 7);
  EXPECT_DOUBLE_EQ(env_double("DSA_TEST_VAR", 0.5), 0.5);
  EXPECT_FALSE(env_flag("DSA_TEST_VAR"));
}

TEST(Env, ParsesSetValues) {
  setenv("DSA_TEST_VAR", "42", 1);
  EXPECT_EQ(env_int("DSA_TEST_VAR", 7), 42);
  setenv("DSA_TEST_VAR", "2.5", 1);
  EXPECT_DOUBLE_EQ(env_double("DSA_TEST_VAR", 0.0), 2.5);
  setenv("DSA_TEST_VAR", "text", 1);
  EXPECT_EQ(env_string("DSA_TEST_VAR", ""), "text");
  setenv("DSA_TEST_VAR", "1", 1);
  EXPECT_TRUE(env_flag("DSA_TEST_VAR"));
  setenv("DSA_TEST_VAR", "0", 1);
  EXPECT_FALSE(env_flag("DSA_TEST_VAR"));
  unsetenv("DSA_TEST_VAR");
}

// Set-but-invalid values must fail loudly, not silently fall back — a
// typo'd DSA_THREADS would otherwise run a different experiment.
TEST(Env, InvalidSetValuesThrow) {
  setenv("DSA_TEST_VAR", "text", 1);
  EXPECT_THROW(env_int("DSA_TEST_VAR", 7), std::runtime_error);
  EXPECT_THROW(env_double("DSA_TEST_VAR", 0.5), std::runtime_error);
  setenv("DSA_TEST_VAR", "12abc", 1);  // trailing garbage (e.g. "1O" typo)
  EXPECT_THROW(env_int("DSA_TEST_VAR", 7), std::runtime_error);
  setenv("DSA_TEST_VAR", "2.5mb", 1);
  EXPECT_THROW(env_double("DSA_TEST_VAR", 0.5), std::runtime_error);
  setenv("DSA_TEST_VAR", "-3", 1);
  EXPECT_THROW(env_int("DSA_TEST_VAR", 9), std::runtime_error);
  unsetenv("DSA_TEST_VAR");
}

TEST(Env, InvalidMessageNamesVariableAndValue) {
  setenv("DSA_TEST_VAR", "1O", 1);
  try {
    env_int("DSA_TEST_VAR", 7);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("DSA_TEST_VAR"), std::string::npos) << what;
    EXPECT_NE(what.find("1O"), std::string::npos) << what;
  }
  unsetenv("DSA_TEST_VAR");
}

// --------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, SubmitAndWaitIdle) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ZeroCountParallelForIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, DefaultThreadCountPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, WaitIdleRethrowsJobException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("job failed"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The error is cleared: the pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForRethrowsFirstException) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      ++ran;
      if (i == 3) throw std::invalid_argument("index 3 exploded");
    });
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::invalid_argument& error) {
    EXPECT_STREQ(error.what(), "index 3 exploded");
  }
  EXPECT_GT(ran.load(), 0);
}

TEST(ThreadPool, ChunkedParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  // Grain that doesn't divide the count: the last chunk is short.
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { ++hits[i]; }, /*grain=*/7);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedParallelForEmptyRangeIsNoop) {
  ThreadPool pool(3);
  bool called = false;
  pool.parallel_for(0, [&](std::size_t) { called = true; }, /*grain=*/16);
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ChunkedParallelForCountBelowThreads) {
  // Fewer indices than workers (and than one grain): everything still runs
  // exactly once and the extra lanes stay idle rather than double-running.
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(3, [&](std::size_t i) { ++hits[i]; }, /*grain=*/16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedParallelForGrainZeroBehavesLikeOne) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(50);
  pool.parallel_for(50, [&](std::size_t i) { ++hits[i]; }, /*grain=*/0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ChunkedParallelForExceptionSkipsRestOfChunkOnly) {
  ThreadPool pool(2);
  // One worker's chunk throws at its first index; the rest of that chunk is
  // skipped, other chunks still run, and the exception surfaces.
  std::vector<std::atomic<int>> hits(40);
  try {
    pool.parallel_for(
        40,
        [&](std::size_t i) {
          if (i == 10) throw std::runtime_error("chunk exploded");
          ++hits[i];
        },
        /*grain=*/10);
    FAIL() << "parallel_for should have rethrown";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "chunk exploded");
  }
  // Indices 11..19 shared the throwing chunk and must have been skipped; no
  // index anywhere ran twice.
  for (std::size_t i = 11; i < 20; ++i) EXPECT_EQ(hits[i].load(), 0) << i;
  for (const auto& h : hits) EXPECT_LE(h.load(), 1);
  // The pool survives for later work.
  std::atomic<int> count{0};
  pool.parallel_for(8, [&](std::size_t) { ++count; }, /*grain=*/3);
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPool, ZeroWorkersRunEverythingOnTheCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran_on(100);
  pool.parallel_for(100, [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  }, /*grain=*/3);
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  EXPECT_THROW(pool.submit([] {}), std::logic_error);
}

// A regression in these tests would block forever; each waits with a
// deadline instead, so it fails.
constexpr auto kHangTimeout = std::chrono::seconds(20);

TEST(ThreadPool, ParallelForCompletesOnTheCallerWhileEveryWorkerIsBlocked) {
  ThreadPool pool(2);
  std::latch release(1);
  for (std::size_t w = 0; w < pool.thread_count(); ++w) {
    pool.submit([&release] { release.wait(); });
  }
  std::vector<std::thread::id> ran_on(100);
  std::thread::id caller;
  auto done = std::async(std::launch::async, [&] {
    caller = std::this_thread::get_id();
    pool.parallel_for(100, [&](std::size_t i) {
      ran_on[i] = std::this_thread::get_id();
    });
  });
  const bool finished =
      done.wait_for(kHangTimeout) == std::future_status::ready;
  release.count_down();
  done.get();
  ASSERT_TRUE(finished) << "parallel_for waited for blocked workers";
  for (const auto& id : ran_on) EXPECT_EQ(id, caller);
  pool.wait_idle();
}

// Spins until `flag` is set or the deadline passes.
bool await_flag(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + kHangTimeout;
  while (!flag.load()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(ThreadPool, ConcurrentParallelForsKeepTheirOwnExceptions) {
  ThreadPool pool(2);
  // The throwing call fails only once the other call is running, and the
  // other call keeps running until the exception has been thrown.
  std::atomic<bool> other_running{false};
  std::atomic<bool> thrown{false};
  auto failing = std::async(std::launch::async, [&] {
    pool.parallel_for(50, [&](std::size_t i) {
      if (i != 0) return;
      (void)await_flag(other_running);
      thrown = true;
      throw std::runtime_error("failing call");
    });
  });
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(pool.parallel_for(50, [&](std::size_t i) {
    if (i == 0) {
      other_running = true;
      (void)await_flag(thrown);
    }
    ++ran;
  }));
  EXPECT_EQ(ran.load(), 50);
  EXPECT_THROW(failing.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForDoesNotRethrowASubmittedJobsException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("submitted job failed"); });
  std::atomic<int> ran{0};
  EXPECT_NO_THROW(pool.parallel_for(100, [&](std::size_t) { ++ran; }));
  EXPECT_EQ(ran.load(), 100);
  // The job's exception stays with wait_idle().
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
}

TEST(ThreadPool, ParallelForInsideAPoolJobCompletes) {
  // Leaked if the nested call hangs, so the failing test cannot block in
  // the pool's destructor.
  auto pool = std::make_unique<ThreadPool>(2);
  std::atomic<int> ran{0};
  std::promise<void> finished;
  pool->submit([&] {
    pool->parallel_for(100, [&](std::size_t) { ++ran; });
    finished.set_value();
  });
  if (finished.get_future().wait_for(kHangTimeout) !=
      std::future_status::ready) {
    (void)pool.release();
    FAIL() << "parallel_for inside a pool job did not complete";
  }
  EXPECT_EQ(ran.load(), 100);
  pool->wait_idle();
}

// ------------------------------------------------------- TablePrinter ----

TEST(TablePrinter, AlignsColumnsAndSeparates) {
  TablePrinter printer({"name", "v"});
  printer.add_row({"a", "1.00"});
  printer.add_row({"longer", "2"});
  std::ostringstream out;
  printer.print(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_EQ(printer.row_count(), 2u);
}

TEST(TablePrinter, RejectsWidthMismatch) {
  TablePrinter printer({"a", "b"});
  EXPECT_THROW(printer.add_row({"only"}), std::invalid_argument);
}

TEST(FixedFormat, ProducesRequestedDigits) {
  EXPECT_EQ(dsa::util::fixed(1.23456, 2), "1.23");
  EXPECT_EQ(dsa::util::fixed(0.5, 0), "0");  // rounds to even
  EXPECT_EQ(dsa::util::fixed(-2.0, 3), "-2.000");
}

// -------------------------------------------------------- Fingerprint ----

TEST(Fingerprint, MatchesManualHashChain) {
  // The chain must stay exactly this, or every committed spec fingerprint
  // (manifest names, provenance sidecars) would stop matching.
  const std::uint64_t salt = 2011 ^ 0x50a5c4ec8f21d3b7ULL;
  std::uint64_t expected = hash64(salt);
  for (const std::uint64_t v : {50ull, 3ull, 1ull, 24ull, 100000ull, 120ull}) {
    expected = hash64(expected ^ v);
  }
  const std::uint64_t got = Fingerprint(salt)
                                .mix(50)
                                .mix(3)
                                .mix(1)
                                .mix(24)
                                .mix(100000)
                                .mix(120)
                                .value();
  EXPECT_EQ(got, expected);
}

TEST(Fingerprint, StringMixIsLengthPrefixed) {
  // "ab" + "c" must not collide with "a" + "bc".
  const auto h1 = Fingerprint(1).mix("ab").mix("c").value();
  const auto h2 = Fingerprint(1).mix("a").mix("bc").value();
  EXPECT_NE(h1, h2);
}

TEST(Fingerprint, DoubleMixDistinguishesBitPatterns) {
  EXPECT_NE(Fingerprint(0).mix_double(1.0).value(),
            Fingerprint(0).mix_double(-1.0).value());
  EXPECT_EQ(Fingerprint(7).mix_double(0.1).value(),
            Fingerprint(7).mix_double(0.1).value());
}

TEST(Fingerprint, HexIsSixteenLowercaseDigits) {
  const std::string hex = Fingerprint(42).hex();
  EXPECT_EQ(hex.size(), 16u);
  for (const char c : hex) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << hex;
  }
}

TEST(ExactNumber, RoundTripsBitwise) {
  for (const double v : {0.1, 1.0 / 3.0, 206.7034833, 1e-300, -42.5, 0.0}) {
    const std::string text = exact_number(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

}  // namespace
