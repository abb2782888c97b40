// Trace replay: capture a workload with DIO, replay it against a fresh
// substrate, and verify the I/O pattern (operations, sizes, final file
// state) reproduces.
#include "service/replay.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "backend/bulk_client.h"
#include "test_util.h"
#include "tracer/tracer.h"

namespace dio::service {
namespace {

using dio::testing::TestEnv;

class ReplayTest : public ::testing::Test {
 protected:
  // Traces `workload` on a fresh env, returns the session store.
  template <typename Workload>
  void Capture(Workload&& workload) {
    TestEnv env;
    backend::BulkClientOptions client_options;
    client_options.network_latency_ns = 0;
    backend::BulkClient client(&store_, "capture", client_options);
    tracer::TracerOptions options;
    options.session_name = "capture";
    options.flush_interval_ns = kMillisecond;
    tracer::DioTracer tracer(&env.kernel, &client, options);
    ASSERT_TRUE(tracer.Start().ok());
    {
      auto task = env.Bind();
      workload(env.kernel);
    }
    tracer.Stop();
  }

  backend::ElasticStore store_;
};

TEST_F(ReplayTest, ReproducesFileStateAndReturnValues) {
  Capture([](os::Kernel& k) {
    k.sys_mkdir("/data/logs", 0755);
    const auto fd = static_cast<os::Fd>(k.sys_openat(
        os::kAtFdCwd, "/data/logs/app.log",
        os::openflag::kWriteOnly | os::openflag::kCreate));
    k.sys_write(fd, std::string(100, 'a'));
    k.sys_write(fd, std::string(50, 'b'));
    k.sys_fsync(fd);
    k.sys_close(fd);
    const auto rfd = static_cast<os::Fd>(k.sys_openat(
        os::kAtFdCwd, "/data/logs/app.log", os::openflag::kReadOnly));
    std::string buf;
    k.sys_read(rfd, &buf, 64);
    k.sys_lseek(rfd, 0, os::kSeekSet);
    k.sys_read(rfd, &buf, 200);
    k.sys_close(rfd);
    k.sys_rename("/data/logs/app.log", "/data/logs/app.old");
  });

  // Fresh substrate with the same mount.
  TestEnv replay_env;
  TraceReplayer replayer(&replay_env.kernel, &store_, "capture");
  auto stats = replayer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_GT(stats->replayed, 0u);
  EXPECT_EQ(stats->ret_mismatches, 0u);
  EXPECT_DOUBLE_EQ(stats->fidelity(), 1.0);

  // The replayed filesystem has the same shape.
  os::StatBuf st;
  auto task = replay_env.Bind();
  EXPECT_EQ(replay_env.kernel.sys_stat("/data/logs/app.old", &st), 0);
  EXPECT_EQ(st.size, 150u);
  EXPECT_EQ(replay_env.kernel.sys_stat("/data/logs/app.log", &st),
            -os::err::kENOENT);
}

TEST_F(ReplayTest, ReproducesDeleteRecreatePattern) {
  Capture([](os::Kernel& k) {
    auto fd = static_cast<os::Fd>(k.sys_creat("/data/x", 0644));
    k.sys_write(fd, std::string(26, 'x'));
    k.sys_close(fd);
    k.sys_unlink("/data/x");
    fd = static_cast<os::Fd>(k.sys_creat("/data/x", 0644));
    k.sys_write(fd, std::string(16, 'y'));
    k.sys_close(fd);
  });

  TestEnv replay_env;
  TraceReplayer replayer(&replay_env.kernel, &store_, "capture");
  auto stats = replayer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ret_mismatches, 0u);
  auto task = replay_env.Bind();
  os::StatBuf st;
  ASSERT_EQ(replay_env.kernel.sys_stat("/data/x", &st), 0);
  EXPECT_EQ(st.size, 16u);  // the second generation
}

TEST_F(ReplayTest, FailedSyscallsReplayAsFailures) {
  Capture([](os::Kernel& k) {
    os::StatBuf st;
    k.sys_stat("/data/missing", &st);       // -ENOENT
    k.sys_unlink("/data/also-missing");     // -ENOENT
    k.sys_mkdir("/data", 0755);             // -EEXIST
  });

  TestEnv replay_env;
  TraceReplayer replayer(&replay_env.kernel, &store_, "capture");
  auto stats = replayer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ret_mismatches, 0u)
      << "replayed=" << stats->replayed << " skipped=" << stats->skipped
      << " matches=" << stats->ret_matches;
  EXPECT_EQ(stats->ret_matches, 3u)
      << "replayed=" << stats->replayed << " skipped=" << stats->skipped
      << " mismatches=" << stats->ret_mismatches;
}

TEST_F(ReplayTest, MultiProcessTraceKeepsFdSpacesSeparate) {
  // Two traced processes interleave on the same file.
  {
    TestEnv env;
    backend::BulkClientOptions client_options;
    client_options.network_latency_ns = 0;
    backend::BulkClient client(&store_, "capture", client_options);
    tracer::TracerOptions options;
    options.session_name = "capture";
    options.flush_interval_ns = kMillisecond;
    tracer::DioTracer tracer(&env.kernel, &client, options);
    ASSERT_TRUE(tracer.Start().ok());

    const os::Pid p1 = env.kernel.CreateProcess("writer");
    const os::Tid t1 = env.kernel.SpawnThread(p1, "writer");
    const os::Pid p2 = env.kernel.CreateProcess("reader");
    const os::Tid t2 = env.kernel.SpawnThread(p2, "reader");
    {
      os::ScopedTask task(env.kernel, p1, t1);
      const auto fd = static_cast<os::Fd>(env.kernel.sys_creat("/data/m", 0644));
      env.kernel.sys_write(fd, std::string(10, 'w'));
      {
        os::ScopedTask inner(env.kernel, p2, t2);
        const auto rfd = static_cast<os::Fd>(env.kernel.sys_openat(
            os::kAtFdCwd, "/data/m", os::openflag::kReadOnly));
        std::string buf;
        env.kernel.sys_read(rfd, &buf, 10);
        env.kernel.sys_close(rfd);
      }
      env.kernel.sys_write(fd, std::string(5, 'w'));
      env.kernel.sys_close(fd);
    }
    tracer.Stop();
  }

  TestEnv replay_env;
  TraceReplayer replayer(&replay_env.kernel, &store_, "capture");
  auto stats = replayer.Run();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->skipped, 0u);
  EXPECT_EQ(stats->ret_mismatches, 0u);
  auto task = replay_env.Bind();
  os::StatBuf st;
  ASSERT_EQ(replay_env.kernel.sys_stat("/data/m", &st), 0);
  EXPECT_EQ(st.size, 15u);
}

TEST_F(ReplayTest, MissingIndexErrors) {
  TestEnv replay_env;
  TraceReplayer replayer(&replay_env.kernel, &store_, "ghost");
  EXPECT_FALSE(replayer.Run().ok());
}

// ---------------------------------------------------------------------------
// LoadSpool edge cases: the spool is what crash recovery replays, so the
// loader has to be exact about torn tails, corruption, line numbers, and
// at-least-once duplicates.

class SpoolLoadTest : public ::testing::Test {
 protected:
  // Writes `content` verbatim (no newline appended) to a fresh spool file.
  // The name carries the test name and pid: ctest runs each test as its own
  // process, in parallel, all sharing one temp directory.
  std::string WriteSpool(const std::string& content) {
    const std::string path =
        ::testing::TempDir() + "spool_load_test_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
        std::to_string(::getpid()) + "_" + std::to_string(counter_++) +
        ".ndjson";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
    out.close();
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  static std::string Doc(int id) {
    return "{\"syscall\": \"write\", \"tid\": 7, \"time_enter\": " +
           std::to_string(1000 + id) + "}";
  }

  backend::ElasticStore store_;
  std::vector<std::string> paths_;
  int counter_ = 0;
};

TEST_F(SpoolLoadTest, ZeroByteSpoolLoadsNothing) {
  const std::string path = WriteSpool("");
  auto stats = LoadSpool(&store_, path, "empty", SpoolLoadOptions{});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->loaded, 0u);
  EXPECT_EQ(stats->duplicates, 0u);
  EXPECT_FALSE(stats->truncated_tail);
  // Strict form agrees.
  auto strict = LoadSpool(&store_, path, "empty-strict");
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(*strict, 0u);
}

TEST_F(SpoolLoadTest, MissingSpoolIsNotFound) {
  auto stats = LoadSpool(&store_, ::testing::TempDir() + "nope.ndjson",
                         "gone", SpoolLoadOptions{});
  EXPECT_FALSE(stats.ok());
}

TEST_F(SpoolLoadTest, TruncatedFinalLineToleratedOnlyWithFlag) {
  // A crash mid-flush tears the last line: no trailing newline, half a doc.
  const std::string path =
      WriteSpool(Doc(1) + "\n" + Doc(2) + "\n" + "{\"syscall\": \"wri");

  auto strict = LoadSpool(&store_, path, "torn-strict");
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("line 3"), std::string::npos)
      << strict.status().message();

  SpoolLoadOptions tolerant;
  tolerant.allow_truncated_tail = true;
  auto stats = LoadSpool(&store_, path, "torn", tolerant);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->loaded, 2u);
  EXPECT_TRUE(stats->truncated_tail);
  EXPECT_EQ(*store_.Count("torn", backend::Query::MatchAll()), 2u);
}

TEST_F(SpoolLoadTest, CorruptLineWithTrailingNewlineIsNotATornTail) {
  // The bad line is last but newline-terminated: that is corruption, not a
  // torn write — the tolerance flag must not mask it.
  const std::string path = WriteSpool(Doc(1) + "\n{\"syscall\": \"wri\n");
  SpoolLoadOptions tolerant;
  tolerant.allow_truncated_tail = true;
  auto stats = LoadSpool(&store_, path, "corrupt-tail", tolerant);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("line 2"), std::string::npos)
      << stats.status().message();
}

TEST_F(SpoolLoadTest, InteriorCorruptionFailsEvenWhenTolerant) {
  const std::string path =
      WriteSpool(Doc(1) + "\nnot json\n" + Doc(2) + "\n");
  SpoolLoadOptions tolerant;
  tolerant.allow_truncated_tail = true;
  auto stats = LoadSpool(&store_, path, "interior", tolerant);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("line 2"), std::string::npos)
      << stats.status().message();
}

TEST_F(SpoolLoadTest, BlankLinesCountTowardReportedLineNumbers) {
  const std::string path =
      WriteSpool("\n" + Doc(1) + "\n\n\nbroken\n" + Doc(2) + "\n");
  auto stats = LoadSpool(&store_, path, "blanks", SpoolLoadOptions{});
  ASSERT_FALSE(stats.ok());
  // "broken" sits on physical line 5 (blank lines 1, 3, 4 included).
  EXPECT_NE(stats.status().message().find("line 5"), std::string::npos)
      << stats.status().message();
}

TEST_F(SpoolLoadTest, DedupeRestoresExactlyOnceAfterDuplicatedFlush) {
  // An at-least-once spool: a retry above the fan-out re-drove a whole
  // batch after a lost ack, so docs 1 and 2 appear twice, interleaved the
  // way a re-driven batch lands — after the first copy of the batch.
  const std::string path = WriteSpool(Doc(1) + "\n" + Doc(2) + "\n" +
                                      Doc(1) + "\n" + Doc(2) + "\n" +
                                      Doc(3) + "\n");
  SpoolLoadOptions dedupe;
  dedupe.dedupe = true;
  auto stats = LoadSpool(&store_, path, "dedupe", dedupe);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->loaded, 3u);
  EXPECT_EQ(stats->duplicates, 2u);
  EXPECT_EQ(*store_.Count("dedupe", backend::Query::MatchAll()), 3u);

  // Without dedupe the same spool double-indexes — the failure mode the
  // option exists for.
  auto verbatim = LoadSpool(&store_, path, "verbatim", SpoolLoadOptions{});
  ASSERT_TRUE(verbatim.ok());
  EXPECT_EQ(verbatim->loaded, 5u);
  EXPECT_EQ(*store_.Count("verbatim", backend::Query::MatchAll()), 5u);
}

TEST_F(SpoolLoadTest, DedupeStillLoadsAcrossBatchBoundaries) {
  // More docs than one 512-doc bulk batch, every line duplicated: the
  // flush boundary must not reset or double-count anything.
  std::string content;
  for (int i = 0; i < 600; ++i) content += Doc(i) + "\n" + Doc(i) + "\n";
  const std::string path = WriteSpool(content);
  SpoolLoadOptions dedupe;
  dedupe.dedupe = true;
  auto stats = LoadSpool(&store_, path, "big-dedupe", dedupe);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->loaded, 600u);
  EXPECT_EQ(stats->duplicates, 600u);
  EXPECT_EQ(*store_.Count("big-dedupe", backend::Query::MatchAll()), 600u);
}

}  // namespace
}  // namespace dio::service
