// Crash-consistency drills for the evidence bundle: SIGKILL a child
// process at seeded points of a streaming run (including mid-checkpoint
// write), repair the bundle with prepare_recovery / StreamDriver::recover,
// and require the recovered events.jsonl to be byte-identical to an
// uninterrupted run's. Torn or bit-flipped checkpoints must be detected and
// skipped, never loaded.
#include "sim/evidence.h"

#include <gtest/gtest.h>

#include <csignal>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <system_error>
#include <sys/wait.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "algo/registry.h"
#include "common/error.h"
#include "sim/stream.h"

namespace tsajs::sim {
namespace {

namespace fs = std::filesystem;

StreamConfig drill_config() {
  StreamConfig config;
  config.duration_s = 12.0;
  config.arrival_rate_hz = 1.5;
  config.lifetime_min_s = 2.0;
  config.lifetime_max_s = 6.0;
  config.decision_budget.max_iterations = 200;
  config.checkpoint_interval_s = 3.0;
  config.admission.max_backlog = 4;
  return config;
}

constexpr std::uint64_t kSeed = 77;
constexpr const char* kScheme = "greedy";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << "cannot write " << path;
  out << body;
}

/// This process's scratch root under the gtest temp root. The pid keeps
/// concurrent test processes (ctest -j runs one per test) out of each
/// other's bundles.
std::string process_root() {
  return testing::TempDir() + "tsajs-crash-" + std::to_string(::getpid());
}

/// Fresh directory under the process root; wiped if an earlier test of
/// this process left one behind.
std::string fresh_dir(const std::string& name) {
  const std::string dir = process_root() + "/" + name;
  fs::remove_all(dir);
  return dir;
}

/// The uninterrupted reference bundle all drills compare against. Built
/// once per test binary (the driver is deterministic, so rebuilding it
/// would produce the same bytes anyway).
class CrashRecoveryTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    driver_ = new StreamDriver(4, 3, drill_config());
    scheduler_ = algo::make_scheduler(kScheme).release();
    const std::string dir = fresh_dir("reference");
    EvidenceWriter evidence(dir);
    evidence.write_run_json(driver_->config(), driver_->num_servers(),
                            driver_->num_subchannels(), kSeed, kScheme);
    const StreamReport report =
        driver_->run(*scheduler_, kSeed, &evidence);
    evidence.finish(report, kScheme);
    std::string events = read_file(dir + "/events.jsonl");
    ASSERT_FALSE(events.empty());
    // Published last: a set-up that failed above leaves both null, and
    // SetUp() turns that into a failure of every test.
    reference_dir_ = new std::string(dir);
    reference_events_ = new std::string(std::move(events));
  }

  static void TearDownTestSuite() {
    delete reference_events_;
    delete reference_dir_;
    delete scheduler_;
    delete driver_;
    reference_events_ = nullptr;
    reference_dir_ = nullptr;
    scheduler_ = nullptr;
    driver_ = nullptr;
    std::error_code ignored;
    fs::remove_all(process_root(), ignored);
  }

  void SetUp() override {
    ASSERT_NE(reference_events_, nullptr)
        << "SetUpTestSuite failed to build the reference bundle";
  }

  /// Copies the clean reference bundle into a scratch directory the test
  /// can then damage.
  static std::string damaged_copy(const std::string& name) {
    const std::string dir = fresh_dir(name);
    fs::copy(*reference_dir_, dir, fs::copy_options::recursive);
    return dir;
  }

  /// Runs recover() on `dir` and requires the repaired events.jsonl to be
  /// byte-identical to the uninterrupted reference.
  static RecoveryInfo recover_and_verify(const std::string& dir) {
    RecoveryInfo info;
    (void)driver_->recover(*scheduler_, dir, &info);
    EXPECT_EQ(read_file(dir + "/events.jsonl"), *reference_events_)
        << "recovered bundle in " << dir << " diverged from the reference";
    return info;
  }

  static StreamDriver* driver_;
  static algo::Scheduler* scheduler_;
  static std::string* reference_dir_;
  static std::string* reference_events_;
};

StreamDriver* CrashRecoveryTest::driver_ = nullptr;
algo::Scheduler* CrashRecoveryTest::scheduler_ = nullptr;
std::string* CrashRecoveryTest::reference_dir_ = nullptr;
std::string* CrashRecoveryTest::reference_events_ = nullptr;

/// Forwards to an inner sink and SIGKILLs the process at a seeded point:
/// after the Nth event, or — when `crash_in_checkpoint` — on the Nth
/// checkpoint *before* the checkpoint file is written (the event line is
/// already in the stdio buffer: the worst-ordered crash the durability
/// barrier has to survive).
struct CrashSink : StreamSink {
  StreamSink* inner = nullptr;
  std::size_t events_remaining = 0;
  std::size_t checkpoints_remaining = 0;

  void on_event(const StreamEvent& event) override {
    inner->on_event(event);
    if (events_remaining > 0 && --events_remaining == 0) {
      (void)std::raise(SIGKILL);
    }
  }
  void on_decision(const DecisionRecord& record) override {
    inner->on_decision(record);
  }
  void on_checkpoint(const StreamCheckpoint& checkpoint) override {
    if (checkpoints_remaining > 0 && --checkpoints_remaining == 0) {
      (void)std::raise(SIGKILL);
    }
    inner->on_checkpoint(checkpoint);
  }
};

/// Runs the drill run in a forked child that kills itself at the seeded
/// crash point, then verifies the child actually died by SIGKILL.
void run_killed_child(const StreamDriver& driver,
                      const algo::Scheduler& scheduler,
                      const std::string& dir, std::size_t crash_after_events,
                      std::size_t crash_in_checkpoint) {
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: never returns into gtest. _exit(2) would mean the run outlived
    // the crash point — the parent treats that as a drill failure.
    EvidenceWriter evidence(dir);
    evidence.write_run_json(driver.config(), driver.num_servers(),
                            driver.num_subchannels(), kSeed, kScheme);
    CrashSink crash;
    crash.inner = &evidence;
    crash.events_remaining = crash_after_events;
    crash.checkpoints_remaining = crash_in_checkpoint;
    (void)driver.run(scheduler, kSeed, &crash);
    ::_exit(2);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status))
      << "child exited instead of crashing (status " << status << ")";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

// The core drill: SIGKILL at 20 seeded event counts spread across the run
// (before the first checkpoint, straddling each checkpoint, and deep into
// the tail), recover each bundle, and require byte-identity.
TEST_F(CrashRecoveryTest, SigkillAtTwentySeededPointsRecoversByteIdentically) {
  std::size_t total_lines = 0;
  for (const char c : *reference_events_) total_lines += (c == '\n');
  ASSERT_GE(total_lines, 22u) << "reference run too short for the drill";

  std::vector<std::size_t> crash_points;
  for (std::size_t i = 1; i <= 20; ++i) {
    crash_points.push_back(1 + (i - 1) * (total_lines - 2) / 19);
  }
  for (const std::size_t after : crash_points) {
    SCOPED_TRACE("crash after event " + std::to_string(after));
    const std::string dir = fresh_dir("event-" + std::to_string(after));
    run_killed_child(*driver_, *scheduler_, dir, after, 0);
    // Note: stdio buffering means the on-disk log may end well before event
    // `after` — only lines up to the last checkpoint fsync are guaranteed.
    // Byte-identity of the recovered log is the whole contract.
    (void)recover_and_verify(dir);
  }
}

// SIGKILL inside the checkpoint barrier: the checkpoint's own event line is
// buffered (maybe even flushed) but the checkpoint file never lands.
// Recovery must fall back to the previous checkpoint — or to t=0 for the
// first — and still reproduce every byte.
TEST_F(CrashRecoveryTest, SigkillMidCheckpointWriteRecovers) {
  for (const std::size_t nth : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE("crash in checkpoint " + std::to_string(nth));
    const std::string dir = fresh_dir("ckpt-" + std::to_string(nth));
    run_killed_child(*driver_, *scheduler_, dir, 0, nth);
    const RecoveryInfo info = recover_and_verify(dir);
    EXPECT_EQ(info.checkpoints_scanned, nth - 1);
  }
}

// A torn final event line (power loss mid-write) is dropped by
// prepare_recovery and regenerated by the replay.
TEST_F(CrashRecoveryTest, TornFinalEventLineIsDroppedAndRegenerated) {
  const std::string dir = damaged_copy("torn-line");
  const std::string path = dir + "/events.jsonl";
  std::string events = read_file(path);
  // Chop mid-line: strip the final newline and half the last line.
  const std::size_t last_nl = events.find_last_of('\n', events.size() - 2);
  const std::size_t keep = last_nl + (events.size() - last_nl) / 2;
  write_file(path, events.substr(0, keep));

  const RecoveryInfo info = recover_and_verify(dir);
  EXPECT_TRUE(info.has_checkpoint());
  EXPECT_GE(info.events_dropped, 1u);  // includes the torn fragment
}

// A checkpoint truncated on disk (torn write / bad sector) fails its CRC
// trailer: read_checkpoint_file throws, prepare_recovery skips it and falls
// back to the previous ordinal.
std::string newest_checkpoint(const std::string& dir) {
  std::uint64_t newest = 0;
  std::string newest_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) != 0) continue;
    const std::uint64_t ordinal =
        std::stoull(name.substr(11, name.size() - 16));
    if (newest_path.empty() || ordinal > newest) {
      newest = ordinal;
      newest_path = entry.path().string();
    }
  }
  return newest_path;
}

TEST_F(CrashRecoveryTest, TruncatedCheckpointIsSkippedNeverLoaded) {
  const std::string dir = damaged_copy("torn-ckpt");
  const std::string newest_path = newest_checkpoint(dir);
  ASSERT_FALSE(newest_path.empty());
  const std::string body = read_file(newest_path);
  write_file(newest_path, body.substr(0, body.size() / 2));

  EXPECT_THROW((void)read_checkpoint_file(newest_path), InvalidArgumentError);
  const RecoveryInfo info = recover_and_verify(dir);
  EXPECT_GE(info.checkpoints_skipped, 1u);
  EXPECT_NE(info.checkpoint_path, newest_path);
}

// Same for silent bit rot anywhere in the checkpoint body: the CRC trailer
// catches it, the checkpoint is skipped, the previous one takes over.
TEST_F(CrashRecoveryTest, BitFlippedCheckpointIsSkippedNeverLoaded) {
  const std::string dir = damaged_copy("flip-ckpt");
  const std::string path = newest_checkpoint(dir);
  ASSERT_FALSE(path.empty());
  std::string body = read_file(path);
  ASSERT_GT(body.size(), 10u);
  body[body.size() / 3] = static_cast<char>(body[body.size() / 3] ^ 0x08);
  write_file(path, body);

  EXPECT_THROW((void)read_checkpoint_file(path), InvalidArgumentError);
  const RecoveryInfo info = recover_and_verify(dir);
  EXPECT_GE(info.checkpoints_skipped, 1u);
  EXPECT_NE(info.checkpoint_path, path);
}

// With every checkpoint destroyed the bundle still recovers: restart from
// t=0 with the seed recorded in run.json.
TEST_F(CrashRecoveryTest, NoUsableCheckpointRestartsFromZero) {
  const std::string dir = damaged_copy("no-ckpt");
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("checkpoint-", 0) == 0) {
      fs::remove(entry.path());
    }
  }
  // Lose most of the log too, for good measure.
  const std::string events = read_file(dir + "/events.jsonl");
  write_file(dir + "/events.jsonl", events.substr(0, events.size() / 4));

  const RecoveryInfo info = recover_and_verify(dir);
  EXPECT_FALSE(info.has_checkpoint());
  EXPECT_EQ(info.events_kept, 0u);
}

/// Every file of a bundle directory, by name.
std::map<std::string, std::string> bundle_files(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = read_file(entry.path());
  }
  return files;
}

// recover() refuses a bundle written under a different stream
// configuration (the digest in run.json), a different server or
// sub-channel grid, or a different scheme — and refuses before it touches
// anything: the torn bundle stays byte-identical, so the right driver can
// still recover it afterwards.
TEST_F(CrashRecoveryTest, RecoverRefusesMismatchedConfig) {
  const std::string dir = damaged_copy("mismatch");
  const std::string events = read_file(dir + "/events.jsonl");
  write_file(dir + "/events.jsonl", events.substr(0, events.size() - 7));
  const std::map<std::string, std::string> before = bundle_files(dir);

  StreamConfig other = drill_config();
  other.arrival_rate_hz = 2.0;
  const StreamDriver other_config(4, 3, other);
  const StreamDriver more_servers(9, 3, drill_config());
  const StreamDriver fewer_servers(2, 3, drill_config());
  const StreamDriver more_subchannels(4, 5, drill_config());
  const auto other_scheme = algo::make_scheduler("tsajs");
  const std::vector<std::pair<const char*, std::function<void()>>> cases = {
      {"config", [&] { (void)other_config.recover(*scheduler_, dir); }},
      {"9 servers", [&] { (void)more_servers.recover(*scheduler_, dir); }},
      {"2 servers", [&] { (void)fewer_servers.recover(*scheduler_, dir); }},
      {"5 sub-channels",
       [&] { (void)more_subchannels.recover(*scheduler_, dir); }},
      {"scheme", [&] { (void)driver_->recover(*other_scheme, dir); }},
  };
  for (const auto& [name, recover] : cases) {
    SCOPED_TRACE(name);
    EXPECT_THROW(recover(), Error);
    EXPECT_EQ(bundle_files(dir), before);
  }
  (void)recover_and_verify(dir);
}

// resume() refuses a checkpoint whose carried slot lies outside the
// driver's grid before it emits a single event.
TEST_F(CrashRecoveryTest, ResumeRefusesSlotOutsideTheGrid) {
  StreamCheckpoint outside;
  bool found = false;
  for (const auto& entry : fs::directory_iterator(*reference_dir_)) {
    if (found) break;
    if (entry.path().filename().string().rfind("checkpoint-", 0) != 0) {
      continue;
    }
    outside = read_checkpoint_file(entry.path().string());
    for (const SessionState& s : outside.active) {
      found = found || (s.has_slot && s.server >= 2);
    }
  }
  ASSERT_TRUE(found) << "no reference checkpoint carries a slot on server 2+";

  struct CountingSink : StreamSink {
    std::size_t events = 0;
    void on_event(const StreamEvent&) override { ++events; }
  } sink;
  const StreamDriver smaller(2, 3, drill_config());
  EXPECT_THROW((void)smaller.resume(*scheduler_, outside, &sink), Error);
  EXPECT_EQ(sink.events, 0u);
}

TEST_F(CrashRecoveryTest, PrepareRecoveryRequiresAnEventLog) {
  const std::string dir = fresh_dir("empty");
  fs::create_directories(dir);
  EXPECT_THROW((void)prepare_recovery(dir), Error);
}

// Durable checkpoint file I/O: CRC trailer present, round-trip exact, and
// every single-byte corruption of the file is detected.
TEST_F(CrashRecoveryTest, CheckpointFileRoundTripsWithCrcTrailer) {
  const std::string dir = fresh_dir("roundtrip");
  fs::create_directories(dir);
  StreamCheckpoint cp;
  cp.config_digest = driver_->config().digest();
  cp.seed = kSeed;
  cp.sim_time_s = 6.125;
  cp.decisions = 9;
  cp.fault_steps = 4;
  cp.checkpoints_emitted = 2;
  SessionState session;
  session.id = 5;
  session.x = 120.5;
  session.cycles = 2.5e9;
  session.depart_time_s = 11.75;
  session.has_slot = true;
  session.server = 2;
  cp.active.push_back(session);

  const std::string path = dir + "/checkpoint-2.json";
  write_checkpoint_file(path, cp);
  const std::string body = read_file(path);
  EXPECT_NE(body.find("#crc32:"), std::string::npos);

  const StreamCheckpoint restored = read_checkpoint_file(path);
  EXPECT_EQ(restored.sim_time_s, cp.sim_time_s);  // bitwise
  EXPECT_EQ(restored.decisions, cp.decisions);
  ASSERT_EQ(restored.active.size(), 1u);
  EXPECT_EQ(restored.active[0].id, 5u);
  EXPECT_EQ(restored.active[0].depart_time_s, 11.75);

  // No temp file left behind by the atomic rename.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& entry : fs::directory_iterator(dir)) {
    ++entries;
  }
  EXPECT_EQ(entries, 1u);

  for (std::size_t i = 0; i < body.size(); i += 7) {
    std::string corrupt = body;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    write_file(path, corrupt);
    EXPECT_THROW((void)read_checkpoint_file(path), InvalidArgumentError)
        << "undetected corruption at byte " << i;
  }
}

}  // namespace
}  // namespace tsajs::sim
