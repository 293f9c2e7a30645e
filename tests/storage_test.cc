#include <gtest/gtest.h>
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <thread>

#include "common/random.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "storage/byte_stream.h"
#include "storage/io_backend.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "storage/storage_manager.h"
#include "test_util.h"

namespace payg {
namespace {

class StorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = TestDir("storage");
    std::filesystem::remove_all(dir_);
    auto sm = StorageManager::Open(dir_, StorageOptions());
    ASSERT_TRUE(sm.ok()) << sm.status().ToString();
    storage_ = std::move(*sm);
  }

  void TearDown() override {
    storage_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<StorageManager> storage_;
};

TEST_F(StorageTest, PageHeaderIs64Bytes) {
  EXPECT_EQ(sizeof(PageHeader), 64u);
  Page p(4096);
  EXPECT_EQ(p.capacity(), 4096u - 64u);
}

TEST_F(StorageTest, PageChecksumRoundtrip) {
  Page p(4096);
  std::memcpy(p.payload(), "hello world", 11);
  p.set_payload_size(11);
  p.SealChecksum();
  EXPECT_TRUE(p.VerifyChecksum());
  p.payload()[3] ^= 0xFF;
  EXPECT_FALSE(p.VerifyChecksum());
}

TEST_F(StorageTest, AppendAndReadBack) {
  auto file = storage_->CreateChain("chain", 4096);
  ASSERT_TRUE(file.ok());
  for (int i = 0; i < 10; ++i) {
    Page p(4096);
    p.set_type(PageType::kDataVector);
    std::string content = "page " + std::to_string(i);
    std::memcpy(p.payload(), content.data(), content.size());
    p.set_payload_size(static_cast<uint32_t>(content.size()));
    auto lpn = (*file)->AppendPage(&p);
    ASSERT_TRUE(lpn.ok());
    EXPECT_EQ(*lpn, static_cast<LogicalPageNo>(i));
  }
  EXPECT_EQ((*file)->page_count(), 10u);
  Page p(4096);
  for (int i = 9; i >= 0; --i) {
    ASSERT_TRUE((*file)->ReadPage(i, &p).ok());
    std::string expect = "page " + std::to_string(i);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(p.payload()),
                          p.payload_size()),
              expect);
    EXPECT_EQ(p.type(), PageType::kDataVector);
    EXPECT_EQ(p.header()->logical_page_no, static_cast<LogicalPageNo>(i));
  }
}

TEST_F(StorageTest, ReadPastEndFails) {
  auto file = storage_->CreateChain("chain", 4096);
  ASSERT_TRUE(file.ok());
  Page p(4096);
  auto s = (*file)->ReadPage(0, &p);
  EXPECT_TRUE(s.IsOutOfRange());
}

TEST_F(StorageTest, ReopenExistingChain) {
  {
    auto file = storage_->CreateChain("persist", 4096);
    ASSERT_TRUE(file.ok());
    Page p(4096);
    p.set_payload_size(0);
    ASSERT_TRUE((*file)->AppendPage(&p).ok());
    ASSERT_TRUE(storage_->SyncChains().ok());
  }
  auto reopened = storage_->OpenChain("persist", 4096);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 1u);
}

TEST_F(StorageTest, OpenMissingChainFails) {
  auto r = storage_->OpenChain("does_not_exist", 4096);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST_F(StorageTest, CorruptionIsDetected) {
  auto file = storage_->CreateChain("corrupt", 4096);
  ASSERT_TRUE(file.ok());
  Page p(4096);
  std::memcpy(p.payload(), "sensitive", 9);
  p.set_payload_size(9);
  ASSERT_TRUE((*file)->AppendPage(&p).ok());
  file->reset();

  // Flip a payload byte directly in the file.
  {
    std::string path = dir_ + "/corrupt";
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 64 + 2, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 64 + 2, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto reopened = storage_->OpenChain("corrupt", 4096);
  ASSERT_TRUE(reopened.ok());
  Page q(4096);
  auto s = (*reopened)->ReadPage(0, &q);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(StorageTest, OversizedPayloadSizeRejected) {
  // A header claiming more payload than the page holds must be rejected
  // before anything (the CRC walk included) strides payload_size bytes.
  auto file = storage_->CreateChain("oversize", 4096);
  ASSERT_TRUE(file.ok());
  Page p(4096);
  std::memcpy(p.payload(), "payload", 7);
  p.set_payload_size(7);
  ASSERT_TRUE((*file)->AppendPage(&p).ok());
  file->reset();

  // payload_size lives at header offset 24 (magic + version/type + lpn +
  // structure_id), outside the payload CRC.
  {
    std::string path = dir_ + "/oversize";
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const uint32_t huge = 0xFFFFFFF0u;
    ASSERT_EQ(std::fseek(f, 24, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&huge, sizeof(huge), 1, f), 1u);
    std::fclose(f);
  }
  auto reopened = storage_->OpenChain("oversize", 4096);
  ASSERT_TRUE(reopened.ok());
  Page q(4096);
  auto s = (*reopened)->ReadPage(0, &q);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(s.ToString().find("exceeds page capacity"), std::string::npos)
      << s.ToString();
}

TEST_F(StorageTest, MismatchedPageSizeOnOpenFails) {
  {
    auto file = storage_->CreateChain("sized", 4096);
    ASSERT_TRUE(file.ok());
    Page p(4096);
    ASSERT_TRUE((*file)->AppendPage(&p).ok());
  }
  auto r = storage_->OpenChain("sized", 4096 * 3);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsCorruption());
}

TEST_F(StorageTest, IoStatsCountTraffic) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* pages_written = reg.counter("storage.write.pages");
  obs::Counter* pages_read = reg.counter("storage.read.pages");
  obs::Counter* bytes_written = reg.counter("storage.write.bytes");
  const uint64_t pages_written0 = pages_written->value();
  const uint64_t pages_read0 = pages_read->value();
  const uint64_t bytes_written0 = bytes_written->value();
  auto file = storage_->CreateChain("stats", 4096);
  ASSERT_TRUE(file.ok());
  Page p(4096);
  ASSERT_TRUE((*file)->AppendPage(&p).ok());
  ASSERT_TRUE((*file)->AppendPage(&p).ok());
  ASSERT_TRUE((*file)->ReadPage(1, &p).ok());
  EXPECT_EQ(pages_written->value() - pages_written0, 2u);
  EXPECT_EQ(pages_read->value() - pages_read0, 1u);
  EXPECT_EQ(bytes_written->value() - bytes_written0, 2u * 4096u);
}

TEST_F(StorageTest, DropChainRemovesFile) {
  {
    auto file = storage_->CreateChain("gone", 4096);
    ASSERT_TRUE(file.ok());
  }
  ASSERT_TRUE(storage_->DropChain("gone").ok());
  EXPECT_FALSE(storage_->OpenChain("gone", 4096).ok());
}

TEST_F(StorageTest, ByteStreamRoundtripAcrossPages) {
  auto file = storage_->CreateChain("stream", 4096);
  ASSERT_TRUE(file.ok());
  Random rng(5);
  std::vector<uint64_t> numbers;
  std::vector<std::string> strings;
  {
    ChainByteWriter w(file->get());
    w.PutU8(0xAB);
    for (int i = 0; i < 2000; ++i) {  // well past one page
      uint64_t v = rng.Next();
      numbers.push_back(v);
      w.PutU64(v);
    }
    for (int i = 0; i < 50; ++i) {
      std::string s(rng.Uniform(300), static_cast<char>('a' + i % 26));
      strings.push_back(s);
      w.PutString(s);
    }
    w.PutI64(-123456789);
    w.PutDouble(3.5);
    ASSERT_TRUE(w.Finish().ok());
  }
  EXPECT_GT((*file)->page_count(), 3u);
  ChainByteReader r(file->get());
  auto u8 = r.GetU8();
  ASSERT_TRUE(u8.ok());
  EXPECT_EQ(*u8, 0xAB);
  for (uint64_t expect : numbers) {
    auto v = r.GetU64();
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(*v, expect);
  }
  for (const std::string& expect : strings) {
    auto s = r.GetString();
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(*s, expect);
  }
  auto i = r.GetI64();
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(*i, -123456789);
  auto d = r.GetDouble();
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, 3.5);
  // Stream exhausted now.
  EXPECT_TRUE(r.GetU64().status().IsOutOfRange());
}

TEST_F(StorageTest, ByteStreamEmptyStream) {
  auto file = storage_->CreateChain("empty", 4096);
  ASSERT_TRUE(file.ok());
  {
    ChainByteWriter w(file->get());
    ASSERT_TRUE(w.Finish().ok());
  }
  EXPECT_EQ((*file)->page_count(), 1u);  // one empty page marks the stream
  ChainByteReader r(file->get());
  EXPECT_TRUE(r.GetU8().status().IsOutOfRange());
}

TEST_F(StorageTest, NonCriticalChainsUseScmLatency) {
  StorageOptions opts;
  opts.simulated_read_latency_us = 5000;  // "disk"
  opts.scm_for_noncritical = true;
  opts.scm_read_latency_us = 0;  // SCM modeled as free here
  auto sm = StorageManager::Open(dir_ + "/scm", opts);
  ASSERT_TRUE(sm.ok());

  auto disk_chain = (*sm)->CreateChain("critical", 4096);
  ASSERT_TRUE(disk_chain.ok());
  auto scm_chain = (*sm)->CreateNonCriticalChain("rebuildable", 4096);
  ASSERT_TRUE(scm_chain.ok());
  Page p(4096);
  ASSERT_TRUE((*disk_chain)->AppendPage(&p).ok());
  ASSERT_TRUE((*scm_chain)->AppendPage(&p).ok());

  Stopwatch disk_timer;
  ASSERT_TRUE((*disk_chain)->ReadPage(0, &p).ok());
  double disk_ms = disk_timer.ElapsedMillis();
  Stopwatch scm_timer;
  ASSERT_TRUE((*scm_chain)->ReadPage(0, &p).ok());
  double scm_ms = scm_timer.ElapsedMillis();
  EXPECT_GE(disk_ms, 4.0);
  EXPECT_LT(scm_ms, disk_ms / 4);
}

TEST_F(StorageTest, NonCriticalChainsMatchDiskWhenScmDisabled) {
  StorageOptions opts;
  opts.simulated_read_latency_us = 2000;
  opts.scm_for_noncritical = false;
  auto sm = StorageManager::Open(dir_ + "/noscm", opts);
  ASSERT_TRUE(sm.ok());
  auto chain = (*sm)->CreateNonCriticalChain("x", 4096);
  ASSERT_TRUE(chain.ok());
  Page p(4096);
  ASSERT_TRUE((*chain)->AppendPage(&p).ok());
  Stopwatch timer;
  ASSERT_TRUE((*chain)->ReadPage(0, &p).ok());
  EXPECT_GE(timer.ElapsedMillis(), 1.5);
}

// Remaining EINTR injections; the hook is consulted before every read
// syscall on any backend, so a positive budget interrupts the next calls.
std::atomic<int> g_eintr_budget{0};
int EintrHook() { return g_eintr_budget.fetch_sub(1) > 0 ? EINTR : 0; }

// One-shot EIO injection.
std::atomic<int> g_eio_budget{0};
int EioHook() { return g_eio_budget.fetch_sub(1) > 0 ? EIO : 0; }

// Runs every batched-I/O test under both backends. The uring leg skips
// (not fails) on kernels without io_uring, which is what lets CI pin
// PAYG_IO_BACKEND=uring on hosts that may lack it.
class IoBackendTest : public StorageTest,
                      public ::testing::WithParamInterface<const char*> {
 protected:
  void SetUp() override {
    StorageTest::SetUp();
    if (std::strcmp(GetParam(), "uring") == 0 && !IoUringAvailable()) {
      GTEST_SKIP() << "io_uring unavailable on this kernel";
    }
    saved_backend_ = CurrentIoBackend()->name();
    ASSERT_TRUE(SetIoBackend(GetParam()).ok());
  }

  void TearDown() override {
    SetIoFaultHookForTest(nullptr);
    g_eintr_budget.store(0);
    g_eio_budget.store(0);
    if (saved_backend_ != nullptr) {
      ASSERT_TRUE(SetIoBackend(saved_backend_).ok());
    }
    StorageTest::TearDown();
  }

  // Move-only Page has no fill constructor.
  static std::vector<Page> MakePages(size_t n) {
    std::vector<Page> v;
    v.reserve(n);
    for (size_t i = 0; i < n; ++i) v.emplace_back(4096);
    return v;
  }

  // Appends `n` pages whose payload identifies their lpn.
  std::unique_ptr<PageFile> MakeChain(const std::string& name, int n) {
    auto file = storage_->CreateChain(name, 4096);
    EXPECT_TRUE(file.ok());
    for (int i = 0; i < n; ++i) {
      Page p(4096);
      std::string content = "batch page " + std::to_string(i);
      std::memcpy(p.payload(), content.data(), content.size());
      p.set_payload_size(static_cast<uint32_t>(content.size()));
      EXPECT_TRUE((*file)->AppendPage(&p).ok());
    }
    return std::move(*file);
  }

  const char* saved_backend_ = nullptr;
};

TEST_P(IoBackendTest, BatchRoundtripCallsDoneOncePerPage) {
  auto file = MakeChain("batch", 16);
  auto* batches = obs::MetricsRegistry::Global().counter("io.batches_submitted");
  const uint64_t batches_before = batches->value();

  // Mixed contiguous + scattered lpns: exercises run coalescing and the
  // multi-run submission path.
  std::vector<LogicalPageNo> lpns = {0, 1, 2, 3, 8, 9, 12, 5};
  const size_t n = lpns.size();
  std::vector<Page> pages = MakePages(n);
  std::vector<Page*> raw(n);
  for (size_t i = 0; i < n; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(n);
  std::vector<int> done_calls(n, 0);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), n, nullptr,
                  [&](size_t i) {
                    // The status must be final when the hook fires.
                    EXPECT_TRUE(sts[i].ok()) << sts[i].ToString();
                    ++done_calls[i];
                  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(sts[i].ok()) << "page " << lpns[i] << ": " << sts[i].ToString();
    EXPECT_EQ(done_calls[i], 1) << "page " << lpns[i];
    std::string expect = "batch page " + std::to_string(lpns[i]);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(pages[i].payload()),
                          pages[i].payload_size()),
              expect);
  }
  EXPECT_EQ(batches->value(), batches_before + 1);
}

TEST_P(IoBackendTest, OutOfRangePageFailsAlone) {
  auto file = MakeChain("oorange", 4);
  std::vector<LogicalPageNo> lpns = {0, 99, 2};
  std::vector<Page> pages = MakePages(3);
  std::vector<Page*> raw = {&pages[0], &pages[1], &pages[2]};
  std::vector<Status> sts(3);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), 3);
  EXPECT_TRUE(sts[0].ok()) << sts[0].ToString();
  EXPECT_TRUE(sts[1].IsOutOfRange()) << sts[1].ToString();
  EXPECT_TRUE(sts[2].ok()) << sts[2].ToString();
}

TEST_P(IoBackendTest, ShortReadMidBatchFailsOnlyTruncatedPages) {
  auto file = MakeChain("trunc", 8);
  // Chop the last two pages off the file underneath the open fd: the
  // page_count_ the reader believes in still says 8.
  std::filesystem::resize_file(dir_ + "/trunc", 6 * 4096);

  std::vector<LogicalPageNo> lpns = {0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<Page> pages = MakePages(8);
  std::vector<Page*> raw(8);
  for (size_t i = 0; i < 8; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(8);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), 8);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(sts[i].ok()) << "page " << i << ": " << sts[i].ToString();
  }
  for (size_t i = 6; i < 8; ++i) {
    EXPECT_TRUE(sts[i].IsIOError()) << "page " << i << ": " << sts[i].ToString();
  }
  // Restore the file so TearDown's temp-dir sweep has nothing odd to see.
}

TEST_P(IoBackendTest, EintrIsRetriedToCompletion) {
  auto file = MakeChain("eintr", 6);
  g_eintr_budget.store(3);
  SetIoFaultHookForTest(&EintrHook);
  std::vector<LogicalPageNo> lpns = {0, 1, 2, 3, 4, 5};
  std::vector<Page> pages = MakePages(6);
  std::vector<Page*> raw(6);
  for (size_t i = 0; i < 6; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(6);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), 6);
  SetIoFaultHookForTest(nullptr);
  for (size_t i = 0; i < 6; ++i) {
    EXPECT_TRUE(sts[i].ok()) << "page " << i << ": " << sts[i].ToString();
  }
  // The single-page path retries through the same hook.
  g_eintr_budget.store(2);
  SetIoFaultHookForTest(&EintrHook);
  Page p(4096);
  EXPECT_TRUE(file->ReadPage(3, &p).ok());
  SetIoFaultHookForTest(nullptr);
}

TEST_P(IoBackendTest, HardFaultLeavesNoPageWithoutStatus) {
  auto file = MakeChain("eio", 8);
  g_eio_budget.store(1);
  SetIoFaultHookForTest(&EioHook);
  // Scattered pages: several independent runs, so a mid-batch device error
  // can only take down the run(s) it actually hit.
  std::vector<LogicalPageNo> lpns = {0, 2, 4, 6};
  std::vector<Page> pages = MakePages(4);
  std::vector<Page*> raw(4);
  for (size_t i = 0; i < 4; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(4);
  std::vector<int> done_calls(4, 0);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), 4, nullptr,
                  [&](size_t i) { ++done_calls[i]; });
  SetIoFaultHookForTest(nullptr);
  size_t failed = 0;
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(done_calls[i], 1) << "page " << lpns[i];
    if (!sts[i].ok()) {
      EXPECT_TRUE(sts[i].IsIOError()) << sts[i].ToString();
      ++failed;
    }
  }
  EXPECT_GE(failed, 1u);
  // The backend recovers: the same batch succeeds once the fault clears.
  std::vector<Status> sts2(4);
  file->ReadPages(lpns.data(), raw.data(), sts2.data(), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sts2[i].ok()) << "page " << lpns[i] << ": " << sts2[i].ToString();
  }
}

TEST_P(IoBackendTest, ChecksumFailureIsCountedAndIsolated) {
  auto file = MakeChain("cksum", 6);
  file.reset();
  {
    // Flip a payload byte of page 3 directly in the file.
    std::string path = dir_ + "/cksum";
    FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 3 * 4096 + 64 + 2, SEEK_SET), 0);
    int c = std::fgetc(f);
    ASSERT_EQ(std::fseek(f, 3 * 4096 + 64 + 2, SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto reopened = storage_->OpenChain("cksum", 4096);
  ASSERT_TRUE(reopened.ok());
  auto* fails = obs::MetricsRegistry::Global().counter("io.checksum_fail");
  const uint64_t fails_before = fails->value();

  std::vector<LogicalPageNo> lpns = {0, 1, 2, 3, 4, 5};
  std::vector<Page> pages = MakePages(6);
  std::vector<Page*> raw(6);
  for (size_t i = 0; i < 6; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(6);
  (*reopened)->ReadPages(lpns.data(), raw.data(), sts.data(), 6);
  for (size_t i = 0; i < 6; ++i) {
    if (i == 3) {
      EXPECT_TRUE(sts[i].IsCorruption()) << sts[i].ToString();
    } else {
      EXPECT_TRUE(sts[i].ok()) << "page " << i << ": " << sts[i].ToString();
    }
  }
  EXPECT_EQ(fails->value(), fails_before + 1);
}

// Faults every read syscall from the second one onward: the first
// submission succeeds, so on the uring backend the hard failure strikes
// while SQEs are still in the kernel.
std::atomic<int> g_fault_call{0};
int SecondCallOnwardEioHook() {
  return g_fault_call.fetch_add(1) >= 1 ? EIO : 0;
}

TEST_P(IoBackendTest, HardFaultWithInflightIsDrainedAndIsolated) {
  auto file = MakeChain("drain", 16);
  const uint32_t saved_depth = IoQueueDepth();
  // 16 contiguous pages are 4 SQE-capped runs on uring; depth 2 forces at
  // least two submission waves, so the fault is guaranteed to strike a
  // batch with completed and in-flight runs on the ring. The backend must
  // reap the kernel-held SQEs before ReadPages returns — under ASan the
  // alternative is a completion landing in freed page buffers.
  SetIoQueueDepth(2);
  g_fault_call.store(0);
  SetIoFaultHookForTest(&SecondCallOnwardEioHook);
  const size_t n = 16;
  std::vector<LogicalPageNo> lpns(n);
  for (size_t i = 0; i < n; ++i) lpns[i] = static_cast<LogicalPageNo>(i);
  std::vector<Page> pages = MakePages(n);
  std::vector<Page*> raw(n);
  for (size_t i = 0; i < n; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(n);
  std::vector<int> done_calls(n, 0);
  file->ReadPages(lpns.data(), raw.data(), sts.data(), n, nullptr,
                  [&](size_t i) { ++done_calls[i]; });
  SetIoFaultHookForTest(nullptr);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(done_calls[i], 1) << "page " << i;
    if (sts[i].ok()) {
      // Pages drained as complete during the abort carry real data.
      std::string expect = "batch page " + std::to_string(i);
      EXPECT_EQ(std::string(reinterpret_cast<char*>(pages[i].payload()),
                            pages[i].payload_size()),
                expect);
    } else {
      EXPECT_TRUE(sts[i].IsIOError()) << "page " << i << ": "
                                      << sts[i].ToString();
    }
  }
  // Nothing stale survives the abort: the aborted batch's unsubmitted
  // SQEs must not be submitted by (or its leftover completions reaped
  // into) this next batch.
  std::vector<Status> sts2(n);
  file->ReadPages(lpns.data(), raw.data(), sts2.data(), n);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(sts2[i].ok()) << "page " << i << ": " << sts2[i].ToString();
    std::string expect = "batch page " + std::to_string(i);
    EXPECT_EQ(std::string(reinterpret_cast<char*>(pages[i].payload()),
                          pages[i].payload_size()),
              expect);
  }
  SetIoQueueDepth(saved_depth);
}

int AlwaysEintrHook() { return EINTR; }

TEST_P(IoBackendTest, PersistentEintrFailsInsteadOfSpinning) {
  auto file = MakeChain("spin", 4);
  SetIoFaultHookForTest(&AlwaysEintrHook);
  std::vector<LogicalPageNo> lpns = {0, 1, 2, 3};
  std::vector<Page> pages = MakePages(4);
  std::vector<Page*> raw(4);
  for (size_t i = 0; i < 4; ++i) raw[i] = &pages[i];
  std::vector<Status> sts(4);
  // Both backends cap transient retries; an EINTR storm that never ends
  // must surface as per-page errors, not an infinite syscall loop.
  file->ReadPages(lpns.data(), raw.data(), sts.data(), 4);
  SetIoFaultHookForTest(nullptr);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sts[i].IsIOError()) << "page " << i << ": "
                                    << sts[i].ToString();
  }
  std::vector<Status> sts2(4);
  file->ReadPages(lpns.data(), raw.data(), sts2.data(), 4);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(sts2[i].ok()) << "page " << i << ": " << sts2[i].ToString();
  }
}

// Faults exactly the second read syscall.
int SecondCallEioHook() { return g_fault_call.fetch_add(1) == 1 ? EIO : 0; }

// Three chains, two page sizes, one batch. Each page's payload names its
// chain and page, so a page read from the wrong file (or offset) shows.
class MultiFileBatch {
 public:
  MultiFileBatch(StorageManager* storage, const std::string& dir) {
    a_ = Chain(storage, "mf_a", 8192, 6);
    b_ = Chain(storage, "mf_b", 32768, 4);
    c_ = Chain(storage, "mf_c", 8192, 5);
    // C's last page loses all but 100 bytes under the open fd, whose page
    // count still says 5: a short read at that chain's end of file.
    std::filesystem::resize_file(dir + "/mf_c", 4 * 8192 + 100);
    // Runs the backends may coalesce: {a0, a1}, {b0}, {a2}, {c3, c4} (b9
    // is screened out before the backend sees it), {b2}, {a4, a5}, {c0}.
    // a2 and c3 are adjacent in the array and in page number, in files of
    // one page size, and must not coalesce.
    Add(a_.get(), 0);
    Add(a_.get(), 1);
    Add(b_.get(), 0);
    Add(a_.get(), 2);
    Add(c_.get(), 3);
    Add(b_.get(), 9);  // out of range
    Add(c_.get(), 4);  // short read
    Add(b_.get(), 2);
    Add(a_.get(), 4);
    Add(a_.get(), 5);
    Add(c_.get(), 0);
  }

  static constexpr size_t kOutOfRange = 5;
  static constexpr size_t kShortRead = 6;
  // Requests of the first run the backends submit, and of the second.
  static constexpr size_t kFirstRun[] = {0, 1};
  static constexpr size_t kSecondRun[] = {2};

  size_t size() const { return reads_.size(); }

  // Reads the batch; statuses start as a sentinel no backend produces.
  void Read(std::vector<Status>* sts, std::vector<int>* done_calls) {
    sts->assign(size(), Status::Internal("no final status"));
    done_calls->assign(size(), 0);
    PageFile::ReadPages(reads_.data(), sts->data(), size(), nullptr,
                        [&](size_t i) { ++(*done_calls)[i]; });
  }

  // True if request i's page holds the bytes of its own chain and page.
  bool Verifies(size_t i) const {
    const Page& p = pages_[i];
    return std::string(reinterpret_cast<const char*>(p.payload()),
                       p.payload_size()) == Label(reads_[i].file->path(),
                                                  reads_[i].lpn);
  }

 private:
  static std::string Label(const std::string& path, LogicalPageNo lpn) {
    return std::filesystem::path(path).filename().string() + " page " +
           std::to_string(lpn);
  }

  static std::unique_ptr<PageFile> Chain(StorageManager* storage,
                                         const std::string& name,
                                         uint32_t page_size, int n) {
    auto file = storage->CreateChain(name, page_size);
    EXPECT_TRUE(file.ok());
    for (int i = 0; i < n; ++i) {
      Page p(page_size);
      const std::string content =
          Label((*file)->path(), static_cast<LogicalPageNo>(i));
      std::memcpy(p.payload(), content.data(), content.size());
      p.set_payload_size(static_cast<uint32_t>(content.size()));
      EXPECT_TRUE((*file)->AppendPage(&p).ok());
    }
    return std::move(*file);
  }

  void Add(const PageFile* file, LogicalPageNo lpn) {
    pages_.emplace_back(file->page_size());
    reads_.push_back(PageFile::PageRead{file, lpn, nullptr});
    // Page is move-only and the vector may have moved earlier pages.
    for (size_t i = 0; i < reads_.size(); ++i) reads_[i].page = &pages_[i];
  }

  std::unique_ptr<PageFile> a_, b_, c_;
  std::vector<Page> pages_;
  std::vector<PageFile::PageRead> reads_;
};

TEST_P(IoBackendTest, BatchAcrossFilesReadsEachPageFromItsOwnFile) {
  MultiFileBatch batch(storage_.get(), dir_);
  std::vector<Status> sts;
  std::vector<int> done_calls;
  batch.Read(&sts, &done_calls);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(done_calls[i], 1) << "request " << i;
    if (i == MultiFileBatch::kOutOfRange) {
      EXPECT_TRUE(sts[i].IsOutOfRange()) << sts[i].ToString();
    } else if (i == MultiFileBatch::kShortRead) {
      EXPECT_TRUE(sts[i].IsIOError()) << sts[i].ToString();
    } else {
      ASSERT_TRUE(sts[i].ok()) << "request " << i << ": " << sts[i].ToString();
      EXPECT_TRUE(batch.Verifies(i)) << "request " << i;
    }
  }
}

TEST_P(IoBackendTest, FaultInBatchAcrossFilesFailsOnlyThePagesItHit) {
  MultiFileBatch batch(storage_.get(), dir_);
  const uint32_t saved_depth = IoQueueDepth();
  // One run per submission wave, so on uring the first run completes before
  // the second syscall (its wait or the next wave's submit) faults.
  SetIoQueueDepth(1);
  g_fault_call.store(0);
  SetIoFaultHookForTest(&SecondCallEioHook);
  std::vector<Status> sts;
  std::vector<int> done_calls;
  batch.Read(&sts, &done_calls);
  SetIoFaultHookForTest(nullptr);
  SetIoQueueDepth(saved_depth);

  const bool uring = std::strcmp(GetParam(), "uring") == 0;
  const auto in = [](const auto& run, size_t i) {
    return std::find(std::begin(run), std::end(run), i) != std::end(run);
  };
  size_t hit = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(done_calls[i], 1) << "request " << i;
    if (i == MultiFileBatch::kOutOfRange) {
      EXPECT_TRUE(sts[i].IsOutOfRange()) << sts[i].ToString();
      continue;
    }
    // The sync backend's second syscall reads the second run alone; on
    // uring the fault aborts every run not yet complete. Either way the
    // first run is intact.
    const bool hit_here = uring ? !in(MultiFileBatch::kFirstRun, i)
                                : in(MultiFileBatch::kSecondRun, i);
    if (hit_here) {
      EXPECT_TRUE(sts[i].IsIOError()) << "request " << i << ": "
                                      << sts[i].ToString();
      ++hit;
    } else if (i == MultiFileBatch::kShortRead) {
      EXPECT_TRUE(sts[i].IsIOError()) << sts[i].ToString();
    } else {
      ASSERT_TRUE(sts[i].ok()) << "request " << i << ": " << sts[i].ToString();
      EXPECT_TRUE(batch.Verifies(i)) << "request " << i;
    }
  }
  EXPECT_GE(hit, 1u);
}

// Sets the process's open-file limit to its lowest free descriptor, so the
// next descriptor it asks for fails with EMFILE; the destructor restores
// the limit.
class NoNewDescriptors {
 public:
  NoNewDescriptors() {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    const int lowest_free = ::open("/dev/null", O_RDONLY);
    EXPECT_GE(lowest_free, 0);
    ::close(lowest_free);
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(lowest_free);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  }
  ~NoNewDescriptors() { ::setrlimit(RLIMIT_NOFILE, &saved_); }

 private:
  rlimit saved_{};
};

INSTANTIATE_TEST_SUITE_P(Backends, IoBackendTest,
                         ::testing::Values("sync", "uring"));

TEST_F(StorageTest, UringWithoutARingReadsEachRequestFromItsOwnFile) {
  if (!IoUringAvailable()) GTEST_SKIP() << "io_uring unavailable on this kernel";
  struct RestoreBackend {
    const char* name = CurrentIoBackend()->name();
    ~RestoreBackend() { EXPECT_TRUE(SetIoBackend(name).ok()); }
  } restore;
  ASSERT_TRUE(SetIoBackend("uring").ok());
  MultiFileBatch batch(storage_.get(), dir_);
  std::vector<Status> sts;
  std::vector<int> done_calls;
  // Through this thread's ring first. Besides checking the batch, this
  // makes every virtual call the reader below makes once before it runs
  // short of descriptors: UBSan's first check of a call site probes memory
  // through a pipe, which would fail there.
  batch.Read(&sts, &done_calls);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(sts[i].ok(), i != MultiFileBatch::kOutOfRange &&
                               i != MultiFileBatch::kShortRead)
        << "request " << i << ": " << sts[i].ToString();
  }

  // A fresh thread sets up its ring on its first batch; with no descriptor
  // left for the ring, the backend falls back to sequential preads, one
  // per page. The reader starts and ends with the limit lifted.
  auto* syscalls = obs::MetricsRegistry::Global().counter("io.syscalls");
  const uint64_t syscalls_before = syscalls->value();
  std::atomic<int> phase{0};
  const auto await = [&phase](int want) {
    while (phase.load() != want) std::this_thread::yield();
  };
  std::thread reader([&] {
    phase = 1;
    await(2);
    batch.Read(&sts, &done_calls);
    phase = 3;
    await(4);
  });
  await(1);
  {
    NoNewDescriptors limit;
    phase = 2;
    await(3);
  }
  phase = 4;
  reader.join();
  // The fallback's preads: one per in-range page, plus the one that meets
  // the end of file after the short page's partial read. A ring would
  // have served the batch in a few io_uring_enter calls.
  const uint64_t in_range_pages = batch.size() - 1;
  EXPECT_EQ(syscalls->value() - syscalls_before, in_range_pages + 1);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(done_calls[i], 1) << "request " << i;
    if (i == MultiFileBatch::kOutOfRange) {
      EXPECT_TRUE(sts[i].IsOutOfRange()) << sts[i].ToString();
    } else if (i == MultiFileBatch::kShortRead) {
      EXPECT_TRUE(sts[i].IsIOError()) << sts[i].ToString();
    } else {
      ASSERT_TRUE(sts[i].ok()) << "request " << i << ": " << sts[i].ToString();
      EXPECT_TRUE(batch.Verifies(i)) << "request " << i;
    }
  }
}

TEST_F(StorageTest, SimulatedLatencySlowsReads) {
  StorageOptions opts;
  opts.simulated_read_latency_us = 2000;
  auto slow_sm = StorageManager::Open(dir_ + "/slow", opts);
  ASSERT_TRUE(slow_sm.ok());
  auto file = (*slow_sm)->CreateChain("lat", 4096);
  ASSERT_TRUE(file.ok());
  Page p(4096);
  ASSERT_TRUE((*file)->AppendPage(&p).ok());
  Stopwatch timer;
  ASSERT_TRUE((*file)->ReadPage(0, &p).ok());
  EXPECT_GE(timer.ElapsedMicros(), 1500.0);
}

}  // namespace
}  // namespace payg
