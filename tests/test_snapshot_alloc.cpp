// Proves the "zero new buffers on the cached-encode path" claim with a
// counting operator-new hook (same technique as test_event_alloc): once a
// full response has been encoded for the current generations, answering
// further requests at those generations — full, kNotModified, any requester
// — allocates nothing; the shared frame is handed out by reference count.
// The ExchangeAllocation pins cover one steady-state discovery exchange: a
// request frame is one buffer plus one control block, a cached reply adds
// nothing, and a fresh encode from the storage is one buffer plus one
// control block whatever the entry count.
// This TU overrides global operator new/delete; each test source builds into
// its own binary, so the hook is scoped to this suite.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "net/frame_check.hpp"
#include "peerhood/snapshot_cache.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  ++g_allocations;
  const std::size_t rounded = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded)) return p;
  throw std::bad_alloc{};
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace peerhood {
namespace {

DeviceRecord neighbour(std::uint64_t index) {
  DeviceRecord record;
  record.device.mac = MacAddress::from_index(index);
  record.device.name = "neighbour-" + std::to_string(index);
  record.prototypes = {Technology::kBluetooth};
  record.services = {{"svc-" + std::to_string(index), "", 7}};
  record.quality_sum = 200;
  record.min_link_quality = 200;
  return record;
}

TEST(SnapshotCacheAllocation, RepeatSameGenerationRequestsAllocateNothing) {
  DeviceInfo self;
  self.mac = MacAddress::from_index(1);
  self.name = "responder";
  const std::vector<Technology> prototypes{Technology::kBluetooth};
  std::vector<ServiceInfo> services{{"echo", "", 4}, {"compute", "attr", 5}};
  DeviceStorage storage;
  for (std::uint64_t i = 2; i <= 17; ++i) {
    ASSERT_TRUE(storage.upsert(neighbour(i)));
  }

  SnapshotSource src;
  src.device = &self;
  src.prototypes = &prototypes;
  src.services = &services;
  src.storage = &storage;
  src.gens.device = 1;
  src.gens.prototypes = 1;
  src.gens.services = 1;
  src.gens.neighbours = storage.generation();
  src.epoch = 0xfeed;

  SnapshotCache cache;
  // Warm the cache: one encode per answer shape.
  const wire::FetchBaseline current{src.epoch, src.gens};
  auto warm_full = cache.respond({1, wire::kSectionAll, std::nullopt}, src);
  auto warm_nm = cache.respond({2, wire::kSectionAll, current}, src);
  ASSERT_NE(warm_full, nullptr);
  ASSERT_NE(warm_nm, nullptr);

  const std::uint64_t before = g_allocations.load();
  bool all_shared = true;
  for (std::uint32_t id = 3; id < 103; ++id) {
    // Full fetches from fresh requesters and conditional fetches from
    // up-to-date ones: both are shared-frame hits. (No gtest assertions in
    // the measured region — only raw pointer compares.)
    auto full = cache.respond({id, wire::kSectionAll, std::nullopt}, src);
    auto nm = cache.respond({id, wire::kSectionAll, current}, src);
    all_shared = all_shared && full.get() == warm_full.get() &&
                 nm.get() == warm_nm.get();
  }
  EXPECT_TRUE(all_shared);
  EXPECT_EQ(g_allocations.load(), before)
      << "cached-encode path must not allocate for repeat same-generation "
         "requests";

  // Sanity: a generation move does allocate (one fresh encode)...
  ASSERT_TRUE(storage.upsert(neighbour(99)));
  src.gens.neighbours = storage.generation();
  auto recoded = cache.respond({200, wire::kSectionAll, std::nullopt}, src);
  EXPECT_NE(recoded.get(), warm_full.get());
  EXPECT_GT(g_allocations.load(), before);

  // ...and the new frame is shared again without further allocation.
  const std::uint64_t after_recode = g_allocations.load();
  auto again = cache.respond({201, wire::kSectionAll, std::nullopt}, src);
  EXPECT_EQ(again.get(), recoded.get());
  EXPECT_EQ(g_allocations.load(), after_recode);
}

// The responder state the pins below encode from: `entries` neighbours.
struct Responder {
  explicit Responder(std::size_t entries) {
    self.mac = MacAddress::from_index(1);
    self.name = "responder";
    for (std::uint64_t i = 0; i < entries; ++i) {
      EXPECT_TRUE(storage.upsert(neighbour(100 + i)));
    }
    src.device = &self;
    src.prototypes = &prototypes;
    src.services = &services;
    src.storage = &storage;
    src.gens = {1, 1, 1, storage.generation()};
    src.epoch = 0xfeed;
  }

  DeviceInfo self;
  std::vector<Technology> prototypes{Technology::kBluetooth};
  std::vector<ServiceInfo> services{{"echo", "", 4}};
  DeviceStorage storage;
  SnapshotSource src;
};

TEST(ExchangeAllocation, RequestFrameIsOneBufferAndOneControlBlock) {
  const wire::FetchRequest plain{7, wire::kSectionAll, std::nullopt};
  const wire::FetchRequest conditional{
      8, wire::kSectionNeighbours,
      wire::FetchBaseline{0xfeed, wire::SectionGens{1, 2, 3, 4}}};
  for (const wire::FetchRequest& request : {plain, conditional}) {
    const std::uint64_t before = g_allocations.load();
    const net::FramePtr frame = net::make_datagram_frame(
        wire::kMaxFetchRequestSize,
        [&request](ByteWriter& writer) { wire::encode_into(writer, request); });
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 2u) << "request id " << request.request_id;
    const auto body = net::check_frame(*frame);
    ASSERT_TRUE(body.has_value());
    const auto decoded = wire::decode_fetch_request(body->subspan(1));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->baseline, request.baseline);
  }
}

TEST(ExchangeAllocation, CachedDatagramReplyAllocatesNothing) {
  // The cache builds sealed datagram frames; a repeat request at the same
  // generations hands the same frame out by reference count.
  Responder responder{16};
  SnapshotCache cache;
  const auto warm =
      cache.respond({1, wire::kSectionAll, std::nullopt}, responder.src);
  const std::uint64_t before = g_allocations.load();
  const auto again =
      cache.respond({2, wire::kSectionAll, std::nullopt}, responder.src);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(again.get(), warm.get());
}

TEST(ExchangeAllocation, FreshEncodeIsOneBufferAndOneControlBlock) {
  // Full responses and deltas are encoded straight from the storage into
  // one exactly-sized buffer: two allocations whatever the entry count. A
  // fresh cache's first reply is always a fresh encode.
  for (const std::size_t entries : {0u, 1u, 4u, 32u, 128u}) {
    Responder responder{entries};
    SnapshotCache cache;
    std::uint64_t before = g_allocations.load();
    const auto full =
        cache.respond({1, wire::kSectionAll, std::nullopt}, responder.src);
    EXPECT_EQ(g_allocations.load() - before, 2u) << entries << " entries";
    ASSERT_TRUE(net::check_frame(*full).has_value());

    wire::FetchBaseline stale{responder.src.epoch, responder.src.gens};
    stale.gens.neighbours -= 1;
    before = g_allocations.load();
    const auto delta = cache.respond({2, wire::kSectionAll, stale},
                                     responder.src);
    EXPECT_EQ(g_allocations.load() - before, 2u) << entries << " entries";
    const auto body = net::check_frame(*delta);
    ASSERT_TRUE(body.has_value());
    wire::ReceivedFetchResponse decoded;
    ASSERT_TRUE(wire::decode_fetch_response(body->subspan(1), decoded));
    EXPECT_EQ(decoded.sections, wire::kSectionNeighbours);
    EXPECT_EQ(decoded.neighbours.size(), entries);
  }
}

}  // namespace
}  // namespace peerhood
