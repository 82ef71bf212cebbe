// Tests for the fault-injection toolkit (common/fault.h) and the checksum
// framing (common/frame.h).

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sop/common/fault.h"
#include "sop/common/frame.h"

namespace sop {
namespace {

// ---------------------------------------------------------------------------
// FaultInjector

TEST(FaultInjectorTest, SameSeedReplaysTheSameSchedule) {
  FaultInjector a(42);
  FaultInjector b(42);
  a.SetRate(FaultSite::kCheckpointWrite, 0.3);
  b.SetRate(FaultSite::kCheckpointWrite, 0.3);
  a.SetRate(FaultSite::kCheckpointBytes, 0.3);
  b.SetRate(FaultSite::kCheckpointBytes, 0.3);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_EQ(a.ShouldFail(FaultSite::kCheckpointWrite),
              b.ShouldFail(FaultSite::kCheckpointWrite))
        << "checkpoint-write draw " << i;
    EXPECT_EQ(a.ShouldFail(FaultSite::kCheckpointBytes),
              b.ShouldFail(FaultSite::kCheckpointBytes))
        << "checkpoint-bytes draw " << i;
  }
  EXPECT_GT(a.injected(FaultSite::kCheckpointWrite), 0);
  EXPECT_EQ(a.consulted(FaultSite::kCheckpointWrite), 2000);
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // Interleaving draws at one site must not perturb another site's
  // schedule: site decisions are a pure function of (seed, site, index).
  FaultInjector interleaved(7);
  FaultInjector solo(7);
  interleaved.SetRate(FaultSite::kCheckpointBytes, 0.5);
  interleaved.SetRate(FaultSite::kCheckpointWrite, 0.5);
  solo.SetRate(FaultSite::kCheckpointBytes, 0.5);
  std::vector<bool> with_noise;
  std::vector<bool> without_noise;
  for (int i = 0; i < 500; ++i) {
    interleaved.ShouldFail(FaultSite::kCheckpointWrite);  // noise draws
    with_noise.push_back(interleaved.ShouldFail(FaultSite::kCheckpointBytes));
    without_noise.push_back(solo.ShouldFail(FaultSite::kCheckpointBytes));
  }
  EXPECT_EQ(with_noise, without_noise);
}

TEST(FaultInjectorTest, MaxFailuresCapsInjection) {
  FaultInjector injector(3);
  injector.SetRate(FaultSite::kCheckpointRead, 1.0);
  injector.SetMaxFailures(FaultSite::kCheckpointRead, 5);
  int64_t failures = 0;
  for (int i = 0; i < 100; ++i) {
    if (injector.ShouldFail(FaultSite::kCheckpointRead)) ++failures;
  }
  EXPECT_EQ(failures, 5);
  EXPECT_EQ(injector.injected(FaultSite::kCheckpointRead), 5);
  EXPECT_EQ(injector.consulted(FaultSite::kCheckpointRead), 100);
}

TEST(FaultInjectorTest, CorruptBytesFlipsExactlyOneBit) {
  FaultInjector injector(11);
  const std::string original(64, '\0');
  for (int round = 0; round < 20; ++round) {
    std::string bytes = original;
    injector.CorruptBytes(&bytes);
    int flipped_bits = 0;
    for (size_t i = 0; i < bytes.size(); ++i) {
      unsigned char diff = static_cast<unsigned char>(bytes[i]) ^
                           static_cast<unsigned char>(original[i]);
      while (diff != 0) {
        flipped_bits += diff & 1;
        diff >>= 1;
      }
    }
    EXPECT_EQ(flipped_bits, 1) << "round " << round;
  }
  std::string empty;
  injector.CorruptBytes(&empty);  // must not crash
  EXPECT_TRUE(empty.empty());
}

TEST(FaultInjectorTest, ArmingIsScopedAndOptIn) {
  EXPECT_EQ(FaultInjector::Armed(), nullptr);
  FaultInjector injector(1);
  {
    ScopedFaultInjection armed(&injector);
    EXPECT_EQ(FaultInjector::Armed(), &injector);
  }
  EXPECT_EQ(FaultInjector::Armed(), nullptr);
}

// ---------------------------------------------------------------------------
// Frame

TEST(FrameTest, Crc32MatchesTheStandardCheckValue) {
  // The IEEE 802.3 reflected CRC-32 of "123456789" is the canonical check
  // value; matching it pins the exact polynomial/reflection/final-xor.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0x00000000u);
}

TEST(FrameTest, WrapUnwrapRoundTrips) {
  const std::vector<std::string> payloads = {std::string(), std::string("x"),
                                             std::string(1000, '\xab')};
  for (const std::string& payload : payloads) {
    const std::string framed = WrapFrame(payload);
    EXPECT_EQ(framed.size(), payload.size() + 20);
    std::string_view unwrapped;
    std::string error;
    ASSERT_TRUE(UnwrapFrame(framed, &unwrapped, &error)) << error;
    EXPECT_EQ(unwrapped, payload);
  }
}

TEST(FrameTest, RejectsTruncationTrailingBytesAndBitFlips) {
  const std::string framed = WrapFrame("resilient payload");
  std::string_view payload;
  std::string error;
  for (size_t len = 0; len < framed.size(); ++len) {
    EXPECT_FALSE(UnwrapFrame(framed.substr(0, len), &payload, &error))
        << "accepted truncation to " << len;
  }
  EXPECT_FALSE(UnwrapFrame(framed + "y", &payload, &error));
  for (size_t byte = 0; byte < framed.size(); ++byte) {
    std::string mutated = framed;
    mutated[byte] ^= 0x10;
    EXPECT_FALSE(UnwrapFrame(mutated, &payload, &error))
        << "accepted flip in byte " << byte;
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace sop
