// Unit tests for the LSky evidence structure.

#include "gtest/gtest.h"
#include "sop/core/lsky.h"
#include "test_util.h"

namespace sop {
namespace {

using testing::CountWithin;

// Appends entries with seq == key (count-based style).
void Append(LSky* sky, Seq seq, int32_t layer) {
  sky->Append({seq, seq, layer});
}

TEST(LSkyTest, AppendKeepsDescendingOrder) {
  LSky sky;
  Append(&sky, 9, 2);
  Append(&sky, 7, 1);
  Append(&sky, 3, 3);
  ASSERT_EQ(sky.size(), 3u);
  EXPECT_EQ(sky.entries()[0].seq, 9);
  EXPECT_EQ(sky.entries()[2].seq, 3);
}

TEST(LSkyTest, ExpireBeforeDropsOldSuffix) {
  LSky sky;
  Append(&sky, 9, 1);
  Append(&sky, 7, 1);
  Append(&sky, 3, 1);
  Append(&sky, 1, 1);
  sky.AppendSucc(2, 4);
  EXPECT_EQ(sky.ExpireBefore(4), 2u);
  ASSERT_EQ(sky.size(), 2u);
  EXPECT_EQ(sky.entries().back().seq, 7);
  EXPECT_EQ(sky.ExpireBefore(4), 0u);
  EXPECT_EQ(sky.ExpireBefore(100), 2u);
  EXPECT_EQ(sky.size(), 0u);
  // Succeeding counts never expire before their point.
  EXPECT_FALSE(sky.empty());
  EXPECT_EQ(sky.succ(), (std::vector<LayerCount>{{2, 4}}));
}

// The status count of test_util.h: every succeeding count at layers <= m,
// plus the preceding entries at layers <= m inside the window.
TEST(LSkyTest, CountWithinReadsBothParts) {
  LSky sky;
  Append(&sky, 9, 2);
  Append(&sky, 8, 1);
  Append(&sky, 6, 3);
  Append(&sky, 4, 1);
  Append(&sky, 2, 2);
  // All entries, any layer.
  EXPECT_EQ(CountWithin(sky, 3, 0, 100), 5);
  // Layer filter.
  EXPECT_EQ(CountWithin(sky, 1, 0, 100), 2);
  EXPECT_EQ(CountWithin(sky, 2, 0, 100), 4);
  // Key filter: only entries with key >= 5.
  EXPECT_EQ(CountWithin(sky, 3, 5, 100), 3);
  EXPECT_EQ(CountWithin(sky, 1, 5, 100), 1);
  // Early stop.
  EXPECT_EQ(CountWithin(sky, 3, 0, 2), 2);
  // Succeeding counts join every window's count at their layer and up.
  sky.AppendSucc(1, 2);
  sky.AppendSucc(3, 5);
  EXPECT_EQ(CountWithin(sky, 1, 5, 100), 1 + 2);
  EXPECT_EQ(CountWithin(sky, 2, 100, 100), 2);
  EXPECT_EQ(CountWithin(sky, 3, 5, 100), 3 + 7);
  EXPECT_EQ(CountWithin(sky, 3, 0, 4), 4);
}

TEST(LSkyTest, ClearAndRelease) {
  LSky sky;
  Append(&sky, 5, 1);
  sky.AppendSucc(1, 1);
  sky.Clear();
  EXPECT_TRUE(sky.empty());
  Append(&sky, 5, 1);
  EXPECT_GT(sky.MemoryBytes(), 0u);
  sky.Release();
  EXPECT_TRUE(sky.empty());
  EXPECT_EQ(sky.MemoryBytes(), 0u);
  sky.AppendSucc(3, 2);
  EXPECT_GT(sky.MemoryBytes(), 0u);
  sky.Release();
  EXPECT_TRUE(sky.empty());
  EXPECT_EQ(sky.MemoryBytes(), 0u);
}

TEST(LSkyTest, SwapExchangesOnePart) {
  LSky a;
  LSky b;
  Append(&a, 5, 1);
  a.AppendSucc(2, 3);
  a.SwapEntries(&b);
  EXPECT_EQ(a.size(), 0u);
  ASSERT_EQ(b.size(), 1u);
  EXPECT_EQ(b.entries()[0].seq, 5);
  EXPECT_EQ(a.succ(), (std::vector<LayerCount>{{2, 3}}));
  EXPECT_TRUE(b.succ().empty());
  a.SwapSucc(&b);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.succ(), (std::vector<LayerCount>{{2, 3}}));
}

}  // namespace
}  // namespace sop
