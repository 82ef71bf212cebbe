// Unit tests for sop/stream: window arithmetic, the sliding buffer, the
// stream tail's numbering and trim, and sources.

#include "gtest/gtest.h"
#include "sop/stream/source.h"
#include "sop/stream/stream_buffer.h"
#include "sop/stream/stream_tail.h"
#include "sop/stream/window.h"
#include "test_util.h"

namespace sop {
namespace {

TEST(WindowTest, PointKeySelectsByType) {
  const Point p(7, 1234, {1.0});
  EXPECT_EQ(PointKey(p, WindowType::kCount), 7);
  EXPECT_EQ(PointKey(p, WindowType::kTime), 1234);
}

TEST(WindowTest, EmitsAt) {
  EXPECT_TRUE(EmitsAt(500, 500));
  EXPECT_TRUE(EmitsAt(1000, 500));
  EXPECT_FALSE(EmitsAt(750, 500));
  EXPECT_TRUE(EmitsAt(0, 500));
}

TEST(WindowTest, FirstBoundaryAtOrAfter) {
  EXPECT_EQ(FirstBoundaryAtOrAfter(0, 10), 0);
  EXPECT_EQ(FirstBoundaryAtOrAfter(1, 10), 10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(10, 10), 10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(11, 10), 20);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-5, 10), 0);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-10, 10), -10);
  EXPECT_EQ(FirstBoundaryAtOrAfter(-11, 10), -10);
}

// Push numbers the points on from next_seq() and keeps exactly the batches
// above boundary - reach: none at reach 0, and all of them when that
// horizon would fall below INT64_MIN.
TEST(StreamTailTest, PushNumbersPointsAndTrimsAtTheReach) {
  auto push = [](StreamTail* tail, int64_t boundary, int64_t reach) {
    std::vector<Point> batch = {Point(0, boundary - 1, {1.0}),
                                Point(0, boundary - 1, {2.0})};
    tail->Push(&batch, boundary, reach);
    return batch.front().seq;
  };
  StreamTail none(WindowType::kTime);
  EXPECT_EQ(push(&none, 10, 0), 0);
  EXPECT_EQ(push(&none, 20, 0), 2);
  EXPECT_TRUE(none.batches().empty());
  EXPECT_EQ(none.next_seq(), 4);
  EXPECT_EQ(none.last_boundary(), 20);

  StreamTail kept(WindowType::kTime);
  for (const int64_t boundary : {10, 20, 30, 40}) push(&kept, boundary, 20);
  ASSERT_EQ(kept.batches().size(), 2u);
  EXPECT_EQ(kept.batches().front().boundary, 30);
  EXPECT_EQ(kept.batches().front().points.front().seq, 4);

  StreamTail low(WindowType::kTime);
  push(&low, INT64_MIN + 1, 20);
  push(&low, INT64_MIN + 2, 20);
  EXPECT_EQ(low.batches().size(), 2u);
}

// A time window ending at a boundary covers times below it, so a point at
// or past its batch's boundary is refused, by Check and by Read alike.
TEST(StreamTailTest, RefusesATimeAtOrPastTheBoundary) {
  StreamTail tail(WindowType::kTime);
  EXPECT_NE(tail.Check({Point(0, 50, {1.0})}, 10).find("past"),
            std::string::npos);
  EXPECT_NE(tail.Check({Point(0, 10, {1.0})}, 10).find("past"),
            std::string::npos);
  EXPECT_EQ(tail.Check({Point(0, 9, {1.0})}, 10), "");
  // Count windows number points by arrival; their times are free.
  EXPECT_EQ(StreamTail(WindowType::kCount).Check({Point(0, 50, {1.0})}, 1),
            "");

  BinaryWriter w;
  w.WriteI64(1);   // next seq
  w.WriteI64(10);  // last boundary
  w.WriteU64(1);   // one batch,
  w.WriteI64(10);  // at boundary 10,
  w.WriteU64(1);   // of one point
  WritePoint(&w, Point(0, 50, {1.0}));
  BinaryReader r(w.bytes());
  EXPECT_NE(tail.Read(&r).find("past"), std::string::npos);
  EXPECT_EQ(tail.next_seq(), 0);  // untouched
}

// A count window's key is the seq, so a count boundary is the cumulative
// count: Check refuses any other. A count tail restores its seqs from its
// boundaries (recovery_test's crafted tails hold Read's refusals).
TEST(StreamTailTest, RefusesACountBoundaryOffTheCumulativeCount) {
  auto points = [](int n) {
    return std::vector<Point>(static_cast<size_t>(n), Point(0, 0, {1.0}));
  };
  StreamTail tail(WindowType::kCount);
  EXPECT_EQ(tail.Check(points(50), 100),
            "count boundary 100 is not the cumulative count 50");
  for (const int64_t boundary : {50, 100}) {
    std::vector<Point> batch = points(50);
    tail.Push(&batch, boundary, /*reach=*/50);
  }
  EXPECT_EQ(tail.Check(points(50), 200),
            "count boundary 200 is not the cumulative count 150");
  EXPECT_EQ(tail.Check(points(50), 150), "");

  BinaryWriter w;
  tail.Write(&w);
  BinaryReader r(w.bytes());
  StreamTail restored(WindowType::kCount);
  ASSERT_EQ(restored.Read(&r), "");
  ASSERT_EQ(restored.batches().size(), 1u);
  EXPECT_EQ(restored.batches().front().points.front().seq, 50);
  EXPECT_EQ(restored.Check(points(50), 150), "");
}

TEST(StreamBufferTest, AppendAndAccess) {
  StreamBuffer buffer(WindowType::kCount);
  EXPECT_TRUE(buffer.empty());
  EXPECT_EQ(buffer.next_seq(), 0);
  buffer.Append(Point(0, 100, {1.0}));
  buffer.Append(Point(1, 101, {2.0}));
  EXPECT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.At(1).values[0], 2.0);
  EXPECT_TRUE(buffer.Contains(0));
  EXPECT_FALSE(buffer.Contains(2));
}

TEST(StreamBufferTest, ExpireBeforeCountKeys) {
  StreamBuffer buffer(WindowType::kCount);
  for (Seq s = 0; s < 10; ++s) buffer.Append(Point(s, s, {0.0}));
  EXPECT_EQ(buffer.ExpireBefore(4), 4u);
  EXPECT_EQ(buffer.first_seq(), 4);
  EXPECT_EQ(buffer.size(), 6u);
  EXPECT_FALSE(buffer.Contains(3));
  EXPECT_TRUE(buffer.Contains(4));
  // Expiry is monotone; asking again drops nothing.
  EXPECT_EQ(buffer.ExpireBefore(4), 0u);
}

TEST(StreamBufferTest, ExpireBeforeTimeKeys) {
  StreamBuffer buffer(WindowType::kTime);
  // Several points can share a timestamp.
  const Timestamp times[] = {10, 10, 12, 15, 15, 20};
  for (Seq s = 0; s < 6; ++s) buffer.Append(Point(s, times[s], {0.0}));
  EXPECT_EQ(buffer.ExpireBefore(12), 2u);
  EXPECT_EQ(buffer.first_seq(), 2);
  EXPECT_EQ(buffer.ExpireBefore(16), 3u);
  EXPECT_EQ(buffer.first_seq(), 5);
}

TEST(StreamBufferTest, LowerBoundKey) {
  StreamBuffer buffer(WindowType::kTime);
  const Timestamp times[] = {10, 10, 12, 15, 15, 20};
  for (Seq s = 0; s < 6; ++s) buffer.Append(Point(s, times[s], {0.0}));
  EXPECT_EQ(buffer.LowerBoundKey(5), 0);
  EXPECT_EQ(buffer.LowerBoundKey(10), 0);
  EXPECT_EQ(buffer.LowerBoundKey(11), 2);
  EXPECT_EQ(buffer.LowerBoundKey(15), 3);
  EXPECT_EQ(buffer.LowerBoundKey(21), 6);  // next_seq when none qualify
}

TEST(StreamBufferTest, MemoryBytesGrowsWithContent) {
  StreamBuffer buffer(WindowType::kCount);
  const size_t empty = buffer.MemoryBytes();
  for (Seq s = 0; s < 100; ++s)
    buffer.Append(Point(s, s, {1.0, 2.0, 3.0, 4.0}));
  EXPECT_GT(buffer.MemoryBytes(), empty);
}

TEST(VectorSourceTest, YieldsAllPointsThenStops) {
  VectorSource source(testing::Points1D({1.0, 2.0, 3.0}));
  Point p;
  int count = 0;
  while (source.Next(&p)) ++count;
  EXPECT_EQ(count, 3);
  EXPECT_FALSE(source.Next(&p));
}

}  // namespace
}  // namespace sop
