// Heap allocations of the tuple representation and of the compiled row
// path (DESIGN.md §19): a tuple is one block, and a segment builds its
// outputs in place. This binary replaces the global operator new with a
// counting one, so the counts are exact and need no timing.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>

#include "comp/comp.h"
#include "plan/row_program.h"
#include "runtime/dataset.h"
#include "runtime/value.h"
#include "tests/test_util.h"

namespace {

std::atomic<int64_t> g_allocations{0};

void* TryAllocate(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* TryAllocateAligned(std::size_t n, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a whole number of alignments.
  return std::aligned_alloc(a, n == 0 ? a : (n + a - 1) / a * a);
}

void* Allocate(std::size_t n) {
  if (void* p = TryAllocate(n)) return p;
  throw std::bad_alloc();
}

void* AllocateAligned(std::size_t n, std::align_val_t align) {
  if (void* p = TryAllocateAligned(n, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Every form is replaced, so memory never crosses between this allocator
// and the library's (or a sanitizer's) own operator new.
void* operator new(std::size_t n) { return Allocate(n); }
void* operator new[](std::size_t n) { return Allocate(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return TryAllocate(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateAligned(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return TryAllocateAligned(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return TryAllocateAligned(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace diablo {
namespace {

using runtime::FusedOp;
using runtime::Value;
using runtime::ValueVec;
using testing::DV;
using testing::IV;

/// The heap blocks `fn` allocates.
template <typename Fn>
int64_t AllocationsOf(Fn&& fn) {
  const int64_t before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

TEST(TupleAllocations, MakePairAllocatesOnceAndCopiesAllocateNothing) {
  Value pair;
  EXPECT_EQ(AllocationsOf([&] { pair = Value::MakePair(IV(1), DV(2.5)); }), 1);
  std::optional<Value> copy;
  EXPECT_EQ(AllocationsOf([&] { copy.emplace(pair); }), 0);
  EXPECT_EQ(copy->ToString(), "(1,2.5)");
}

TEST(TupleAllocations, NewTupleAllocatesOnce) {
  Value tuple;
  EXPECT_EQ(AllocationsOf([&] {
              Value* elems = nullptr;
              tuple = Value::NewTuple(5, &elems);
              for (int i = 0; i < 5; ++i) elems[i] = IV(i);
            }),
            1);
  EXPECT_EQ(tuple.ToString(), "(0,1,2,3,4)");
}

/// Segments over array rows (i, v), i = 0..n-1, as a scan binds them.
class SegmentAllocations : public ::testing::Test {
 protected:
  static ValueVec Rows(int n) {
    ValueVec rows;
    for (int i = 0; i < n; ++i) rows.push_back(Value::MakePair(IV(i), DV(i * 0.5)));
    return rows;
  }

  plan::RowSegmentBuilder Scan() const {
    plan::SegmentBinder binder;
    binder.kind = plan::SegmentBinder::Kind::kScan;
    binder.label = "scan[V]";
    binder.pattern = comp::Pattern::Tuple(
        {comp::Pattern::Var("i"), comp::Pattern::Var("v")});
    return plan::RowSegmentBuilder(std::move(binder), {"i", "v"}, state_);
  }

  plan::ExecState state_;
};

TEST_F(SegmentAllocations, KeyRowBuildsAtMostTwoBlocksPerRow) {
  const FusedOp op =
      Scan().FinishKeyRow("joinKeyR[V]", {comp::MakeVar("i")});
  ASSERT_EQ(op.kind, FusedOp::Kind::kMap);
  const ValueVec rows = Rows(100);
  ValueVec out;
  out.reserve(rows.size());
  const int64_t allocations = AllocationsOf([&] {
    for (const Value& row : rows) {
      StatusOr<Value> keyed = op.map(row);
      ASSERT_TRUE(keyed.ok()) << keyed.status().ToString();
      out.push_back(std::move(*keyed));
    }
  });
  // The (key, environment) pair and the environment tuple; the scalar
  // key and the row's frame take no heap.
  EXPECT_LE(allocations, 2 * static_cast<int64_t>(rows.size()));
  ASSERT_EQ(out.size(), rows.size());
  EXPECT_EQ(out[7].ToString(), "(7,(7,3.5))");
}

TEST_F(SegmentAllocations, FilterAllocatesOnlyTheRowsItKeeps) {
  plan::RowSegmentBuilder seg = Scan();
  seg.Filter(comp::MakeCall(
      "inRange", {comp::MakeVar("i"), comp::MakeInt(10), comp::MakeInt(19)}));
  const std::optional<FusedOp> op = std::move(seg).FinishEnv();
  ASSERT_TRUE(op.has_value());
  ASSERT_EQ(op->kind, FusedOp::Kind::kFlatMap);
  const ValueVec rows = Rows(100);
  ValueVec kept;
  kept.reserve(rows.size());
  auto sink = [&kept](const Value& row) {
    kept.push_back(row);
    return Status::OK();
  };
  const int64_t allocations = AllocationsOf([&] {
    for (const Value& row : rows) {
      const Status st = op->flat(row, sink);
      ASSERT_TRUE(st.ok()) << st.ToString();
    }
  });
  ASSERT_EQ(kept.size(), 10u);
  EXPECT_EQ(kept.front().ToString(), "(10,5)");
  // One block per kept row, its environment tuple. The 90 rows the
  // filter drops allocate nothing: inRange's arguments live on the stack
  // and the rows stream into the sink without an output vector.
  EXPECT_EQ(allocations, 10);
}

}  // namespace
}  // namespace diablo
