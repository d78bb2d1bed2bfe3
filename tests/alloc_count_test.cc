// Heap allocations of the Value representation and of the compiled row
// path (DESIGN.md §19, §20): a scalar takes no heap, every heap kind is
// one counted block, and a segment builds its outputs in place. This
// binary replaces the global operator new with one that counts calls and
// bytes, so the counts pin the footprint exactly and need no timing.

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
std::atomic<int64_t> g_bytes{0};

void Count(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(static_cast<int64_t>(n), std::memory_order_relaxed);
}

void* TryAllocate(std::size_t n) {
  Count(n);
  return std::malloc(n == 0 ? 1 : n);
}

void* TryAllocateAligned(std::size_t n, std::align_val_t align) {
  Count(n);
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

/// The heap blocks `fn` allocates, and their requested bytes.
struct Allocations {
  int64_t calls = 0;
  int64_t bytes = 0;
};

template <typename Fn>
Allocations AllocationsOf(Fn&& fn) {
  const int64_t calls = g_allocations.load();
  const int64_t bytes = g_bytes.load();
  fn();
  return {g_allocations.load() - calls, g_bytes.load() - bytes};
}

/// A heap kind's block: the 8-byte header (count and arity), then the
/// payload.
constexpr int64_t Block(std::size_t payload) {
  return 8 + static_cast<int64_t>(payload);
}

TEST(ValueAllocations, ScalarsAllocateNothing) {
  const Allocations a = AllocationsOf([] {
    Value v = Value::MakeUnit();
    v = Value::MakeBool(true);
    v = IV(-7);
    v = DV(0.5);
    const Value copy = v;
    EXPECT_EQ(copy.ToString(), "0.5");
  });
  EXPECT_EQ(a.calls, 0);
  EXPECT_EQ(a.bytes, 0);
}

TEST(TupleAllocations, MakePairAllocatesOnceAndCopiesAllocateNothing) {
  Value pair;
  Allocations a = AllocationsOf([&] { pair = Value::MakePair(IV(1), DV(2.5)); });
  EXPECT_EQ(a.calls, 1);
  EXPECT_EQ(a.bytes, 40);  // the header and two 16-byte Values
  std::optional<Value> copy;
  a = AllocationsOf([&] { copy.emplace(pair); });
  EXPECT_EQ(a.calls, 0);
  EXPECT_EQ(copy->ToString(), "(1,2.5)");
}

TEST(TupleAllocations, NewTupleAllocatesOnce) {
  Value tuple;
  const Allocations a = AllocationsOf([&] {
    Value* elems = nullptr;
    tuple = Value::NewTuple(5, &elems);
    for (int i = 0; i < 5; ++i) elems[i] = IV(i);
  });
  EXPECT_EQ(a.calls, 1);
  EXPECT_EQ(a.bytes, 88);  // the header and five 16-byte Values
  EXPECT_EQ(tuple.ToString(), "(0,1,2,3,4)");
}

// A string, a record or a bag is one block around its payload: the only
// other allocation is the payload's own buffer, which the caller built.
TEST(ValueAllocations, StringRecordAndBagAllocateOneBlock) {
  Value str;
  Allocations a = AllocationsOf([&] { str = Value::MakeString("key1"); });
  EXPECT_EQ(a.calls, 1);  // "key1" fits the short-string buffer
  EXPECT_EQ(a.bytes, Block(sizeof(std::string)));

  std::string long_text(100, 'x');
  a = AllocationsOf([&] { str = Value::MakeString(std::move(long_text)); });
  EXPECT_EQ(a.calls, 1);
  EXPECT_EQ(a.bytes, Block(sizeof(std::string)));

  runtime::FieldVec fields;
  fields.emplace_back("f", IV(1));
  Value record;
  a = AllocationsOf([&] { record = Value::MakeRecord(std::move(fields)); });
  EXPECT_EQ(a.calls, 1);
  EXPECT_EQ(a.bytes, Block(sizeof(runtime::FieldVec)));

  ValueVec elems = {IV(1), IV(2)};
  Value bag;
  a = AllocationsOf([&] { bag = Value::MakeBag(std::move(elems)); });
  EXPECT_EQ(a.calls, 1);
  EXPECT_EQ(a.bytes, Block(sizeof(ValueVec)));
  EXPECT_EQ(record.ToString(), "<f=1>");
  EXPECT_EQ(bag.ToString(), "{1,2}");
}

TEST(ValueAllocations, CopiesAllocateNothing) {
  const ValueVec values = {
      Value(),          Value::MakeBool(false),
      IV(3),            DV(1.5),
      Value::MakeString(std::string(100, 's')),
      Value::MakePair(IV(1), DV(2.5)),
      Value::MakeRecord({{"f", IV(2)}}),
      Value::MakeBag({IV(4)})};
  std::vector<std::optional<Value>> copies(values.size());
  const Allocations a = AllocationsOf([&] {
    for (size_t i = 0; i < values.size(); ++i) {
      copies[i].emplace(values[i]);
      Value assigned;
      assigned = values[i];
    }
  });
  EXPECT_EQ(a.calls, 0);
  EXPECT_EQ(a.bytes, 0);
  for (size_t i = 0; i < values.size(); ++i) EXPECT_EQ(*copies[i], values[i]);
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
  }).calls;
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
  }).calls;
  ASSERT_EQ(kept.size(), 10u);
  EXPECT_EQ(kept.front().ToString(), "(10,5)");
  // One block per kept row, its environment tuple. The 90 rows the
  // filter drops allocate nothing: inRange's arguments live on the stack
  // and the rows stream into the sink without an output vector.
  EXPECT_EQ(allocations, 10);
}

}  // namespace
}  // namespace diablo
