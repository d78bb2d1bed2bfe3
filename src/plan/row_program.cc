#include "plan/row_program.h"

#include <cstdlib>
#include <utility>

#include "runtime/operators.h"

namespace diablo::plan {

using comp::CExpr;
using comp::CExprPtr;
using comp::Pattern;
using runtime::BinOp;
using runtime::FusedOp;
using runtime::Value;
using runtime::ValueVec;

namespace {

constexpr int64_t kMaxLocalRange = 1 << 24;

/// An Eval result as an owned value: moved out of `tmp` when the node
/// filled it, copied otherwise.
Value Take(Value* tmp, const Value* v) {
  return v == tmp ? std::move(*tmp) : *v;
}

// --------------------------- expressions ------------------------------------

/// A literal, or a driver scalar captured when the plan executes.
class ConstExpr final : public RowExpr {
 public:
  explicit ConstExpr(Value value) : value_(std::move(value)) {}
  Status Eval(const RowFrame&, Value*, const Value** out) const override {
    *out = &value_;
    return Status::OK();
  }

 private:
  Value value_;
};

class SlotExpr final : public RowExpr {
 public:
  explicit SlotExpr(size_t slot) : slot_(slot) {}
  Status Eval(const RowFrame& frame, Value*,
              const Value** out) const override {
    *out = frame.slots[slot_];
    return Status::OK();
  }

 private:
  size_t slot_;
};

/// A name or construct that has no per-row meaning. The error surfaces
/// only when a row reaches it, as it did under interpretation.
class ErrorExpr final : public RowExpr {
 public:
  explicit ErrorExpr(std::string message) : message_(std::move(message)) {}
  Status Eval(const RowFrame&, Value*, const Value**) const override {
    return Status::RuntimeError(message_);
  }

 private:
  std::string message_;
};

class BinExpr final : public RowExpr {
 public:
  BinExpr(BinOp op, RowExprPtr lhs, RowExprPtr rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    Value lt;
    const Value* l = nullptr;
    DIABLO_RETURN_IF_ERROR(lhs_->Eval(frame, &lt, &l));
    // Short-circuit booleans: the right operand is never evaluated.
    if ((op_ == BinOp::kAnd || op_ == BinOp::kOr) && l->is_bool() &&
        l->AsBool() == (op_ == BinOp::kOr)) {
      *tmp = Value::MakeBool(op_ == BinOp::kOr);
      *out = tmp;
      return Status::OK();
    }
    Value rt;
    const Value* r = nullptr;
    DIABLO_RETURN_IF_ERROR(rhs_->Eval(frame, &rt, &r));
    DIABLO_ASSIGN_OR_RETURN(*tmp, runtime::EvalBinOp(op_, *l, *r));
    *out = tmp;
    return Status::OK();
  }

 private:
  BinOp op_;
  RowExprPtr lhs_;
  RowExprPtr rhs_;
};

class UnExpr final : public RowExpr {
 public:
  UnExpr(runtime::UnOp op, RowExprPtr operand)
      : op_(op), operand_(std::move(operand)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    Value t;
    const Value* v = nullptr;
    DIABLO_RETURN_IF_ERROR(operand_->Eval(frame, &t, &v));
    DIABLO_ASSIGN_OR_RETURN(*tmp, runtime::EvalUnOp(op_, *v));
    *out = tmp;
    return Status::OK();
  }

 private:
  runtime::UnOp op_;
  RowExprPtr operand_;
};

/// Evaluates `exprs` in order into out[0], out[1], ...: straight into a
/// tuple's block or an argument array, with no vector in between.
Status EvalInto(const std::vector<RowExprPtr>& exprs, const RowFrame& frame,
                Value* out) {
  for (size_t i = 0; i < exprs.size(); ++i) {
    const Value* v = nullptr;
    DIABLO_RETURN_IF_ERROR(exprs[i]->Eval(frame, &out[i], &v));
    if (v != &out[i]) out[i] = *v;
  }
  return Status::OK();
}

/// The tuple of `exprs`' values, built in place in its one block.
StatusOr<Value> EvalTuple(const std::vector<RowExprPtr>& exprs,
                          const RowFrame& frame) {
  Value* elems = nullptr;
  Value tuple = Value::NewTuple(exprs.size(), &elems);
  DIABLO_RETURN_IF_ERROR(EvalInto(exprs, frame, elems));
  return tuple;
}

/// Tuple and bag literals.
class ConsExpr final : public RowExpr {
 public:
  ConsExpr(bool bag, std::vector<RowExprPtr> elems)
      : bag_(bag), elems_(std::move(elems)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    if (bag_) {
      ValueVec values(elems_.size());
      DIABLO_RETURN_IF_ERROR(EvalInto(elems_, frame, values.data()));
      *tmp = Value::MakeBag(std::move(values));
    } else {
      DIABLO_ASSIGN_OR_RETURN(*tmp, EvalTuple(elems_, frame));
    }
    *out = tmp;
    return Status::OK();
  }

 private:
  bool bag_;
  std::vector<RowExprPtr> elems_;
};

class RecordExpr final : public RowExpr {
 public:
  RecordExpr(std::vector<std::string> names, std::vector<RowExprPtr> fields)
      : names_(std::move(names)), fields_(std::move(fields)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    ValueVec values(fields_.size());
    DIABLO_RETURN_IF_ERROR(EvalInto(fields_, frame, values.data()));
    runtime::FieldVec record;
    record.reserve(values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      record.emplace_back(names_[i], std::move(values[i]));
    }
    *tmp = Value::MakeRecord(std::move(record));
    *out = tmp;
    return Status::OK();
  }

 private:
  std::vector<std::string> names_;
  std::vector<RowExprPtr> fields_;
};

/// A record field, or the 1-based tuple component `_N`.
class ProjExpr final : public RowExpr {
 public:
  ProjExpr(RowExprPtr base, std::string field)
      : base_(std::move(base)),
        field_(std::move(field)),
        index_(field_.size() >= 2 && field_[0] == '_'
                   ? std::atoi(field_.c_str() + 1)
                   : 0) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    Value bt;
    const Value* base = nullptr;
    DIABLO_RETURN_IF_ERROR(base_->Eval(frame, &bt, &base));
    const Value* field = nullptr;
    if (base->is_record()) {
      field = base->FindField(field_);
      if (field == nullptr) {
        return Status::RuntimeError(StrCat("record ", base->ToString(),
                                           " has no field '", field_, "'"));
      }
    } else if (base->is_tuple() && index_ >= 1 &&
               static_cast<size_t>(index_) <= base->tuple().size()) {
      field = &base->tuple()[static_cast<size_t>(index_) - 1];
    } else {
      return Status::RuntimeError(StrCat("cannot project .", field_,
                                         " out of ", base->ToString()));
    }
    if (base == &bt) {
      *tmp = *field;  // `bt` dies with this call
      *out = tmp;
    } else {
      *out = field;
    }
    return Status::OK();
  }

 private:
  RowExprPtr base_;
  std::string field_;
  int index_;
};

class CallExpr final : public RowExpr {
 public:
  CallExpr(std::string name, std::vector<RowExprPtr> args)
      : name_(std::move(name)),
        fn_(runtime::FindBuiltin(name_)),
        args_(std::move(args)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    // On the stack up to the widest builtin's arity; a call with more
    // arguments only lives to report its arity error.
    Value inline_args[kInlineArgs];
    ValueVec spilled;
    Value* args = inline_args;
    if (args_.size() > kInlineArgs) {
      spilled.resize(args_.size());
      args = spilled.data();
    }
    DIABLO_RETURN_IF_ERROR(EvalInto(args_, frame, args));
    if (!fn_.has_value()) {
      return Status::RuntimeError(StrCat("unknown builtin '", name_, "'"));
    }
    DIABLO_ASSIGN_OR_RETURN(
        *tmp, runtime::EvalBuiltin(*fn_, {args, args_.size()}));
    *out = tmp;
    return Status::OK();
  }

 private:
  static constexpr size_t kInlineArgs = 3;  // inRange(x, lo, hi)

  std::string name_;
  std::optional<runtime::Builtin> fn_;
  std::vector<RowExprPtr> args_;
};

class ReduceExpr final : public RowExpr {
 public:
  ReduceExpr(BinOp op, RowExprPtr arg) : op_(op), arg_(std::move(arg)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    Value t;
    const Value* bag = nullptr;
    DIABLO_RETURN_IF_ERROR(arg_->Eval(frame, &t, &bag));
    if (!bag->is_bag()) {
      return Status::RuntimeError(StrCat("reduction ", runtime::BinOpName(op_),
                                         "/ applied to ", bag->ToString()));
    }
    DIABLO_ASSIGN_OR_RETURN(*tmp, runtime::ReduceBag(op_, bag->bag()));
    *out = tmp;
    return Status::OK();
  }

 private:
  BinOp op_;
  RowExprPtr arg_;
};

class RangeExpr final : public RowExpr {
 public:
  RangeExpr(RowExprPtr lo, RowExprPtr hi)
      : lo_(std::move(lo)), hi_(std::move(hi)) {}
  Status Eval(const RowFrame& frame, Value* tmp,
              const Value** out) const override {
    Value lt, ht;
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    DIABLO_RETURN_IF_ERROR(lo_->Eval(frame, &lt, &lo));
    DIABLO_RETURN_IF_ERROR(hi_->Eval(frame, &ht, &hi));
    if (!lo->is_int() || !hi->is_int()) {
      return Status::RuntimeError("range bounds must be integers");
    }
    const int64_t a = lo->AsInt();
    const int64_t b = hi->AsInt();
    ValueVec elems;
    if (b >= a) {
      // The unsigned difference is exact for b >= a, with no overflow.
      const uint64_t span =
          static_cast<uint64_t>(b) - static_cast<uint64_t>(a);
      if (span >= static_cast<uint64_t>(kMaxLocalRange)) {
        return Status::RuntimeError("range too large to materialize per-row");
      }
      elems.reserve(span + 1);
      for (uint64_t k = 0; k <= span; ++k) {
        elems.push_back(Value::MakeInt(a + static_cast<int64_t>(k)));
      }
    }
    *tmp = Value::MakeBag(std::move(elems));
    *out = tmp;
    return Status::OK();
  }

 private:
  RowExprPtr lo_;
  RowExprPtr hi_;
};

/// On the driver: an array variable, nested comprehension or merge, run
/// on the engine and collected to a bag, or with `reduce` folded by a
/// distributed reduce.
class EngineExpr final : public RowExpr {
 public:
  EngineExpr(CExprPtr array, std::optional<BinOp> reduce,
             const ExecState& state)
      : array_(std::move(array)), reduce_(reduce), state_(state) {}
  Status Eval(const RowFrame&, Value* tmp, const Value** out) const override {
    DIABLO_ASSIGN_OR_RETURN(runtime::Dataset ds,
                            EvalArrayExpr(array_, state_));
    runtime::Engine& engine = *state_.engine;
    if (reduce_.has_value()) {
      // The BinOp overload folds with native arithmetic while the rows
      // are numeric (bit-identical to EvalBinOp).
      DIABLO_ASSIGN_OR_RETURN(
          std::optional<Value> acc,
          engine.Reduce(ds, *reduce_,
                        StrCat("reduce[", runtime::BinOpName(*reduce_), "]")));
      *tmp = acc.has_value()
                 ? std::move(*acc)
                 : runtime::MonoidIdentity(*reduce_, Value::MakeInt(0));
    } else {
      DIABLO_ASSIGN_OR_RETURN(ValueVec rows, engine.Collect(ds));
      *tmp = Value::MakeBag(std::move(rows));
    }
    *out = tmp;
    return Status::OK();
  }

 private:
  CExprPtr array_;
  std::optional<BinOp> reduce_;
  ExecState state_;
};

}  // namespace

RowExprPtr CompileRowExpr(const CExprPtr& e,
                          const std::vector<std::string>& schema,
                          const ExecState& state, bool on_driver) {
  auto sub = [&](const CExprPtr& c) {
    return CompileRowExpr(c, schema, state, on_driver);
  };
  auto subs = [&](const std::vector<CExprPtr>& cs) {
    std::vector<RowExprPtr> out;
    out.reserve(cs.size());
    for (const CExprPtr& c : cs) out.push_back(sub(c));
    return out;
  };
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    for (size_t i = 0; i < schema.size(); ++i) {
      if (schema[i] == name) return std::make_unique<SlotExpr>(i);
    }
    if (state.scalars != nullptr) {
      auto it = state.scalars->find(name);
      if (it != state.scalars->end()) {
        return std::make_unique<ConstExpr>(it->second);
      }
    }
    if (state.arrays != nullptr && state.arrays->count(name) != 0) {
      if (on_driver) {
        return std::make_unique<EngineExpr>(e, std::nullopt, state);
      }
      return std::make_unique<ErrorExpr>(
          StrCat("distributed array '", name,
                 "' used as a value inside a row expression"));
    }
    return std::make_unique<ErrorExpr>(
        StrCat("unbound variable '", name, "'"));
  }
  if (e->is<CExpr::IntConst>()) {
    return std::make_unique<ConstExpr>(
        Value::MakeInt(e->as<CExpr::IntConst>().value));
  }
  if (e->is<CExpr::DoubleConst>()) {
    return std::make_unique<ConstExpr>(
        Value::MakeDouble(e->as<CExpr::DoubleConst>().value));
  }
  if (e->is<CExpr::BoolConst>()) {
    return std::make_unique<ConstExpr>(
        Value::MakeBool(e->as<CExpr::BoolConst>().value));
  }
  if (e->is<CExpr::StringConst>()) {
    return std::make_unique<ConstExpr>(
        Value::MakeString(e->as<CExpr::StringConst>().value));
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    return std::make_unique<BinExpr>(b.op, sub(b.lhs), sub(b.rhs));
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    return std::make_unique<UnExpr>(u.op, sub(u.operand));
  }
  if (e->is<CExpr::TupleCons>()) {
    return std::make_unique<ConsExpr>(/*bag=*/false,
                                      subs(e->as<CExpr::TupleCons>().elems));
  }
  if (e->is<CExpr::BagCons>()) {
    return std::make_unique<ConsExpr>(/*bag=*/true,
                                      subs(e->as<CExpr::BagCons>().elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    std::vector<std::string> names;
    std::vector<RowExprPtr> fields;
    for (const auto& [n, c] : e->as<CExpr::RecordCons>().fields) {
      names.push_back(n);
      fields.push_back(sub(c));
    }
    return std::make_unique<RecordExpr>(std::move(names), std::move(fields));
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    return std::make_unique<ProjExpr>(sub(p.base), p.field);
  }
  if (e->is<CExpr::Call>()) {
    const auto& c = e->as<CExpr::Call>();
    return std::make_unique<CallExpr>(c.function, subs(c.args));
  }
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    if (on_driver && r.arg->is<CExpr::Nested>()) {
      return std::make_unique<EngineExpr>(r.arg, r.op, state);
    }
    return std::make_unique<ReduceExpr>(r.op, sub(r.arg));
  }
  if (e->is<CExpr::Range>()) {
    const auto& r = e->as<CExpr::Range>();
    return std::make_unique<RangeExpr>(sub(r.lo), sub(r.hi));
  }
  if (on_driver) {  // Nested or Merge
    return std::make_unique<EngineExpr>(e, std::nullopt, state);
  }
  if (e->is<CExpr::Nested>()) {
    return std::make_unique<ErrorExpr>(
        "nested comprehension in a row expression (normalizer should have "
        "flattened it)");
  }
  // Merge.
  return std::make_unique<ErrorExpr>("array merge in a row expression");
}

StatusOr<Value> EvalRowExpr(const RowExpr& e, const ValueVec& env) {
  std::vector<const Value*> slots;
  slots.reserve(env.size());
  for (const Value& v : env) slots.push_back(&v);
  Value tmp;
  const Value* out = nullptr;
  DIABLO_RETURN_IF_ERROR(e.Eval(RowFrame{slots.data(), nullptr}, &tmp, &out));
  return Take(&tmp, out);
}

// --------------------------- segments ---------------------------------------

namespace {

/// A wide operator's key: the single key expression's value, or the
/// tuple of several.
StatusOr<Value> EvalKey(const std::vector<RowExprPtr>& keys,
                        const RowFrame& frame) {
  if (keys.size() == 1) {
    Value t;
    const Value* v = nullptr;
    DIABLO_RETURN_IF_ERROR(keys[0]->Eval(frame, &t, &v));
    return Take(&t, v);
  }
  return EvalTuple(keys, frame);
}

/// Points frame.slots[slot...] at the components of `value` that
/// `pattern` binds.
Status BindSlots(const Pattern& pattern, const Value& value,
                 const RowFrame& frame, size_t slot) {
  return DestructurePattern(pattern, value, [&](const Value& v) {
    frame.slots[slot++] = &v;
  });
}

/// Storage for one row's frame: on the stack, spilling to the heap for
/// wide environments.
class FrameStorage {
 public:
  FrameStorage(size_t nslots, size_t ncells) {
    if (nslots > kInlineSlots) {
      heap_slots_.resize(nslots);
      slots_ = heap_slots_.data();
    }
    if (ncells > kInlineCells) {
      heap_cells_.resize(ncells);
      cells_ = heap_cells_.data();
    }
  }
  FrameStorage(const FrameStorage&) = delete;
  FrameStorage& operator=(const FrameStorage&) = delete;

  RowFrame frame() { return RowFrame{slots_, cells_}; }

 private:
  static constexpr size_t kInlineSlots = 16;
  static constexpr size_t kInlineCells = 8;
  const Value* inline_slots_[kInlineSlots] = {};
  Value inline_cells_[kInlineCells];
  std::vector<const Value*> heap_slots_;
  ValueVec heap_cells_;
  const Value** slots_ = inline_slots_;
  Value* cells_ = inline_cells_;
};

}  // namespace

/// A compiled segment. Immutable once built and shared by every task
/// that runs it, so all per-row state lives in the row's frame.
class RowSegment {
 public:
  /// One narrow qualifier.
  struct Step {
    enum class Kind { kLet, kFilter, kIterate, kProbe };
    Kind kind = Kind::kLet;
    Pattern pattern;                          // kLet, kIterate, kProbe
    RowExprPtr expr;                          // kLet, kFilter, kIterate
    std::vector<RowExprPtr> keys;             // kProbe
    std::shared_ptr<const ProbeTable> table;  // kProbe
    size_t slot = 0;  // first slot the step binds
    size_t cell = 0;  // cell holding the step's value for the row
  };
  enum class Output { kEnv, kHead, kKeyRow, kGroupKey, kReduceKey };

  SegmentBinder binder;
  /// Slots the binder fills from the row itself (for kCartesian, before
  /// the product's).
  size_t binder_width = 0;
  std::vector<Step> steps;
  Output output = Output::kEnv;
  std::vector<RowExprPtr> keys;   // kKeyRow, kGroupKey, kReduceKey
  RowExprPtr value;               // kHead, kReduceKey
  std::vector<size_t> positions;  // kGroupKey
  size_t width = 0;               // environment width at the output
  size_t ncells = 0;
  std::string label;
  int plan_ops = 0;
  bool one_to_one = true;

  void AddLabel(const std::string& fragment) {
    if (fragment.empty()) return;
    if (!label.empty()) label += '+';
    label += fragment;
    ++plan_ops;
  }

  StatusOr<Value> Map(const Value& row) const {
    Value out;
    auto emit = [&out](Value v) {
      out = std::move(v);
      return Status::OK();
    };
    DIABLO_RETURN_IF_ERROR(Run(row, emit));
    return out;
  }

  /// Hands each output row to `sink` as soon as it is built.
  Status FlatMap(const Value& row, runtime::RowSink sink) const {
    auto emit = [&sink](Value v) { return sink(v); };
    return Run(row, emit);
  }

 private:
  template <typename Emit>
  Status Run(const Value& row, Emit& emit) const;
  template <typename Emit>
  Status RunFrom(size_t i, const RowFrame& frame, Emit& emit) const;
  StatusOr<Value> MakeOutput(const RowFrame& frame) const;
};

template <typename Emit>
Status RowSegment::Run(const Value& row, Emit& emit) const {
  FrameStorage storage(width, ncells);
  const RowFrame frame = storage.frame();
  // The layout is fixed when the plan compiles, so a row that does not
  // fill it exactly is a planner bug: report it rather than write past
  // the frame.
  size_t n = 0;
  auto bind = [&](const Value& v) {
    if (n < binder_width) frame.slots[n] = &v;
    ++n;
  };
  using Kind = SegmentBinder::Kind;
  switch (binder.kind) {
    case Kind::kRows:
    case Kind::kCartesian:
      for (const Value& v : row.tuple()) bind(v);
      break;
    case Kind::kScan:
    case Kind::kRange:
      for (const Value& v : binder.prefix) bind(v);
      DIABLO_RETURN_IF_ERROR(DestructurePattern(binder.pattern, row, bind));
      break;
    case Kind::kJoinMerge: {
      const Value& sides = row.tuple()[1];
      for (const Value& v : sides.tuple()[0].tuple()) bind(v);
      for (const Value& v : sides.tuple()[1].tuple()) bind(v);
      break;
    }
    case Kind::kGroupLift: {
      DIABLO_RETURN_IF_ERROR(
          DestructurePattern(binder.pattern, row.tuple()[0], bind));
      const ValueVec& group = row.tuple()[1].bag();
      for (size_t i = 0; i < binder.lifted; ++i) {
        ValueVec column;
        column.reserve(group.size());
        for (const Value& tup : group) column.push_back(tup.tuple()[i]);
        frame.cells[i] = Value::MakeBag(std::move(column));
        bind(frame.cells[i]);
      }
      break;
    }
    case Kind::kReduceBind:
      DIABLO_RETURN_IF_ERROR(
          DestructurePattern(binder.pattern, row.tuple()[0], bind));
      bind(row.tuple()[1]);
      break;
  }
  if (n != binder_width) {
    return Status::RuntimeError(
        StrCat("stage '", label, "': row ", row.ToString(), " binds ", n,
               " variables, expected ", binder_width));
  }
  if (binder.kind != Kind::kCartesian) return RunFrom(0, frame, emit);
  for (const ValueVec& extra : *binder.product) {
    for (size_t j = 0; j < extra.size(); ++j) {
      frame.slots[binder_width + j] = &extra[j];
    }
    DIABLO_RETURN_IF_ERROR(RunFrom(0, frame, emit));
  }
  return Status::OK();
}

template <typename Emit>
Status RowSegment::RunFrom(size_t i, const RowFrame& frame,
                           Emit& emit) const {
  for (; i < steps.size(); ++i) {
    const Step& s = steps[i];
    Value* cell = &frame.cells[s.cell];
    switch (s.kind) {
      case Step::Kind::kLet: {
        const Value* v = nullptr;
        DIABLO_RETURN_IF_ERROR(s.expr->Eval(frame, cell, &v));
        DIABLO_RETURN_IF_ERROR(BindSlots(s.pattern, *v, frame, s.slot));
        break;
      }
      case Step::Kind::kFilter: {
        const Value* v = nullptr;
        DIABLO_RETURN_IF_ERROR(s.expr->Eval(frame, cell, &v));
        if (!v->is_bool()) {
          return Status::RuntimeError(
              StrCat("condition evaluated to ", v->ToString()));
        }
        if (!v->AsBool()) return Status::OK();
        break;
      }
      case Step::Kind::kIterate: {
        const Value* bag = nullptr;
        DIABLO_RETURN_IF_ERROR(s.expr->Eval(frame, cell, &bag));
        if (!bag->is_bag()) {
          return Status::RuntimeError(
              StrCat("generator domain is not a bag: ", bag->ToString()));
        }
        for (const Value& elem : bag->bag()) {
          DIABLO_RETURN_IF_ERROR(BindSlots(s.pattern, elem, frame, s.slot));
          DIABLO_RETURN_IF_ERROR(RunFrom(i + 1, frame, emit));
        }
        return Status::OK();
      }
      case Step::Kind::kProbe: {
        DIABLO_ASSIGN_OR_RETURN(*cell, EvalKey(s.keys, frame));
        auto hit = s.table->find(*cell);
        if (hit == s.table->end()) return Status::OK();
        for (const ValueVec& bound : hit->second) {
          for (size_t j = 0; j < bound.size(); ++j) {
            frame.slots[s.slot + j] = &bound[j];
          }
          DIABLO_RETURN_IF_ERROR(RunFrom(i + 1, frame, emit));
        }
        return Status::OK();
      }
    }
  }
  DIABLO_ASSIGN_OR_RETURN(Value out, MakeOutput(frame));
  return emit(std::move(out));
}

StatusOr<Value> RowSegment::MakeOutput(const RowFrame& frame) const {
  // Copies the slots' values into a tuple built in place.
  auto gather = [&frame](size_t n, auto slot_at) {
    Value* elems = nullptr;
    Value tuple = Value::NewTuple(n, &elems);
    for (size_t i = 0; i < n; ++i) elems[i] = *frame.slots[slot_at(i)];
    return tuple;
  };
  auto env = [&]() { return gather(width, [](size_t i) { return i; }); };
  switch (output) {
    case Output::kEnv:
      return env();
    case Output::kHead: {
      Value t;
      const Value* v = nullptr;
      DIABLO_RETURN_IF_ERROR(value->Eval(frame, &t, &v));
      return Take(&t, v);
    }
    case Output::kKeyRow: {
      DIABLO_ASSIGN_OR_RETURN(Value key, EvalKey(keys, frame));
      return Value::MakePair(std::move(key), env());
    }
    case Output::kGroupKey: {
      DIABLO_ASSIGN_OR_RETURN(Value key, EvalKey(keys, frame));
      return Value::MakePair(
          std::move(key),
          gather(positions.size(), [this](size_t i) { return positions[i]; }));
    }
    case Output::kReduceKey: {
      DIABLO_ASSIGN_OR_RETURN(Value key, EvalKey(keys, frame));
      Value t;
      const Value* v = nullptr;
      DIABLO_RETURN_IF_ERROR(value->Eval(frame, &t, &v));
      return Value::MakePair(std::move(key), Take(&t, v));
    }
  }
  return Status::RuntimeError("unknown segment output");
}

StatusOr<std::shared_ptr<const ProbeTable>> BuildProbeTable(
    const ValueVec& rows, const Pattern& pattern,
    const std::vector<CExprPtr>& keys, const ExecState& state) {
  const std::vector<std::string> schema = pattern.Vars();
  std::vector<RowExprPtr> compiled;
  compiled.reserve(keys.size());
  for (const CExprPtr& k : keys) {
    compiled.push_back(CompileRowExpr(k, schema, state));
  }
  auto table = std::make_shared<ProbeTable>();
  std::vector<const Value*> slots(schema.size());
  for (const Value& row : rows) {
    ValueVec bound;
    DIABLO_RETURN_IF_ERROR(DestructurePattern(
        pattern, row, [&](const Value& v) { bound.push_back(v); }));
    for (size_t i = 0; i < bound.size(); ++i) slots[i] = &bound[i];
    DIABLO_ASSIGN_OR_RETURN(Value key,
                            EvalKey(compiled, RowFrame{slots.data(), nullptr}));
    (*table)[std::move(key)].push_back(std::move(bound));
  }
  return std::shared_ptr<const ProbeTable>(std::move(table));
}

// --------------------------- builder ----------------------------------------

namespace {

/// Appends `step` to `seg`: it binds the slots after `schema` and gets
/// its own cell.
void AddStep(RowSegment* seg, std::vector<std::string>* schema,
             RowSegment::Step step, const std::string& label) {
  using Kind = RowSegment::Step::Kind;
  step.slot = schema->size();
  step.cell = seg->ncells++;
  if (step.kind != Kind::kFilter) step.pattern.CollectVars(schema);
  if (step.kind != Kind::kLet) seg->one_to_one = false;
  seg->AddLabel(label);
  seg->steps.push_back(std::move(step));
}

}  // namespace

RowSegmentBuilder::RowSegmentBuilder(SegmentBinder binder,
                                     std::vector<std::string> schema,
                                     const ExecState& state)
    : seg_(std::make_shared<RowSegment>()),
      schema_(std::move(schema)),
      state_(&state) {
  seg_->binder_width = schema_.size();
  if (binder.kind == SegmentBinder::Kind::kCartesian) {
    seg_->one_to_one = false;
    binder.pattern.CollectVars(&schema_);
  }
  seg_->ncells = binder.lifted;
  seg_->AddLabel(binder.label);
  seg_->binder = std::move(binder);
}

void RowSegmentBuilder::Let(const Pattern& pattern, const CExprPtr& expr) {
  RowSegment::Step step;
  step.kind = RowSegment::Step::Kind::kLet;
  step.pattern = pattern;
  step.expr = CompileRowExpr(expr, schema_, *state_);
  AddStep(seg_.get(), &schema_, std::move(step), "let");
}

void RowSegmentBuilder::Filter(const CExprPtr& expr) {
  RowSegment::Step step;
  step.kind = RowSegment::Step::Kind::kFilter;
  step.expr = CompileRowExpr(expr, schema_, *state_);
  AddStep(seg_.get(), &schema_, std::move(step), "filter");
}

void RowSegmentBuilder::Iterate(const Pattern& pattern,
                                const CExprPtr& expr) {
  RowSegment::Step step;
  step.kind = RowSegment::Step::Kind::kIterate;
  step.pattern = pattern;
  step.expr = CompileRowExpr(expr, schema_, *state_);
  AddStep(seg_.get(), &schema_, std::move(step), "iterate");
}

void RowSegmentBuilder::Probe(std::string label,
                              std::shared_ptr<const ProbeTable> table,
                              const std::vector<CExprPtr>& keys,
                              const Pattern& pattern) {
  RowSegment::Step step;
  step.kind = RowSegment::Step::Kind::kProbe;
  step.pattern = pattern;
  for (const CExprPtr& k : keys) {
    step.keys.push_back(CompileRowExpr(k, schema_, *state_));
  }
  step.table = std::move(table);
  AddStep(seg_.get(), &schema_, std::move(step), label);
}

FusedOp RowSegmentBuilder::Finish() {
  seg_->width = schema_.size();
  std::shared_ptr<const RowSegment> seg = std::move(seg_);
  FusedOp op;
  op.label = seg->label;
  op.plan_ops = seg->plan_ops;
  if (seg->one_to_one) {
    op.kind = FusedOp::Kind::kMap;
    op.map = [seg](const Value& row) { return seg->Map(row); };
  } else {
    op.kind = FusedOp::Kind::kFlatMap;
    op.flat = [seg](const Value& row, runtime::RowSink sink) {
      return seg->FlatMap(row, sink);
    };
  }
  return op;
}

std::optional<FusedOp> RowSegmentBuilder::FinishEnv() && {
  if (seg_->plan_ops == 0) return std::nullopt;
  seg_->output = RowSegment::Output::kEnv;
  return Finish();
}

FusedOp RowSegmentBuilder::FinishHead(const CExprPtr& head) && {
  seg_->output = RowSegment::Output::kHead;
  seg_->value = CompileRowExpr(head, schema_, *state_);
  seg_->AddLabel("yield");
  return Finish();
}

FusedOp RowSegmentBuilder::FinishKeyRow(std::string label,
                                        const std::vector<CExprPtr>& keys) && {
  seg_->output = RowSegment::Output::kKeyRow;
  for (const CExprPtr& k : keys) {
    seg_->keys.push_back(CompileRowExpr(k, schema_, *state_));
  }
  seg_->AddLabel(label);
  return Finish();
}

FusedOp RowSegmentBuilder::FinishGroupKey(const CExprPtr& key,
                                          std::vector<size_t> positions) && {
  seg_->output = RowSegment::Output::kGroupKey;
  seg_->keys.push_back(CompileRowExpr(key, schema_, *state_));
  seg_->positions = std::move(positions);
  seg_->AddLabel("groupKey");
  return Finish();
}

FusedOp RowSegmentBuilder::FinishReduceKey(const CExprPtr& key,
                                           const CExprPtr& value) && {
  seg_->output = RowSegment::Output::kReduceKey;
  seg_->keys.push_back(CompileRowExpr(key, schema_, *state_));
  seg_->value = CompileRowExpr(value, schema_, *state_);
  seg_->AddLabel("reduceKey");
  return Finish();
}

}  // namespace diablo::plan
