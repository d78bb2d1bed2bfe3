#include "runtime/engine.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/strings.h"
#include "runtime/metrics_registry.h"
#include "runtime/remote.h"
#include "runtime/serialize.h"
#include "runtime/worker_pool.h"

namespace diablo::runtime {

/// One virtual task of a wide stage's finish wave: the rows each input
/// side delivered to it (side 0 restricted to [lo, hi) — a chunk when
/// salted), and the task's record, where its finish reports its work,
/// keyed-table counts, accumulator bytes and columnar counters.
template <typename Rows>
struct WideTask {
  const Rows* left = nullptr;
  const Rows* right = nullptr;  ///< join and coGroup only
  size_t lo = 0;
  size_t hi = 0;
  StageStats* record = nullptr;
};

/// Per-task tally of the intermediates a fused chain streamed through
/// instead of materializing: rows produced at each operator boundary,
/// with bytes estimated from the first row crossing that boundary (a
/// full per-row SerializedBytes() walk would cost more than the
/// materialization it measures). Each task attempt keeps its own and
/// adds it to its record at the end of its body.
struct ChainTally {
  std::vector<int64_t> rows;
  std::vector<int64_t> sample_bytes;

  explicit ChainTally(size_t boundaries)
      : rows(boundaries, 0), sample_bytes(boundaries, 0) {}
  void Record(size_t boundary, const Value& v) {
    if (boundary >= rows.size()) return;
    if (rows[boundary]++ == 0) sample_bytes[boundary] = v.SerializedBytes();
  }
  void AddTo(StageStats* record) const {
    for (size_t i = 0; i < rows.size(); ++i) {
      record->rows_not_materialized += rows[i];
      record->bytes_not_materialized += rows[i] * sample_bytes[i];
    }
  }
};

namespace {

/// Rows per partition (or per task's output) of any row layout.
template <typename Part>
std::vector<int64_t> RowCounts(const std::vector<Part>& parts) {
  std::vector<int64_t> counts;
  counts.reserve(parts.size());
  for (const auto& p : parts) counts.push_back(static_cast<int64_t>(p.size()));
  return counts;
}

std::vector<int64_t> RowCounts(const Dataset& ds) {
  return RowCounts(ds.partitions());
}

/// Worker clock offsets below this are treated as zero when splicing
/// worker telemetry spans into the driver trace: forked workers share
/// the driver's CLOCK_MONOTONIC, so the Hello-measured offset is pure
/// scheduling noise, and collapsing it keeps worker spans nested inside
/// their dispatch window. Larger offsets (a worker with a genuinely
/// different clock base) are applied; the measured value is recorded on
/// the span either way.
constexpr double kClockAlignThresholdUs = 10'000.0;

int HashDestination(size_t hash, int out_parts) {
  return static_cast<int>(hash % static_cast<size_t>(out_parts));
}

/// Murmur3-style 64-bit finalizer used to pick salt stripes. The
/// scatter already consumed the hash modulo num_partitions
/// (HashDestination), so striping a destination's rows must remix the
/// hash first or the stripes would be modulus-correlated with the
/// destination choice and collapse onto few stripes.
size_t RemixHash(size_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

/// The sub-task layout of one salted wave (SkewConfig). Original task p
/// becomes fanout[p] virtual tasks; virtual task t works on sub-task
/// index_of[t] of original task_of[t]. fanout == 1 everywhere when
/// mitigation is off or nothing is hot — the layout then degenerates to
/// the identity and every downstream loop behaves exactly as before.
struct SaltPlan {
  bool active = false;
  int64_t extra = 0;        ///< sub-tasks beyond the original task count
  std::vector<int> fanout;  ///< per original task, 1 = unsplit
  std::vector<int> first;   ///< original task -> its first virtual index
  std::vector<int> task_of;   ///< virtual -> original task
  std::vector<int> index_of;  ///< virtual -> sub-task index within task
};

SaltPlan PlanSalt(const std::vector<int64_t>& rows, const SkewConfig& cfg) {
  SaltPlan plan;
  const int n = static_cast<int>(rows.size());
  plan.fanout.assign(n, 1);
  int64_t total = 0;
  for (int64_t r : rows) total += r;
  if (cfg.mitigate && n > 1 && total > 0) {
    const double mean = static_cast<double>(total) / n;
    for (int p = 0; p < n; ++p) {
      if (rows[p] >= cfg.min_rows &&
          static_cast<double>(rows[p]) > cfg.ratio * mean) {
        // Enough sub-tasks that each still carries min_rows-scale work.
        const int64_t want = rows[p] / std::max<int64_t>(cfg.min_rows, 1);
        plan.fanout[p] = static_cast<int>(std::clamp<int64_t>(
            want, 2, std::max(2, cfg.max_fanout)));
      }
    }
  }
  plan.first.reserve(n);
  for (int p = 0; p < n; ++p) {
    plan.first.push_back(static_cast<int>(plan.task_of.size()));
    for (int s = 0; s < plan.fanout[p]; ++s) {
      plan.task_of.push_back(p);
      plan.index_of.push_back(s);
    }
    if (plan.fanout[p] > 1) {
      plan.active = true;
      plan.extra += plan.fanout[p] - 1;
    }
  }
  return plan;
}

/// Emits the skew_salting event for an active salt plan (no-op when the
/// plan split nothing or no log is attached): how many hot tasks were
/// split and how many extra sub-tasks the split added.
void EmitSkewSalting(EventLog* events, int stage, const char* wave,
                     const SaltPlan& salt) {
  if (events == nullptr || !salt.active) return;
  Event e;
  e.name = "skew_salting";
  e.stage_id = stage;
  int64_t hot = 0;
  for (int f : salt.fanout) {
    if (f > 1) ++hot;
  }
  e.ints.emplace_back("hot_tasks", hot);
  e.ints.emplace_back("extra_tasks", salt.extra);
  e.strs.emplace_back("wave", wave);
  events->Emit(std::move(e));
}

/// Row range [lo, hi) of chunk `index` of `fanout` over `n` rows:
/// contiguous, covering, ascending — chunk order IS arrival order.
std::pair<size_t, size_t> ChunkRange(size_t n, int index, int fanout) {
  const size_t f = static_cast<size_t>(fanout);
  const size_t i = static_cast<size_t>(index);
  return {n * i / f, n * (i + 1) / f};
}

/// Un-salt merge of one split destination: a k-way merge of its
/// sub-tasks' key-sorted (key, value) rows, ties going to the lower
/// sub-task. Stripes hold disjoint key sets, so for them this is a plain
/// sorted merge, byte-identical to the sort the unsplit task would have
/// produced. Chunks may share a key: `merge_same_key` (groupByKey's bag
/// concatenation) then folds that key's rows in chunk order — which is
/// arrival order, because chunks are contiguous ascending row ranges —
/// and counts each fold into `salted_keys`.
ValueVec UnsaltMerge(
    std::vector<ValueVec> parts,
    const std::function<Value(const Value&, const Value&)>& merge_same_key,
    int64_t* salted_keys) {
  size_t total = 0;
  for (const ValueVec& p : parts) total += p.size();
  ValueVec out;
  out.reserve(total);
  std::vector<size_t> cur(parts.size(), 0);
  for (size_t done = 0; done < total;) {
    size_t best = parts.size();
    for (size_t s = 0; s < parts.size(); ++s) {
      if (cur[s] >= parts[s].size()) continue;
      if (best == parts.size() || parts[s][cur[s]].tuple()[0] <
                                      parts[best][cur[best]].tuple()[0]) {
        best = s;
      }
    }
    Value row = std::move(parts[best][cur[best]++]);
    ++done;
    for (size_t s = best + 1; merge_same_key && s < parts.size(); ++s) {
      if (cur[s] >= parts[s].size() ||
          !(parts[s][cur[s]].tuple()[0] == row.tuple()[0])) {
        continue;
      }
      row = merge_same_key(row, parts[s][cur[s]++]);
      ++done;
      ++*salted_keys;
    }
    out.push_back(std::move(row));
  }
  return out;
}

/// groupByKey's same-key merge: one key's partial bags, concatenated.
Value ConcatBags(const Value& a, const Value& b) {
  ValueVec bag = a.tuple()[1].bag();
  const ValueVec& more = b.tuple()[1].bag();
  bag.insert(bag.end(), more.begin(), more.end());
  return Value::MakePair(a.tuple()[0], Value::MakeBag(std::move(bag)));
}

// The row layouts of the wide-stage wave. The scatter, stripe and
// un-salt code is written once over five operations — size, hash at i,
// append entry i, entry bytes and concatenate — that the boxed HashedVec
// and the typed TypedRows (runtime/column_batch.h) both supply.

size_t HashAt(const HashedVec& rows, size_t i) { return rows[i].hash; }
size_t HashAt(const TypedRows& rows, size_t i) { return rows.hashes[i]; }

int64_t EntryBytesAt(const HashedVec& rows, size_t i) {
  return rows[i].row.SerializedBytes();
}
int64_t EntryBytesAt(const TypedRows& rows, size_t i) {
  return rows.EntryBytesAt(i);
}

void Append(HashedVec* out, const HashedVec& rows, size_t i) {
  out->push_back(rows[i]);
}
void Append(TypedRows* out, const TypedRows& rows, size_t i) {
  out->Append(rows, i);
}

HashedVec Concat(std::vector<HashedVec>* parts) {
  size_t total = 0;
  for (const HashedVec& p : *parts) total += p.size();
  HashedVec out;
  out.reserve(total);
  for (HashedVec& p : *parts) {
    for (HashedRow& hr : p) out.push_back(std::move(hr));
  }
  return out;
}
TypedRows Concat(std::vector<TypedRows>* parts) {
  return TypedRows::Concat(*parts);
}

/// Splits one destination's shuffled rows into `k` hash stripes,
/// preserving arrival order within each stripe (stable single pass).
/// Every row of a key shares the key's hash, hence its stripe: no key
/// is ever split, so per-key fold order is untouched.
template <typename Rows>
std::vector<Rows> Stripe(const Rows& rows, int k) {
  std::vector<Rows> stripes(k);
  for (Rows& s : stripes) s.reserve(rows.size() / k + 1);
  for (size_t i = 0; i < rows.size(); ++i) {
    Append(&stripes[RemixHash(HashAt(rows, i)) % static_cast<size_t>(k)],
           rows, i);
  }
  return stripes;
}

/// The wire format of the boxed layout (EngineConfig::serialize_shuffles):
/// encodes entry i of a scatter source exactly as a real shuffle would
/// ship it and decodes it into `into`, returning the bytes shipped. With
/// `injector`, entry i of task `task` may be corrupted in flight; the
/// decoder must survive the damaged buffer (hardened in
/// runtime/serialize.cc), and the simulated checksum then flags the
/// payload so the task is relaunched.
StatusOr<int64_t> ShipEncoded(const HashedVec& rows, size_t i, HashedVec* into,
                              const FaultInjector* injector, int stage,
                              int task, int attempt) {
  std::string wire = Serialize(rows[i].row);
  const auto row_idx = static_cast<int64_t>(i);
  if (injector != nullptr &&
      injector->CorruptShuffleRow(stage, task, attempt, row_idx)) {
    wire[injector->CorruptByteIndex(stage, task, row_idx, wire.size())] ^=
        0x2d;
    StatusOr<Value> decoded = Deserialize(wire);
    (void)decoded;
    return Status::TaskLost(StrCat("shuffle payload of stage #", stage,
                                   " task ", task, " corrupted in flight (row ",
                                   row_idx, ")"));
  }
  DIABLO_ASSIGN_OR_RETURN(Value decoded, Deserialize(wire));
  into->push_back(HashedRow{rows[i].hash, std::move(decoded)});
  return static_cast<int64_t>(wire.size());
}

/// Applies chain[i..] to `v` element-by-element, delivering every
/// surviving output row to `sink` (a Status(const Value&) callable).
/// Rows produced at boundary b are recorded in `tally` (may be null;
/// boundaries past its size — i.e. outputs the caller does materialize
/// — are ignored).
template <typename Sink>
Status ApplyChain(const FusedChain& chain, size_t i, const Value& v,
                  ChainTally* tally, Sink&& sink) {
  if (i == chain.size()) return sink(v);
  const FusedOp& op = chain[i];
  switch (op.kind) {
    case FusedOp::Kind::kMap: {
      DIABLO_ASSIGN_OR_RETURN(Value out, op.map(v));
      if (tally != nullptr) tally->Record(i, out);
      return ApplyChain(chain, i + 1, out, tally, sink);
    }
    case FusedOp::Kind::kFilter: {
      DIABLO_ASSIGN_OR_RETURN(bool keep, op.pred(v));
      if (!keep) return Status::OK();
      if (tally != nullptr) tally->Record(i, v);
      return ApplyChain(chain, i + 1, v, tally, sink);
    }
    case FusedOp::Kind::kFlatMap: {
      auto next = [&](const Value& out) -> Status {
        if (tally != nullptr) tally->Record(i, out);
        return ApplyChain(chain, i + 1, out, tally, sink);
      };
      return op.flat(v, next);
    }
  }
  return Status::RuntimeError("unknown fused operator kind");
}

// The per-partition bodies of the narrow-stage wave (Engine::RunNarrow).
// Each runs the chain over one source partition with a template sink
// inside ApplyChain; only the per-partition call goes through
// std::function.

/// The row body: collects the chain's surviving rows of one partition
/// into `out`. Force runs it, and so does a lost partition's replay.
Status ApplyChainRows(const FusedChain& chain, const ValueVec& rows,
                      ChainTally* tally, ValueVec* out) {
  out->clear();
  out->reserve(rows.size());
  for (const Value& row : rows) {
    DIABLO_RETURN_IF_ERROR(ApplyChain(chain, 0, row, tally,
                                      [&](const Value& v) -> Status {
                                        out->push_back(v);
                                        return Status::OK();
                                      }));
  }
  return Status::OK();
}

/// The fold body of Reduce: folds the chain's rows of one partition into
/// `partial` in arrival order. With `native_op`, TypedFold folds them
/// natively while they allow it (bit-identical to EvalBinOp, including
/// the int->double promotion mid-fold); from the first row of any other
/// kind the typed partial turns boxed and `fn` folds the rest. The
/// columnar counters go to the task's `record`.
Status FoldPartition(const FusedChain& chain, const ValueVec& rows,
                     const Engine::ReduceFn& fn, const BinOp* native_op,
                     ChainTally* tally, StageStats* record,
                     std::optional<Value>* partial) {
  partial->reset();
  std::optional<TypedFold> typed;
  if (native_op != nullptr) typed.emplace(*native_op);
  int64_t boxed_rows = 0;
  for (const Value& row : rows) {
    DIABLO_RETURN_IF_ERROR(ApplyChain(
        chain, 0, row, tally, [&](const Value& v) -> Status {
          if (typed.has_value()) {
            if (typed->Add(v)) return Status::OK();
            if (!typed->empty()) *partial = typed->Result();
            typed.reset();
          }
          ++boxed_rows;
          if (!partial->has_value()) {
            *partial = v;
            return Status::OK();
          }
          DIABLO_ASSIGN_OR_RETURN(**partial, fn(**partial, v));
          return Status::OK();
        }));
  }
  if (typed.has_value()) {
    if (typed->rows() > 0) record->columnar_batches += 1;
    if (!typed->empty()) *partial = typed->Result();
  } else if (native_op != nullptr) {
    record->columnar_rows_fallback += boxed_rows;
  }
  return Status::OK();
}

/// The stage label of a fused chain: its operator labels joined with '+'.
std::string ChainLabel(const FusedChain& chain) {
  std::string label;
  for (const FusedOp& op : chain) {
    if (!label.empty()) label += '+';
    label += op.label;
  }
  return label;
}

/// Recorded label of a wide stage that inlined a pending chain, e.g.
/// "flatMap+filter+reduceByKey".
std::string FusedStageLabel(const FusedChain& chain,
                            const std::string& label) {
  return chain.empty() ? label : ChainLabel(chain) + "+" + label;
}

/// Lineage recompute of a Force stage: the row body over each lost
/// partition's source rows.
LineageNode::RecomputeFn ChainReplay(const Dataset& src) {
  return [src](const std::vector<int>& lost, std::vector<ValueVec>* rebuilt,
               int64_t* work) -> Status {
    for (int p : lost) {
      const ValueVec& rows = src.partition(p);
      *work += static_cast<int64_t>(rows.size());
      DIABLO_RETURN_IF_ERROR(ApplyChainRows(src.chain(), rows, nullptr,
                                            &rebuilt->emplace_back()));
    }
    return Status::OK();
  };
}

StatusOr<const Value*> RowKey(const Value& row) {
  if (!row.is_tuple() || row.tuple().size() != 2) {
    return Status::RuntimeError(
        StrCat("keyed operator applied to non-pair row: ", row.ToString()));
  }
  return &row.tuple()[0];
}

/// reduceByKey's fold step: a key's first value seeds its payload, every
/// later one folds in with `fn`, in arrival order.
Status FoldInto(KeyedAccumulator<Value>* acc, size_t hash, const Value& key,
                const Value& value, const Engine::ReduceFn& fn) {
  auto ref = acc->FindOrCreate(hash, key);
  if (ref.inserted) {
    ref.payload = value;
    return Status::OK();
  }
  DIABLO_ASSIGN_OR_RETURN(ref.payload, fn(ref.payload, value));
  return Status::OK();
}

/// Sorts `acc` by key and emits one output row per entry.
template <typename Payload, typename MakeRow>
auto SortedRows(KeyedAccumulator<Payload>* acc, MakeRow make_row) {
  acc->SortByKey();
  std::vector<decltype(make_row(acc->entries().front()))> out;
  out.reserve(acc->size());
  for (auto& e : acc->entries()) out.push_back(make_row(e));
  return out;
}

/// reduceByKey's map-side combine output: the folded pairs in key order,
/// each carrying its memoized hash into the shuffle.
HashedVec CombinedRows(KeyedAccumulator<Value>* acc) {
  return SortedRows(acc, [](auto& e) {
    return HashedRow{e.hash,
                     Value::MakePair(std::move(e.key), std::move(e.payload))};
  });
}

// The per-destination finishes of the wide operators. Each turns the
// rows one finish task received, in arrival order, into its output rows
// and reports its work and keyed-table counts in the task's record. The
// forward finish wave and the lineage replay both call them, so recovery
// cannot drift from the forward path. All but JoinFinish canonicalize
// the key order with one SortByKey; a join emits in probe order.

/// A finish task's report: its reduce-side work units, the rows it
/// inserted into keyed tables and the distinct keys they produced.
void RecordFinish(StageStats* record, size_t work, size_t rows, size_t keys) {
  record->reduce_work = {static_cast<int64_t>(work)};
  record->hash_agg_rows = static_cast<int64_t>(rows);
  record->hash_agg_keys = static_cast<int64_t>(keys);
}

/// groupByKey: (key, Bag-of-values), each bag in arrival order.
StatusOr<ValueVec> GroupFinish(WideTask<HashedVec>& t) {
  const HashedVec& part = *t.left;
  KeyedAccumulator<ValueVec> groups(t.hi - t.lo);
  for (size_t i = t.lo; i < t.hi; ++i) {
    const TupleView kv = part[i].row.tuple();
    groups.FindOrCreate(part[i].hash, kv[0]).payload.push_back(kv[1]);
  }
  t.record->accumulator_bytes_peak =
      static_cast<int64_t>(groups.MemoryBytes());
  ValueVec out = SortedRows(&groups, [](auto& e) {
    return Value::MakePair(std::move(e.key),
                           Value::MakeBag(std::move(e.payload)));
  });
  RecordFinish(t.record, t.hi - t.lo, t.hi - t.lo, out.size());
  return out;
}

/// reduceByKey on the boxed layout: folds the rows in arrival order —
/// natively through the typed accumulator while they allow it
/// (`native_op` non-null), then with `fn` from the first row that
/// deviates (the typed state spills into the boxed table first).
StatusOr<ValueVec> FoldFinish(WideTask<HashedVec>& t,
                              const Engine::ReduceFn& fn,
                              const BinOp* native_op) {
  const HashedVec& part = *t.left;
  KeyedAccumulator<Value> acc(part.size());
  std::optional<TypedReduceAccumulator> typed;
  size_t i = 0;
  if (native_op != nullptr) {
    typed.emplace(*native_op, part.size());
    // The hash crossed the shuffle with the row: trust it.
    while (i < part.size() && typed->AddHashed(part[i].hash, part[i].row)) {
      ++i;
    }
  }
  const bool all_typed = typed.has_value() && i == part.size();
  if (typed.has_value() && !all_typed) {
    typed->SpillTo(&acc);
    t.record->columnar_rows_fallback += static_cast<int64_t>(part.size() - i);
  }
  for (; i < part.size(); ++i) {
    const TupleView kv = part[i].row.tuple();
    DIABLO_RETURN_IF_ERROR(FoldInto(&acc, part[i].hash, kv[0], kv[1], fn));
  }
  t.record->accumulator_bytes_peak = static_cast<int64_t>(
      acc.MemoryBytes() + (typed.has_value() ? typed->MemoryBytes() : 0));
  ValueVec out;
  if (all_typed) {
    typed->EmitSortedRows(&out);
    if (typed->rows() > 0) t.record->columnar_batches += 1;
  } else {
    out = SortedRows(&acc, [](auto& e) {
      return Value::MakePair(std::move(e.key), std::move(e.payload));
    });
  }
  RecordFinish(t.record, part.size(), part.size(), out.size());
  return out;
}

/// reduceByKey on the typed layout: the shuffled arrays fold straight
/// into a typed accumulator — hash, raw key bits and payload, no boxed
/// row until the final sorted emit.
StatusOr<ValueVec> TypedFoldFinish(WideTask<TypedRows>& t, BinOp op) {
  const TypedRows& rows = *t.left;
  TypedReduceAccumulator typed(op, rows.size());
  typed.BeginTyped(rows.key_mode, rows.payload_mode, rows.dict.get());
  const bool ints = rows.payload_mode == TypedPayloadMode::kInt64;
  for (size_t i = 0; i < rows.size(); ++i) {
    typed.AddHashedBits(rows.hashes[i], rows.key_bits[i],
                        ints ? rows.pay_ints[i] : 0,
                        ints ? 0.0 : rows.pay_doubles[i]);
  }
  t.record->accumulator_bytes_peak = static_cast<int64_t>(typed.MemoryBytes());
  ValueVec out;
  typed.EmitSortedRows(&out);
  if (typed.rows() > 0) t.record->columnar_batches += 1;
  RecordFinish(t.record, rows.size(), rows.size(), out.size());
  return out;
}

/// join: builds from the left rows, probes with the right rows, each in
/// arrival order; rows (k, (a, b)) come out in probe order.
StatusOr<ValueVec> JoinFinish(WideTask<HashedVec>& t) {
  const HashedVec& left = *t.left;
  const HashedVec& right = *t.right;
  KeyedAccumulator<ValueVec> build(left.size());
  for (const HashedRow& hr : left) {
    const TupleView kv = hr.row.tuple();
    build.FindOrCreate(hr.hash, kv[0]).payload.push_back(kv[1]);
  }
  ValueVec out;
  for (const HashedRow& hr : right) {
    const TupleView kv = hr.row.tuple();
    const ValueVec* lvs = build.Find(hr.hash, kv[0]);
    if (lvs == nullptr) continue;
    for (const Value& lv : *lvs) {
      out.push_back(Value::MakePair(kv[0], Value::MakePair(lv, kv[1])));
    }
  }
  // One unit per build row, probe row and emitted match.
  RecordFinish(t.record, left.size() + right.size() + out.size(), left.size(),
               build.size());
  return out;
}

/// coGroup: (key, (Bag-of-left, Bag-of-right)) for every key on either
/// side, each bag in arrival order.
StatusOr<ValueVec> CoGroupFinish(WideTask<HashedVec>& t) {
  const HashedVec& left = *t.left;
  const HashedVec& right = *t.right;
  KeyedAccumulator<std::pair<ValueVec, ValueVec>> groups(left.size() +
                                                          right.size());
  for (const HashedRow& hr : left) {
    const TupleView kv = hr.row.tuple();
    groups.FindOrCreate(hr.hash, kv[0]).payload.first.push_back(kv[1]);
  }
  for (const HashedRow& hr : right) {
    const TupleView kv = hr.row.tuple();
    groups.FindOrCreate(hr.hash, kv[0]).payload.second.push_back(kv[1]);
  }
  ValueVec out = SortedRows(&groups, [](auto& e) {
    return Value::MakePair(
        std::move(e.key),
        Value::MakePair(Value::MakeBag(std::move(e.payload.first)),
                        Value::MakeBag(std::move(e.payload.second))));
  });
  RecordFinish(t.record, left.size() + right.size(),
               left.size() + right.size(), out.size());
  return out;
}

/// Lineage replay of one shuffled input, restricted to the lost
/// destinations `lost`: one pass over the source partitions of `side`
/// with its pending chain applied. Each produced row is hashed once and
/// kept, with its hash, only when its destination was lost. Sources are
/// scanned in order, so every rebuilt destination holds exactly the rows
/// the forward scatter delivered, in arrival order. With `combine`
/// (reduceByKey's fold), each source partition's kept rows are first
/// folded by key and emitted in key order, exactly like the forward
/// map-side combine, so every per-key fold order is unchanged.
StatusOr<std::vector<HashedVec>> ReplayShuffle(
    const Dataset& side, const std::vector<int>& lost, int out_parts,
    int64_t* work, const Engine::ReduceFn* combine = nullptr) {
  std::vector<int> slot_of(out_parts, -1);
  for (size_t i = 0; i < lost.size(); ++i) {
    slot_of[lost[i]] = static_cast<int>(i);
  }
  std::vector<HashedVec> out(lost.size());
  for (int s = 0; s < side.num_partitions(); ++s) {
    std::vector<HashedVec> kept(combine == nullptr ? 0 : lost.size());
    std::vector<HashedVec>& into = combine == nullptr ? out : kept;
    for (const Value& row : side.partition(s)) {
      *work += 1;
      DIABLO_RETURN_IF_ERROR(ApplyChain(
          side.chain(), 0, row, nullptr, [&](const Value& v) -> Status {
            DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(v));
            const size_t h = key->Hash();
            const int slot = slot_of[HashDestination(h, out_parts)];
            if (slot >= 0) into[slot].push_back(HashedRow{h, v});
            return Status::OK();
          }));
    }
    for (size_t i = 0; i < kept.size(); ++i) {
      KeyedAccumulator<Value> acc(kept[i].size());
      for (const HashedRow& hr : kept[i]) {
        const TupleView kv = hr.row.tuple();
        DIABLO_RETURN_IF_ERROR(
            FoldInto(&acc, hr.hash, kv[0], kv[1], *combine));
      }
      for (HashedRow& hr : CombinedRows(&acc)) out[i].push_back(std::move(hr));
    }
  }
  return out;
}

}  // namespace

Engine::Engine(EngineConfig config) : config_(std::move(config)) {
  if (config_.num_partitions < 1) config_.num_partitions = 1;
  if (config_.host_threads < 1) config_.host_threads = 1;
  if (config_.faults.max_task_attempts < 1) config_.faults.max_task_attempts = 1;
  if (config_.remote != nullptr) {
    // The coordinator forks workers mid-wave; the driver must hold no
    // extra threads at fork time (a forked child inherits only the
    // calling thread, so a pool worker's locks would be orphaned).
    config_.host_threads = 1;
    // Real kills recover through lineage, so the recompute closures must
    // survive even with every simulated fault class disarmed.
    config_.faults.retain_lineage = true;
  }
  injector_ = FaultInjector(config_.faults);
  if (config_.tracing) trace_ = std::make_unique<TraceRecorder>();
}

Engine::~Engine() = default;

Dataset Engine::Parallelize(ValueVec rows) const {
  return Parallelize(std::move(rows), config_.num_partitions);
}

Dataset Engine::Parallelize(ValueVec rows, int num_partitions) const {
  if (num_partitions < 1) num_partitions = 1;
  std::vector<ValueVec> parts(num_partitions);
  const size_t n = rows.size();
  size_t begin = 0;
  for (int p = 0; p < num_partitions; ++p) {
    size_t end = n * (p + 1) / num_partitions;
    parts[p].reserve(end - begin);
    for (size_t i = begin; i < end; ++i) parts[p].push_back(std::move(rows[i]));
    begin = end;
  }
  return Dataset(std::move(parts));
}

Dataset Engine::Range(int64_t lo, int64_t hi) const {
  ValueVec rows;
  if (hi >= lo) {
    // Counting by unsigned offset neither overflows the span nor runs
    // past INT64_MAX.
    const uint64_t span = static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
    rows.reserve(span + 1);
    for (uint64_t k = 0; k <= span; ++k) {
      rows.push_back(
          Value::MakeInt(static_cast<int64_t>(static_cast<uint64_t>(lo) + k)));
    }
  }
  return Parallelize(std::move(rows));
}

StatusOr<std::vector<StageStats>> Engine::RunTaskWave(
    const std::string& label, int stage, const std::vector<int64_t>& task_work,
    const TaskFn& fn, StageStats* stats, WaveSlots slots) {
  const int n = static_cast<int>(task_work.size());
  std::vector<StageStats> records(n);
  if (n == 0) return records;
  TraceRecorder* tr = trace();
  ScopedSpan wave_span(tr, SpanKind::kWave, label);
  wave_span.SetStageId(stage);
  TaskAttempts attempts(injector_, config_.cluster.seconds_per_work_unit,
                        config_.events, label, stage, task_work);
  // One attempt of task p, starting from an empty record. On the remote
  // backend this runs on the worker, so the reset happens there too.
  auto run = [&](int p, int attempt) -> Status {
    records[p] = StageStats();
    return fn(p, attempt, &records[p]);
  };
  Status st;
  if (config_.remote != nullptr) {
    slots.records = &records;
    st = RunTaskWaveRemote(label, stage, task_work, run, &attempts, stats,
                           slots, tr, wave_span.id());
  } else {
    // One task's attempt loop. Each attempt it runs is timed into a task
    // span under the wave; tracing never perturbs execution, since the
    // coordinates the fault injector sees are identical either way.
    auto task = [&](int p) -> Status {
      for (;;) {
        DIABLO_ASSIGN_OR_RETURN(const int attempt, attempts.Begin(p));
        const double t0 = tr != nullptr ? tr->NowUs() : 0.0;
        Status result = run(p, attempt);
        if (tr != nullptr) {
          tr->AddTask(wave_span.id(), t0, tr->NowUs() - t0,
                      CurrentTraceWorker(), p, attempt, stage, task_work[p]);
        }
        if (result.ok()) {
          attempts.Succeed(p, attempt);
          return result;
        }
        // Only simulated faults are retryable; a genuine callback error
        // aborts the stage unchanged.
        if (result.code() != StatusCode::kTaskLost) return result;
        attempts.Fail(p, attempt, "task_lost");
      }
    };
    if (std::min(config_.host_threads, n) <= 1) {
      // Serial order stops at the first error, which IS the
      // lowest-indexed failing task.
      for (int p = 0; p < n && st.ok(); ++p) st = task(p);
    } else {
      if (pool_ == nullptr) {
        pool_ = std::make_unique<WorkerPool>(config_.host_threads);
      }
      stats->pool_tasks += n;
      st = pool_->Run(n, task);
    }
  }
  attempts.AddTo(stats);
  DIABLO_RETURN_IF_ERROR(st);
  return records;
}

Status Engine::RunTaskWaveRemote(const std::string& label, int stage,
                                 const std::vector<int64_t>& task_work,
                                 const std::function<Status(int, int)>& run,
                                 TaskAttempts* attempts, StageStats* stats,
                                 const WaveSlots& slots, TraceRecorder* tr,
                                 int64_t wave_span_id) {
  RemoteTaskWave wave;
  wave.label = label;
  wave.stage = stage;
  wave.task_work = task_work;
  wave.attempts = attempts;
  wave.run = run;
  wave.encode = [&slots](int p) { return EncodeTaskSlots(slots, p); };
  wave.install = [&slots](int p, const std::string& bytes) {
    return DecodeTaskSlots(slots, p, bytes);
  };
  wave.on_attempt = [&, this, tr, wave_span_id, stage](
                        int worker, double clock_offset_us, int p,
                        int attempt, double start_us, double dur_us,
                        int64_t peak_rss_bytes) {
    // Worker-side memory watermark: maxed into the stage record (which
    // FinishStage raises to the driver's own peak), and published per
    // worker in the registry.
    stats->peak_rss_bytes = std::max(stats->peak_rss_bytes, peak_rss_bytes);
    if (config_.registry != nullptr) {
      config_.registry->GaugeMax("diablo_worker_peak_rss_bytes",
                                 static_cast<double>(peak_rss_bytes),
                                 {{"worker", StrCat(worker)}});
      config_.registry->HistogramObserve("diablo_task_duration_us", dur_us,
                                         {{"process", StrCat(worker + 1)}});
    }
    if (tr == nullptr) return;
    // Clock alignment: the start time is an absolute steady-clock
    // reading from the worker process; the Hello handshake measured
    // worker_now - driver_now, so subtracting the offset (then the
    // trace epoch) rebases it onto the driver timeline. Offsets below
    // the threshold collapse to zero — see kClockAlignThresholdUs.
    const double applied = std::abs(clock_offset_us) < kClockAlignThresholdUs
                               ? 0.0
                               : clock_offset_us;
    TraceSpan span;
    span.kind = SpanKind::kTask;
    span.name = "task";
    span.start_us = start_us - applied - tr->EpochUs();
    span.dur_us = dur_us;
    // Remote worker w is trace worker w+1 (0 = driver) and Chrome
    // process lane w+1 (0 = coordinator).
    span.worker = worker + 1;
    span.partition = p;
    span.attempt = attempt;
    span.stage_id = stage;
    span.rows = task_work[static_cast<size_t>(p)];
    span.process = worker + 1;
    span.clock_offset_us = clock_offset_us;
    tr->AddRemoteSpan(wave_span_id, std::move(span));
  };
  wave.on_worker_lost = [&, this, tr, stage](int worker,
                                             const std::vector<int>& pending,
                                             const std::string& reason) {
    if (tr != nullptr) {
      ScopedSpan span(tr, SpanKind::kRecovery,
                      StrCat("worker ", worker, " lost (", reason, "): ",
                             pending.size(), " task",
                             pending.size() == 1 ? "" : "s", " re-admitted"));
      span.SetStageId(stage);
    }
    if (config_.events != nullptr) {
      for (int p : pending) {
        Event e;
        e.name = "task_retry";
        e.stage_id = stage;
        e.ints.emplace_back("partition", p);
        e.ints.emplace_back("worker", worker);
        e.strs.emplace_back("reason", "worker_lost");
        config_.events->Emit(std::move(e));
      }
    }
    // Register the dead worker's partitions for lineage recovery at the
    // next stage boundary (consumed by RecoverInput).
    for (int p : pending) pending_lost_partitions_.push_back(p);
  };

  RemoteWaveStats remote;
  Status st = config_.remote->RunWave(wave, &remote);
  stats->dist_tasks += remote.tasks;
  stats->dist_retries += remote.real_retries;
  stats->dist_workers_lost += remote.workers_lost;
  return st;
}

StatusOr<Dataset> Engine::RecoverInput(const Dataset& in, int stage,
                                       int input_index, StageStats* stats) {
  if (!config_.faults.enabled()) return in;
  std::vector<int> lost =
      injector_.LostPartitions(stage, input_index, in.num_partitions());
  if (input_index == 0 && !pending_lost_partitions_.empty()) {
    // Partitions owed by workers that really died in an earlier wave:
    // rebuild them from lineage here. The rebuilt rows are bit-identical
    // to what the survivors recomputed, so this only exercises the
    // recovery path — it can never change output.
    for (int p : pending_lost_partitions_) {
      if (p >= 0 && p < in.num_partitions()) lost.push_back(p);
    }
    pending_lost_partitions_.clear();
  }
  if (lost.empty()) return in;
  std::sort(lost.begin(), lost.end());
  lost.erase(std::unique(lost.begin(), lost.end()), lost.end());
  const std::shared_ptr<const LineageNode>& lineage = in.lineage();
  // Lineage recomputation attributed as its own span nested under the
  // consuming stage.
  ScopedSpan recovery_span(
      trace(), SpanKind::kRecovery,
      StrCat("recover input ", input_index, " (", lost.size(),
             " lost partition", lost.size() == 1 ? "" : "s", ")"));
  recovery_span.SetStageId(stage);
  if (config_.events != nullptr) {
    Event e;
    e.name = "lineage_recovery";
    e.stage_id = stage;
    e.ints.emplace_back("input_index", input_index);
    e.ints.emplace_back("partitions", static_cast<int64_t>(lost.size()));
    config_.events->Emit(std::move(e));
  }
  std::vector<ValueVec> parts = in.partitions();
  if (lineage == nullptr || lineage->durable) {
    // Durable data (source or checkpoint): re-read from stable
    // storage. The rows survive; only the re-read scan is charged.
    for (int p : lost) {
      stats->recomputed_partitions += 1;
      stats->recovery_seconds += static_cast<double>(parts[p].size()) *
                                 config_.cluster.seconds_per_work_unit;
    }
  } else if (lineage->recompute) {
    // Multi-partition recovery: one call rebuilds every lost partition
    // (a shuffle's replay in one scan over the ancestor data).
    std::vector<ValueVec> rebuilt;
    int64_t work = 0;
    DIABLO_RETURN_IF_ERROR(lineage->recompute(lost, &rebuilt, &work));
    if (rebuilt.size() != lost.size()) {
      return Status::RuntimeError(
          StrCat("stage #", stage, ": lineage recompute of dataset '",
                 lineage->label, "' rebuilt ", rebuilt.size(),
                 " partitions, expected ", lost.size()));
    }
    for (size_t i = 0; i < lost.size(); ++i) {
      stats->recomputed_partitions += 1;
      parts[lost[i]] = std::move(rebuilt[i]);
    }
    stats->recovery_seconds +=
        static_cast<double>(work) * config_.cluster.seconds_per_work_unit;
  } else {
    return Status::RuntimeError(
        StrCat("stage #", stage, ": input partition ", lost.front(),
               " lost and no lineage recompute is available (dataset '",
               lineage->label, "')"));
  }
  // Keep any pending fused chain: the stage's input is the source rows
  // plus the chain, and only the source rows were lost.
  return Dataset(std::move(parts), lineage, in.chain_ptr());
}

void Engine::FinishStage(StageStats stats) {
  stats.cost_decisions += cost_decisions_pending_;
  cost_decisions_pending_ = 0;
  // Per-stage memory high-water mark: the driver's own peak RSS, raised
  // by any worker-process peak the stage's waves received in telemetry
  // frames. RSS is monotone, so the per-stage series shows which stage
  // first pushed the process high-water mark.
  stats.peak_rss_bytes = std::max(MetricsRegistry::ProcessPeakRssBytes(),
                                  stats.peak_rss_bytes);
  // The innermost open stage span belongs to the operator finishing this
  // stage (each operator opens exactly one before it runs).
  TraceRecorder* t = trace();
  AddStage(std::move(stats), t != nullptr ? t->OpenSpan(SpanKind::kStage) : -1);
}

void Engine::RecordPlannerStage(StageStats stats) {
  // Zero-duration stage span: the work happened inside other spans (or
  // is purely simulated); this records the stage's existence, label,
  // and provenance in the trace.
  ScopedSpan span(trace(), SpanKind::kStage, stats.label);
  AddStage(std::move(stats), span.id());
}

void Engine::AddStage(StageStats stats, int64_t span) {
  if (provenance_.line > 0) {
    stats.src_file = provenance_.file;
    stats.src_line = provenance_.line;
    stats.src_column = provenance_.column;
  }
  const auto index = static_cast<int>(metrics_.stages().size());
  if (MetricsRegistry* r = config_.registry) {
    const MetricLabels stage_labels = {{"stage", StrCat(index)},
                                       {"label", stats.label}};
    r->CounterAdd("diablo_stages_total", 1);
    r->CounterAdd("diablo_task_attempts_total", stats.attempts);
    r->CounterAdd("diablo_shuffle_bytes_total", stats.shuffle_bytes);
    // Per-stage watermarks, where the record holds one (a planner stage
    // measures none).
    if (stats.peak_rss_bytes > 0) {
      r->GaugeSet("diablo_stage_peak_rss_bytes",
                  static_cast<double>(stats.peak_rss_bytes), stage_labels);
    }
    if (stats.accumulator_bytes_peak > 0) {
      r->GaugeSet("diablo_stage_accumulator_bytes_peak",
                  static_cast<double>(stats.accumulator_bytes_peak),
                  stage_labels);
    }
    r->HistogramObserve("diablo_stage_shuffle_bytes",
                        static_cast<double>(stats.shuffle_bytes));
  }
  if (TraceRecorder* t = trace(); t != nullptr && span >= 0) {
    t->SetName(span, stats.label);
    t->SetMetricsIndex(span, index);
    t->SetShuffleBytes(span, stats.shuffle_bytes);
    if (!stats.partition_rows.empty()) {
      int64_t rows = 0;
      for (int64_t c : stats.partition_rows) rows += c;
      t->SetRows(span, rows);
    }
    t->SetLocation(span, stats.src_file, stats.src_line, stats.src_column);
  }
  metrics_.AddStage(std::move(stats));
}

std::shared_ptr<const LineageNode> Engine::MakeLineage(
    std::string kind, std::string label,
    std::vector<std::shared_ptr<const LineageNode>> parents,
    LineageNode::RecomputeFn recompute, int depth_increment) const {
  auto node = std::make_shared<LineageNode>();
  node->kind = std::move(kind);
  node->label = std::move(label);
  int depth = 0;
  for (const auto& parent : parents) {
    if (parent != nullptr) depth = std::max(depth, parent->depth);
  }
  node->depth = depth + depth_increment;
  node->parents = std::move(parents);
  // Without fault injection no recovery can ever be requested, so the
  // closure (and the ancestor datasets it captures) is dropped here —
  // fault-free runs retain no extra memory.
  if (config_.faults.enabled()) node->recompute = std::move(recompute);
  return node;
}

StatusOr<Dataset> Engine::Narrow(const Dataset& in, FusedOp op) {
  return in.WithOp(std::move(op));
}

StatusOr<Dataset> Engine::Map(const Dataset& in, const MapFn& fn,
                              const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kMap;
  op.label = label;
  op.map = fn;
  return Narrow(in, std::move(op));
}

StatusOr<Dataset> Engine::Filter(const Dataset& in, const PredFn& pred,
                                 const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kFilter;
  op.label = label;
  op.pred = pred;
  return Narrow(in, std::move(op));
}

StatusOr<Dataset> Engine::FlatMap(const Dataset& in, const FlatMapFn& fn,
                                  const std::string& label) {
  FusedOp op;
  op.kind = FusedOp::Kind::kFlatMap;
  op.label = label;
  op.flat = [fn](const Value& row, RowSink sink) -> Status {
    DIABLO_ASSIGN_OR_RETURN(ValueVec out, fn(row));
    for (const Value& v : out) DIABLO_RETURN_IF_ERROR(sink(v));
    return Status::OK();
  };
  return Narrow(in, std::move(op));
}

StatusOr<Dataset> Engine::RunNarrow(
    const Dataset& in, const std::string& label, bool keeps_rows,
    WaveSlots slots, const NarrowBody& body,
    const std::function<void(StageStats*)>& add_counters) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, label);
  const int stage = NextStageId();
  stage_span.SetStageId(stage);
  StageStats stats;
  stats.label = label;
  DIABLO_ASSIGN_OR_RETURN(Dataset src, RecoverInput(in, stage, 0, &stats));
  const FusedChain& chain = src.chain();
  // Kept output rows are materialized, so only the chain's interior
  // boundaries count as saved.
  const size_t boundaries =
      keeps_rows && !chain.empty() ? chain.size() - 1 : chain.size();
  DIABLO_ASSIGN_OR_RETURN(
      std::vector<StageStats> records,
      RunTaskWave(
          label, stage, RowCounts(src),
          [&](int p, int, StageStats* record) -> Status {
            // Restartable: a failed attempt re-runs the whole fused chain.
            ChainTally tally(boundaries);
            DIABLO_RETURN_IF_ERROR(body(p, src.partition(p), &tally, record));
            tally.AddTo(record);
            return Status::OK();
          },
          &stats, slots));
  stats.map_work = RowCounts(src);
  stats.fused_ops = static_cast<int64_t>(chain.size());
  FoldTaskRecords(records, &stats);
  if (add_counters) add_counters(&stats);
  FinishStage(std::move(stats));
  return src;
}

StatusOr<Dataset> Engine::Force(const Dataset& in) {
  if (in.materialized()) return in;
  const FusedChain& chain = in.chain();
  const std::string label = ChainLabel(chain);
  std::vector<ValueVec> out(in.num_partitions());
  WaveSlots slots;
  slots.rows = &out;
  DIABLO_ASSIGN_OR_RETURN(
      Dataset src,
      RunNarrow(
          in, label, /*keeps_rows=*/true, slots,
          [&](int p, const ValueVec& rows, ChainTally* tally, StageStats*) {
            return ApplyChainRows(chain, rows, tally, &out[p]);
          },
          [&](StageStats* stats) { stats->partition_rows = RowCounts(out); }));
  auto lineage = MakeLineage("fused", label, {src.lineage()}, ChainReplay(src),
                             ChainDepth(chain));
  return Dataset(std::move(out), std::move(lineage));
}

/// A wide operator, as RunWide instantiates the shared wave for it.
struct Engine::WideSpec {
  const char* kind = "";  ///< lineage node kind
  std::string label{};
  /// How the finish wave splits a hot destination (join and coGroup
  /// never salt).
  enum class Salt { kNone, kChunks, kStripes } salt = Salt::kNone;
  /// The finish over boxed rows: the forward finish on the boxed layout
  /// and the lineage replay's.
  std::function<StatusOr<ValueVec>(WideTask<HashedVec>&)> finish{};
  /// Folds two rows of one key from different chunks, in chunk order
  /// (groupByKey). Null when sub-tasks hold disjoint key sets.
  std::function<Value(const Value&, const Value&)> merge_same_key{};
  /// reduceByKey's fold: set, a map-side combine wave runs before the
  /// scatter, and the lineage replay folds each source partition alike.
  std::optional<ReduceFn> combine{};
  /// reduceByKey with a built-in op, and the plan-time schema of its
  /// (key, value) rows; `typed` when the typed accumulator may fold
  /// them (an op and a value type it covers).
  std::optional<BinOp> native_op{};
  ColumnSchema schema{};
  bool typed = false;
};

/// One wide operator's stage in flight: its spec, the id of its finish
/// wave, its recovered inputs, and the one StageStats every wave and
/// input recovery of the stage accumulates into.
struct Engine::WideRun {
  const WideSpec& spec;
  int finish_stage = 0;
  std::vector<Dataset> inputs;
  StageStats stats;
};

StatusOr<Dataset> Engine::RunWide(const WideSpec& spec,
                                  const std::vector<Dataset>& inputs) {
  ScopedSpan stage_span(trace(), SpanKind::kStage, spec.label);
  // Consecutive stage ids — reduceByKey's combine wave, one scatter per
  // input side, the finish wave — are the fault injector's coordinates.
  const int first = NextStageId();
  stage_span.SetStageId(first);
  const int scatter_stage = first + (spec.combine.has_value() ? 1 : 0);
  WideRun run{spec, scatter_stage + static_cast<int>(inputs.size()), {}, {}};
  next_stage_id_ = run.finish_stage + 1;
  // Loss directives address every input at the operator's first stage:
  // input s is side s (a join's left side is 0, its right side 1).
  for (size_t s = 0; s < inputs.size(); ++s) {
    DIABLO_ASSIGN_OR_RETURN(
        Dataset side,
        RecoverInput(inputs[s], first, static_cast<int>(s), &run.stats));
    run.inputs.push_back(std::move(side));
  }
  if (spec.combine.has_value()) {
    std::vector<HashedVec> boxed;
    std::vector<TypedRows> typed;
    DIABLO_ASSIGN_OR_RETURN(const bool use_typed,
                            CombineWave(run, first, &boxed, &typed));
    // The combined pairs carry their memoized key hashes straight into
    // the scatter: no key is hashed twice anywhere in this operator.
    auto shuffle_and_finish = [&](auto& combined,
                                  const auto& finish) -> StatusOr<Dataset> {
      using Rows = typename std::decay_t<decltype(combined)>::value_type;
      std::vector<std::vector<Rows>> sides;
      DIABLO_RETURN_IF_ERROR(ScatterWave<Rows>(
          run, scatter_stage, RowCounts(combined),
          [&](int p, Rows*, StageStats*) -> StatusOr<const Rows*> {
            return &combined[p];
          },
          &sides));
      return FinishWave<Rows>(run, sides, finish);
    };
    if (!use_typed) return shuffle_and_finish(boxed, spec.finish);
    const BinOp op = *spec.native_op;
    return shuffle_and_finish(typed, [op](WideTask<TypedRows>& t) {
      return TypedFoldFinish(t, op);
    });
  }
  std::vector<std::vector<HashedVec>> sides;
  for (size_t s = 0; s < run.inputs.size(); ++s) {
    const Dataset& side = run.inputs[s];
    const FusedChain& chain = side.chain();
    // The boxed producer: applies the side's pending fused chain element
    // by element and hashes the produced keys once, a whole key column at
    // a time (HashColumn, bit-identical to per-row Value::Hash; string
    // keys hash once per distinct dictionary entry). A column of tuple or
    // mixed-kind keys is kBoxed and counts as fallback rows.
    auto produce = [&](int p, HashedVec* rows,
                       StageStats* record) -> StatusOr<const HashedVec*> {
      ChainTally tally(chain.size());
      Column keycol;
      rows->reserve(side.partition(p).size());
      for (const Value& row : side.partition(p)) {
        DIABLO_RETURN_IF_ERROR(ApplyChain(
            chain, 0, row, &tally, [&](const Value& v) -> Status {
              DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(v));
              keycol.Append(*key);
              rows->push_back(HashedRow{0, v});
              return Status::OK();
            }));
      }
      if (!rows->empty()) {
        std::vector<size_t> hashes;
        HashColumn(keycol, &hashes);
        for (size_t i = 0; i < rows->size(); ++i) (*rows)[i].hash = hashes[i];
        if (keycol.tag() == ColumnTag::kBoxed) {
          record->columnar_rows_fallback += static_cast<int64_t>(rows->size());
        } else {
          record->columnar_batches += 1;
        }
      }
      tally.AddTo(record);
      return rows;
    };
    const std::vector<int64_t> counts = RowCounts(side);
    DIABLO_RETURN_IF_ERROR(ScatterWave<HashedVec>(
        run, scatter_stage + static_cast<int>(s), counts, produce, &sides));
    run.stats.map_work.insert(run.stats.map_work.end(), counts.begin(),
                              counts.end());
    run.stats.fused_ops += static_cast<int64_t>(chain.size());
  }
  return FinishWave<HashedVec>(run, sides, spec.finish);
}

StatusOr<bool> Engine::CombineWave(WideRun& run, int stage,
                                   std::vector<HashedVec>* boxed,
                                   std::vector<TypedRows>* typed_out) {
  const WideSpec& spec = run.spec;
  const Dataset& src = run.inputs[0];
  const FusedChain& chain = src.chain();
  const ReduceFn& fn = *spec.combine;
  const BinOp* native_op = spec.native_op ? &*spec.native_op : nullptr;
  // The typed layout, chosen only when no boxed rows are needed between
  // combine and finish — no wire format, no fault injection (row-level
  // corruption coordinates name boxed rows), no remote backend.
  const bool typed_layout = spec.typed && !config_.serialize_shuffles &&
                            !config_.faults.enabled() &&
                            config_.remote == nullptr;
  // Combine-side skew mitigation (DESIGN.md §17): an oversized SOURCE
  // partition is combined as contiguous row chunks by independent
  // virtual tasks, whose partials of a key re-merge in the finish. That
  // is exact under ANY grouping only for a native +, *, min or max over
  // int64 (bit-associative with wrapping arithmetic): the op and the
  // plan-time schema are checked here, the int64 payloads on the rows
  // after the wave, in either layout.
  SkewConfig combine_cfg = config_.skew;
  combine_cfg.mitigate =
      combine_cfg.mitigate && native_op != nullptr &&
      spec.schema.value == ColumnTag::kInt64 &&
      (*native_op == BinOp::kAdd || *native_op == BinOp::kMul ||
       *native_op == BinOp::kMin || *native_op == BinOp::kMax);
  const SaltPlan salt = PlanSalt(RowCounts(src), combine_cfg);
  EmitSkewSalting(config_.events, stage, "combine", salt);
  const int num_combine = static_cast<int>(salt.task_of.size());
  std::vector<int64_t> combine_work(num_combine);
  for (int t = 0; t < num_combine; ++t) {
    const int p = salt.task_of[t];
    const auto [lo, hi] = ChunkRange(src.partition(p).size(),
                                     salt.index_of[t], salt.fanout[p]);
    combine_work[t] = static_cast<int64_t>(hi - lo);
  }
  std::vector<HashedVec>& combined = *boxed;
  std::vector<TypedRows>& typed_combined = *typed_out;
  combined.assign(num_combine, HashedVec());
  typed_combined.assign(num_combine, TypedRows());
  // Folds rows [lo, hi) of source partition p into output slot `slot`
  // exactly as the unsplit combine folds a whole partition, reporting in
  // the slot's empty `record`: wave tasks call it with their chunk, and
  // the dirty-chunk fallback below re-runs it over a full partition.
  auto combine_range = [&](int slot, int p, size_t lo, size_t hi,
                           StageStats* record) -> Status {
    combined[slot].clear();
    typed_combined[slot] = TypedRows();
    ChainTally tally(chain.size());
    KeyedAccumulator<Value> acc(hi - lo);
    std::optional<TypedReduceAccumulator> typed;
    if (spec.typed) typed.emplace(*native_op, hi - lo);
    int64_t boxed_rows = 0;
    auto combine = [&](const Value& row) -> Status {
      if (typed.has_value()) {
        if (typed->Add(row)) return Status::OK();
        // Deviating row: replay the typed state into the boxed
        // accumulator (insertion order, hashes and payloads
        // preserved) and continue boxed from this row.
        typed->SpillTo(&acc);
        typed.reset();
      }
      if (spec.typed) ++boxed_rows;
      DIABLO_ASSIGN_OR_RETURN(const Value* key, RowKey(row));
      return FoldInto(&acc, key->Hash(), *key, row.tuple()[1], fn);
    };
    const ValueVec& part = src.partition(p);
    if (typed.has_value() && chain.empty()) {
      // No pending fused chain: fold the rows into the typed
      // accumulator directly, skipping the per-row chain dispatch.
      // A deviating row drops to the boxed `combine` from there.
      size_t i = lo;
      for (; i < hi; ++i) {
        if (!typed->Add(part[i])) break;
      }
      for (; i < hi; ++i) DIABLO_RETURN_IF_ERROR(combine(part[i]));
    } else {
      for (size_t i = lo; i < hi; ++i) {
        DIABLO_RETURN_IF_ERROR(
            ApplyChain(chain, 0, part[i], &tally, combine));
      }
    }
    // Task-level accumulator watermark (the boxed accumulator always
    // reserves its capacity, so both live footprints are summed).
    record->accumulator_bytes_peak = static_cast<int64_t>(
        acc.MemoryBytes() + (typed.has_value() ? typed->MemoryBytes() : 0));
    if (typed.has_value()) {
      typed->EmitSortedTyped(&typed_combined[slot]);
      if (!typed_layout) {
        typed_combined[slot].EmitHashed(&combined[slot]);
        typed_combined[slot] = TypedRows();
      }
      if (typed->rows() > 0) record->columnar_batches += 1;
    } else {
      combined[slot] = CombinedRows(&acc);
    }
    record->columnar_rows_fallback += boxed_rows;
    tally.AddTo(record);
    return Status::OK();
  };
  WaveSlots slots;
  slots.hashed = &combined;
  DIABLO_ASSIGN_OR_RETURN(
      std::vector<StageStats> records,
      RunTaskWave(
          spec.label + ".combine", stage, combine_work,
          [&](int t, int, StageStats* record) -> Status {
            const int p = salt.task_of[t];
            const auto [lo, hi] = ChunkRange(src.partition(p).size(),
                                             salt.index_of[t], salt.fanout[p]);
            return combine_range(t, p, lo, hi, record);
          },
          &run.stats, slots));
  // The third part of the proof: a chunk whose output holds a non-int64
  // payload folded one (int64 + double is double, and so on). Its whole
  // source partition then re-runs unsplit on the driver (rare by
  // construction: the plan-time schema already claimed int64), zeroing
  // the sibling chunk slots and records so they contribute nothing
  // downstream.
  auto int64_payloads = [&](int t) {
    if (typed_combined[t].size() > 0 &&
        typed_combined[t].payload_mode != TypedPayloadMode::kInt64) {
      return false;
    }
    return std::all_of(
        combined[t].begin(), combined[t].end(),
        [](const HashedRow& hr) { return hr.row.tuple()[1].is_int(); });
  };
  for (int p = 0; p < src.num_partitions(); ++p) {
    const int f = salt.fanout[p];
    const int base = salt.first[p];
    bool clean = true;
    for (int t = base; f > 1 && t < base + f; ++t) {
      clean = clean && int64_payloads(t);
    }
    if (clean) continue;
    for (int t = base; t < base + f; ++t) {
      combined[t].clear();
      typed_combined[t] = TypedRows();
      records[t] = StageStats();
    }
    DIABLO_RETURN_IF_ERROR(combine_range(base, p, 0, src.partition(p).size(),
                                         &records[base]));
  }
  StageStats& stats = run.stats;
  stats.map_work = std::move(combine_work);
  stats.fused_ops += static_cast<int64_t>(chain.size());
  stats.salt_fanout += salt.extra;
  FoldTaskRecords(records, &stats);
  for (int64_t c : RowCounts(src)) stats.hash_agg_rows += c;
  // The typed layout needs every non-empty combine output typed with one
  // key/payload shape; a spilled or mixed task drops the whole operator
  // to boxed rows (the typed ones re-box).
  bool use_typed = typed_layout;
  const TypedRows* shape = nullptr;
  for (int t = 0; t < num_combine && use_typed; ++t) {
    const TypedRows& tc = typed_combined[t];
    if (!combined[t].empty()) use_typed = false;
    if (tc.size() == 0) continue;
    if (shape == nullptr) shape = &tc;
    if (tc.key_mode != shape->key_mode ||
        tc.payload_mode != shape->payload_mode) {
      use_typed = false;
    }
  }
  for (int t = 0; t < num_combine; ++t) {
    if (!use_typed) {
      typed_combined[t].EmitHashed(&combined[t]);
      typed_combined[t] = TypedRows();
    }
    stats.hash_agg_keys += static_cast<int64_t>(combined[t].size() +
                                                typed_combined[t].size());
  }
  return use_typed;
}

template <typename Rows>
Status Engine::ScatterWave(
    WideRun& run, int stage, const std::vector<int64_t>& task_work,
    const std::function<StatusOr<const Rows*>(int, Rows*, StageStats*)>&
        produce,
    std::vector<std::vector<Rows>>* sides) {
  const int out_parts = config_.num_partitions;
  const int n = static_cast<int>(task_work.size());
  std::vector<std::vector<Rows>> buckets(n);  // buckets[src][dst]
  // The wire format is a property of the boxed layout; the typed one is
  // only chosen when no wire format is asked for.
  const bool serialize =
      std::is_same_v<Rows, HashedVec> && config_.serialize_shuffles;
  const FaultInjector* inject =
      config_.faults.enabled() ? &injector_ : nullptr;
  WaveSlots slots;
  if constexpr (std::is_same_v<Rows, HashedVec>) slots.buckets = &buckets;
  DIABLO_ASSIGN_OR_RETURN(
      std::vector<StageStats> records,
      RunTaskWave(
          "shuffle", stage, task_work,
          [&](int p, int attempt, StageStats* record) -> Status {
            // Restartable: wipe any partial output of a failed attempt (and
            // re-run the producer, fused chain included). Reserve from the
            // source row count: keys spread roughly uniformly.
            buckets[p].assign(out_parts, Rows());
            for (Rows& bucket : buckets[p]) {
              bucket.reserve(static_cast<size_t>(task_work[p]) /
                                 static_cast<size_t>(out_parts) +
                             1);
            }
            // The bytes this task ships, in all and per destination.
            int64_t moved = 0;
            std::vector<int64_t>& dest_bytes = record->partition_bytes;
            dest_bytes.assign(out_parts, 0);
            Rows scratch;
            DIABLO_ASSIGN_OR_RETURN(const Rows* src,
                                    produce(p, &scratch, record));
            // Single-pass scatter: each entry carries its key hash (computed
            // once by the producer) into its destination buffer, so the
            // finish never rehashes. Entry i is scattered row i, so
            // corruption coordinates do not depend on how it was produced.
            for (size_t i = 0; i < src->size(); ++i) {
              const int dst = HashDestination(HashAt(*src, i), out_parts);
              // Rows that stay on the same simulated node are still
              // accounted: with many workers almost every row crosses the
              // network (Spark's shuffle write charges them all too).
              int64_t bytes = 0;
              if constexpr (std::is_same_v<Rows, HashedVec>) {
                if (serialize) {
                  DIABLO_ASSIGN_OR_RETURN(
                      bytes, ShipEncoded(*src, i, &buckets[p][dst], inject,
                                         stage, p, attempt));
                }
              }
              if (!serialize) {
                bytes = EntryBytesAt(*src, i);
                Append(&buckets[p][dst], *src, i);
              }
              moved += bytes;
              dest_bytes[dst] += bytes;
            }
            record->shuffle_bytes = moved;
            return Status::OK();
          },
          &run.stats, slots));
  // One entry per destination, also when no source task shipped any.
  std::vector<int64_t>& dest_bytes = run.stats.partition_bytes;
  dest_bytes.resize(std::max(dest_bytes.size(), static_cast<size_t>(out_parts)),
                    0);
  FoldTaskRecords(records, &run.stats);
  // Concatenate in source order — the arrival order every finish folds
  // in, identical on both layouts.
  std::vector<Rows>& out = sides->emplace_back();
  out.reserve(out_parts);
  for (int dst = 0; dst < out_parts; ++dst) {
    std::vector<Rows> parts;
    parts.reserve(n);
    for (int src = 0; src < n; ++src) {
      parts.push_back(std::move(buckets[src][dst]));
    }
    out.push_back(Concat(&parts));
  }
  return Status::OK();
}

template <typename Rows>
StatusOr<Dataset> Engine::FinishWave(
    WideRun& run, const std::vector<std::vector<Rows>>& sides,
    const std::function<StatusOr<ValueVec>(WideTask<Rows>&)>& finish) {
  const WideSpec& spec = run.spec;
  const std::vector<Rows>& dest = sides[0];
  // Reduce-side skew mitigation (DESIGN.md §17): a destination far above
  // the mean row count runs as several virtual tasks — contiguous row
  // CHUNKS (groupByKey) or hash STRIPES (reduceByKey) — and one k-way
  // un-salt merge reassembles its output byte-identically.
  SkewConfig salt_cfg = config_.skew;
  salt_cfg.mitigate =
      salt_cfg.mitigate && spec.salt != WideSpec::Salt::kNone;
  const SaltPlan salt = PlanSalt(RowCounts(dest), salt_cfg);
  EmitSkewSalting(config_.events, run.finish_stage, "reduce", salt);
  const int num_virtual = static_cast<int>(salt.task_of.size());
  std::vector<Rows> stripes(num_virtual);
  std::vector<WideTask<Rows>> tasks(num_virtual);
  std::vector<int64_t> task_work(num_virtual);
  for (int t = 0; t < num_virtual; ++t) {
    const int p = salt.task_of[t];
    const int f = salt.fanout[p];
    WideTask<Rows>& task = tasks[t];
    task.left = &dest[p];
    if (sides.size() > 1) task.right = &sides[1][p];
    if (f > 1 && spec.salt == WideSpec::Salt::kStripes) {
      if (salt.index_of[t] == 0) {
        std::vector<Rows> split = Stripe(dest[p], f);
        std::move(split.begin(), split.end(), stripes.begin() + t);
      }
      task.left = &stripes[t];
      task.hi = stripes[t].size();
    } else {
      std::tie(task.lo, task.hi) =
          ChunkRange(dest[p].size(), salt.index_of[t], f);
    }
    task_work[t] = static_cast<int64_t>(task.hi - task.lo);
  }
  std::vector<ValueVec> sub_out(num_virtual);
  WaveSlots slots;
  slots.rows = &sub_out;
  DIABLO_ASSIGN_OR_RETURN(
      std::vector<StageStats> records,
      RunTaskWave(
          spec.label, run.finish_stage, task_work,
          [&](int t, int, StageStats* record) -> Status {
            WideTask<Rows> task = tasks[t];
            task.record = record;
            DIABLO_ASSIGN_OR_RETURN(sub_out[t], finish(task));
            return Status::OK();
          },
          &run.stats, slots));
  // Driver-side un-salt: split destinations merge, the rest move.
  std::vector<ValueVec> out(dest.size());
  int64_t salted_keys = 0;
  std::vector<int64_t> unsalt_work;
  for (size_t p = 0; p < out.size(); ++p) {
    const auto base = sub_out.begin() + salt.first[p];
    if (salt.fanout[p] == 1) {
      out[p] = std::move(*base);
      continue;
    }
    out[p] = UnsaltMerge(
        std::vector<ValueVec>(std::make_move_iterator(base),
                              std::make_move_iterator(base + salt.fanout[p])),
        spec.merge_same_key, &salted_keys);
    unsalt_work.push_back(static_cast<int64_t>(out[p].size()));
  }
  // The one stage record, filled from what the finishes reported.
  StageStats& stats = run.stats;
  stats.label = spec.label;
  for (auto in = run.inputs.rbegin(); in != run.inputs.rend(); ++in) {
    stats.label = FusedStageLabel(in->chain(), stats.label);
  }
  stats.wide = true;
  FoldTaskRecords(records, &stats);
  // A key folded in several chunks was counted once per chunk.
  stats.hash_agg_keys -= salted_keys;
  stats.partition_rows = RowCounts(out);
  stats.salted_keys = salted_keys;
  stats.salt_fanout += salt.extra;
  FinishStage(std::move(stats));
  if (salt.active) {
    StageStats unsalt;
    unsalt.label = spec.label + ".unsalt";
    unsalt.map_work = std::move(unsalt_work);
    RecordPlannerStage(std::move(unsalt));
  }
  // The one lineage closure: replays each side's shuffle for the lost
  // destinations and runs the boxed finish over them.
  const int out_parts = config_.num_partitions;
  std::vector<std::shared_ptr<const LineageNode>> parents;
  int chain_depth = 0;
  for (const Dataset& in : run.inputs) {
    parents.push_back(in.lineage());
    chain_depth = std::max(chain_depth, ChainDepth(in.chain()));
  }
  auto lineage = MakeLineage(
      spec.kind, spec.label, std::move(parents),
      [inputs = run.inputs, replay = spec.finish, combine = spec.combine,
       out_parts](const std::vector<int>& lost, std::vector<ValueVec>* rebuilt,
                  int64_t* work) -> Status {
        std::vector<std::vector<HashedVec>> rows;
        for (const Dataset& side : inputs) {
          DIABLO_ASSIGN_OR_RETURN(
              std::vector<HashedVec> side_rows,
              ReplayShuffle(side, lost, out_parts, work,
                            combine.has_value() ? &*combine : nullptr));
          rows.push_back(std::move(side_rows));
        }
        for (size_t i = 0; i < lost.size(); ++i) {
          StageStats record;
          WideTask<HashedVec> task;
          task.left = &rows[0][i];
          if (rows.size() > 1) task.right = &rows[1][i];
          task.hi = task.left->size();
          task.record = &record;
          DIABLO_ASSIGN_OR_RETURN(ValueVec part, replay(task));
          rebuilt->push_back(std::move(part));
        }
        return Status::OK();
      },
      1 + chain_depth);
  return Dataset(std::move(out), std::move(lineage));
}

StatusOr<Dataset> Engine::GroupByKey(const Dataset& in,
                                     const std::string& label) {
  return RunWide({.kind = "groupByKey",
                  .label = label,
                  .salt = WideSpec::Salt::kChunks,
                  .finish = GroupFinish,
                  .merge_same_key = ConcatBags},
                 {in});
}

StatusOr<Dataset> Engine::ReduceByKey(const Dataset& in, const ReduceFn& fn,
                                      const std::string& label) {
  return RunWide({.kind = "reduceByKey",
                  .label = label,
                  .salt = WideSpec::Salt::kStripes,
                  .finish = [fn](WideTask<HashedVec>& t) {
                    return FoldFinish(t, fn, nullptr);
                  },
                  .combine = fn},
                 {in});
}

StatusOr<Dataset> Engine::ReduceByKey(const Dataset& in, BinOp op,
                                      const std::string& label,
                                      const ColumnSchema& schema) {
  const ReduceFn fn = [op](const Value& a, const Value& b) {
    return EvalBinOp(op, a, b);
  };
  // Typed aggregation: a built-in op whose key/value kinds columnarize
  // folds with native arithmetic in the same arrival order —
  // bit-identical results, no per-row Value allocation. The plan-time
  // schema only ever skips the attempt (a definitely non-numeric value);
  // kUnknown means detect from the data, and a deviating row mid-stream
  // spills to the boxed accumulator.
  const bool typed = TypedReduceAccumulator::SupportsOp(op) &&
                     schema.value != ColumnTag::kString &&
                     schema.value != ColumnTag::kBool;
  return RunWide({.kind = "reduceByKey",
                  .label = label,
                  .salt = WideSpec::Salt::kStripes,
                  .finish = [fn, op, typed](WideTask<HashedVec>& t) {
                    return FoldFinish(t, fn, typed ? &op : nullptr);
                  },
                  .combine = fn,
                  .native_op = op,
                  .schema = schema,
                  .typed = typed},
                 {in});
}

StatusOr<Dataset> Engine::Join(const Dataset& left, const Dataset& right,
                               const std::string& label) {
  return RunWide({.kind = "join", .label = label, .finish = JoinFinish},
                 {left, right});
}

StatusOr<Dataset> Engine::CoGroup(const Dataset& left, const Dataset& right,
                                  const std::string& label) {
  return RunWide({.kind = "coGroup", .label = label, .finish = CoGroupFinish},
                 {left, right});
}

StatusOr<Dataset> Engine::Checkpoint(const Dataset& in,
                                     const std::string& label) {
  const FusedChain& chain = in.chain();
  // The "write": each task serializes its partition to (simulated)
  // stable storage, running any pending fused chain straight into the
  // writer. Charged as a narrow stage whose shuffle_bytes are the bytes
  // written.
  std::vector<ValueVec> out(in.num_partitions());
  WaveSlots slots;
  slots.rows = &out;
  DIABLO_ASSIGN_OR_RETURN(
      Dataset src,
      RunNarrow(
          in, label, /*keeps_rows=*/true, slots,
          [&](int p, const ValueVec& rows, ChainTally* tally,
              StageStats* record) -> Status {
            // Without a chain the source rows themselves are written.
            const ValueVec* kept = &rows;
            if (!chain.empty()) {
              DIABLO_RETURN_IF_ERROR(
                  ApplyChainRows(chain, rows, tally, &out[p]));
              kept = &out[p];
            }
            for (const Value& v : *kept) {
              record->shuffle_bytes += v.SerializedBytes();
            }
            return Status::OK();
          },
          [&](StageStats* stats) {
            stats->partition_rows =
                chain.empty() ? stats->map_work : RowCounts(out);
          }));
  // Durable node: recoveries stop here, and lineage depth resets to 0.
  auto node = std::make_shared<LineageNode>();
  node->kind = "checkpoint";
  node->label = label;
  node->durable = true;
  node->parents = {src.lineage()};
  if (chain.empty()) return Dataset(src, std::move(node));
  return Dataset(std::move(out), std::move(node));
}

StatusOr<std::optional<Value>> Engine::Reduce(const Dataset& in,
                                              const ReduceFn& fn,
                                              const std::string& label) {
  return Fold(in, fn, nullptr, label);
}

StatusOr<std::optional<Value>> Engine::Reduce(const Dataset& in, BinOp op,
                                              const std::string& label) {
  const ReduceFn fn = [op](const Value& a, const Value& b) {
    return EvalBinOp(op, a, b);
  };
  return Fold(in, fn, TypedFold::SupportsOp(op) ? &op : nullptr, label);
}

StatusOr<std::optional<Value>> Engine::Fold(const Dataset& in,
                                            const ReduceFn& fn,
                                            const BinOp* native_op,
                                            const std::string& label) {
  // Per-partition partials (any pending fused chain folding straight
  // into them), then the partials in partition order on the driver.
  std::vector<std::optional<Value>> partials(in.num_partitions());
  WaveSlots slots;
  slots.partials = &partials;
  DIABLO_RETURN_IF_ERROR(
      RunNarrow(in, label, /*keeps_rows=*/false, slots,
                [&](int p, const ValueVec& rows, ChainTally* tally,
                    StageStats* record) {
                  return FoldPartition(in.chain(), rows, fn, native_op, tally,
                                       record, &partials[p]);
                })
          .status());
  std::optional<Value> acc;
  for (auto& part : partials) {
    if (!part.has_value()) continue;
    if (!acc.has_value()) {
      acc = std::move(part);
    } else {
      DIABLO_ASSIGN_OR_RETURN(*acc, fn(*acc, *part));
    }
  }
  return acc;
}

StatusOr<ValueVec> Engine::Collect(const Dataset& in) {
  DIABLO_ASSIGN_OR_RETURN(Dataset src, Force(in));
  ValueVec out;
  out.reserve(static_cast<size_t>(src.TotalRows()));
  for (const auto& part : src.partitions()) {
    for (const Value& v : part) out.push_back(v);
  }
  return out;
}

StatusOr<Value> Engine::First(const Dataset& in) {
  DIABLO_ASSIGN_OR_RETURN(Dataset src, Force(in));
  for (const auto& part : src.partitions()) {
    if (!part.empty()) return part[0];
  }
  return Status::RuntimeError("First() on an empty dataset");
}

}  // namespace diablo::runtime
