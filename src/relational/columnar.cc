#include "relational/columnar.h"

#include <algorithm>
#include <atomic>

#include "relational/condition_internal.h"

namespace fusion {

// ---------------------------------------------------------------------------
// SelectionBitmap
// ---------------------------------------------------------------------------

SelectionBitmap::SelectionBitmap(size_t size, bool value)
    : size_(size), words_((size + 63) / 64, value ? ~uint64_t{0} : 0) {
  if (value) {
    SetAll();  // re-run to mask the tail word
  }
}

void SelectionBitmap::SetAll() {
  std::fill(words_.begin(), words_.end(), ~uint64_t{0});
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() = (uint64_t{1} << tail) - 1;
  }
}

void SelectionBitmap::ClearAll() {
  std::fill(words_.begin(), words_.end(), uint64_t{0});
}

void SelectionBitmap::AndWith(const SelectionBitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
}

void SelectionBitmap::OrWith(const SelectionBitmap& other) {
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
}

void SelectionBitmap::FlipAll() {
  for (uint64_t& w : words_) w = ~w;
  const size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (uint64_t{1} << tail) - 1;
  }
}

size_t SelectionBitmap::CountSet() const {
  size_t n = 0;
  for (const uint64_t w : words_) {
    n += static_cast<size_t>(__builtin_popcountll(w));
  }
  return n;
}

// ---------------------------------------------------------------------------
// Column / ColumnarTable
// ---------------------------------------------------------------------------

size_t Column::ApproxBytes() const {
  size_t bytes = valid.words().capacity() * sizeof(uint64_t) +
                 ints.capacity() * sizeof(int64_t) +
                 dbls.capacity() * sizeof(double) +
                 codes.capacity() * sizeof(uint32_t);
  for (const std::string& s : dict) bytes += sizeof(std::string) + s.capacity();
  return bytes;
}

Value ColumnView::GetValue(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type()) {
    case ValueType::kInt64:
      return Value(column_->ints[row]);
    case ValueType::kDouble:
      return Value(column_->dbls[row]);
    case ValueType::kString:
      return Value(column_->dict[column_->codes[row]]);
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

Result<ColumnarTable> ColumnarTable::FromRows(const Schema& schema,
                                              const std::vector<Tuple>& rows) {
  ColumnarTable out;
  out.schema_ = schema;
  out.num_rows_ = rows.size();
  out.columns_.resize(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    Column& col = out.columns_[c];
    col.type = schema.column(c).type;
    col.valid = SelectionBitmap(rows.size(), false);
    switch (col.type) {
      case ValueType::kInt64:
        col.ints.assign(rows.size(), 0);
        break;
      case ValueType::kDouble:
        col.dbls.assign(rows.size(), 0.0);
        break;
      case ValueType::kString:
        col.codes.assign(rows.size(), 0);
        break;
      case ValueType::kNull:
        return Status::InvalidArgument("column '" + schema.column(c).name +
                                       "' has null type");
    }
  }
  // First pass: scatter typed payloads (strings collect raw for dictionary
  // encoding below).
  std::vector<std::vector<const std::string*>> raw_strings(
      schema.num_columns());
  for (size_t r = 0; r < rows.size(); ++r) {
    const Tuple& t = rows[r];
    for (size_t c = 0; c < out.columns_.size(); ++c) {
      const Value& v = t[c];
      if (v.is_null()) continue;
      Column& col = out.columns_[c];
      if (v.type() != col.type) {
        return Status::InvalidArgument(
            "row value type " + std::string(ValueTypeName(v.type())) +
            " does not match declared column type for '" +
            schema.column(c).name + "'");
      }
      col.valid.Set(r);
      switch (col.type) {
        case ValueType::kInt64:
          col.ints[r] = v.int64();
          break;
        case ValueType::kDouble:
          col.dbls[r] = v.dbl();
          break;
        case ValueType::kString:
          if (raw_strings[c].empty()) raw_strings[c].reserve(rows.size());
          raw_strings[c].push_back(&v.str());
          break;
        case ValueType::kNull:
          break;
      }
    }
  }
  // Dictionary-encode string columns: the dict is the sorted-unique value
  // pool, so code order equals value order.
  for (size_t c = 0; c < out.columns_.size(); ++c) {
    Column& col = out.columns_[c];
    col.has_nulls = col.valid.CountSet() != rows.size();
    if (col.type != ValueType::kString) continue;
    std::vector<std::string> dict;
    dict.reserve(raw_strings[c].size());
    for (const std::string* s : raw_strings[c]) dict.push_back(*s);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    dict.shrink_to_fit();
    size_t next = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      if (!col.valid.Test(r)) continue;
      const std::string& s = *raw_strings[c][next++];
      const auto it = std::lower_bound(dict.begin(), dict.end(), s);
      col.codes[r] = static_cast<uint32_t>(it - dict.begin());
    }
    col.dict = std::move(dict);
  }
  return out;
}

size_t ColumnarTable::ApproxBytes() const {
  size_t bytes = sizeof(ColumnarTable);
  for (const Column& c : columns_) bytes += c.ApproxBytes();
  return bytes;
}

// ---------------------------------------------------------------------------
// Batch condition evaluation
// ---------------------------------------------------------------------------

namespace {

std::atomic<uint64_t> g_batch_evals{0};
std::atomic<uint64_t> g_rows_evaluated{0};

/// Three-way comparison matching Value::Compare for same-width scalars:
/// NaN compares "equal" to everything exactly as the Value operators do
/// (both < and > false), so the batch and row paths agree bit-for-bit even
/// on pathological doubles.
template <typename T>
inline int Cmp3(T a, T b) {
  if (a < b) return -1;
  if (a > b) return 1;
  return 0;
}

/// Fills `out` from a per-row predicate, 64 rows per word.
template <typename Pred>
void FillPredicate(size_t rows, SelectionBitmap* out, Pred pred) {
  std::vector<uint64_t>& words = out->words();
  for (size_t w = 0; w < words.size(); ++w) {
    const size_t base = w << 6;
    const size_t n = std::min<size_t>(64, rows - base);
    uint64_t bits = 0;
    for (size_t j = 0; j < n; ++j) {
      bits |= static_cast<uint64_t>(pred(base + j)) << j;
    }
    words[w] = bits;
  }
}

/// Sets `out` to `verdict` on every valid (non-NULL) row — the compiled form
/// of an atom whose outcome is row-independent (e.g. a cross-type compare
/// that resolves purely by type rank).
void FillConstant(const ColumnView& col, bool verdict, SelectionBitmap* out) {
  if (!verdict) {
    out->ClearAll();
    return;
  }
  if (!col.has_nulls()) {
    out->SetAll();
    return;
  }
  out->words() = col.column().valid.words();
}

/// Rank used for the cross-type portion of Value's total order (matches
/// TypeRank in value.cc: enum order null < int64 < double < string).
inline int TypeRankOf(ValueType t) { return static_cast<int>(t); }

inline bool IsNumericType(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}

/// Compiles `column op constant` into `out`. Exactly mirrors the scalar
/// CompareSatisfied(v, op, constant): same-type columns compare natively
/// (strings via dictionary-code ranges), int64/double cross-compares go
/// through double exactly like Value::Compare, and any other type mix
/// resolves to a constant verdict by type rank.
void EvalCompare(const ColumnView& col, CompareOp op, const Value& constant,
                 SelectionBitmap* out) {
  const size_t rows = col.size();
  const ValueType ct = col.type();
  const ValueType kt = constant.type();
  if (ct == ValueType::kInt64 && kt == ValueType::kInt64) {
    const int64_t k = constant.int64();
    const int64_t* v = col.ints();
    FillPredicate(rows, out,
                  [&](size_t r) { return OpHolds(Cmp3(v[r], k), op); });
  } else if (ct == ValueType::kDouble && kt == ValueType::kDouble) {
    const double k = constant.dbl();
    const double* v = col.dbls();
    FillPredicate(rows, out,
                  [&](size_t r) { return OpHolds(Cmp3(v[r], k), op); });
  } else if (ct == ValueType::kInt64 && kt == ValueType::kDouble) {
    const double k = constant.dbl();
    const int64_t* v = col.ints();
    FillPredicate(rows, out, [&](size_t r) {
      return OpHolds(Cmp3(static_cast<double>(v[r]), k), op);
    });
  } else if (ct == ValueType::kDouble && kt == ValueType::kInt64) {
    const double k = static_cast<double>(constant.int64());
    const double* v = col.dbls();
    FillPredicate(rows, out,
                  [&](size_t r) { return OpHolds(Cmp3(v[r], k), op); });
  } else if (ct == ValueType::kString && kt == ValueType::kString) {
    // Binary-search the constant in the sorted dictionary: rows with
    // code < pos sort before the constant, code == pos (when present)
    // equal it, the rest sort after. Every CompareOp becomes one or two
    // integer comparisons on the code array.
    const std::vector<std::string>& dict = col.dict();
    const auto it =
        std::lower_bound(dict.begin(), dict.end(), constant.str());
    const bool present = it != dict.end() && *it == constant.str();
    const uint32_t pos = static_cast<uint32_t>(it - dict.begin());
    const uint32_t* v = col.codes();
    switch (op) {
      case CompareOp::kEq:
        if (!present) {
          out->ClearAll();
          return;  // no validity mask needed: nothing is set
        }
        FillPredicate(rows, out, [&](size_t r) { return v[r] == pos; });
        break;
      case CompareOp::kNe:
        if (!present) {
          FillConstant(col, true, out);
          return;  // FillConstant already applies validity
        }
        FillPredicate(rows, out, [&](size_t r) { return v[r] != pos; });
        break;
      case CompareOp::kLt:
        FillPredicate(rows, out, [&](size_t r) { return v[r] < pos; });
        break;
      case CompareOp::kLe: {
        const uint32_t bound = present ? pos + 1 : pos;
        FillPredicate(rows, out, [&](size_t r) { return v[r] < bound; });
        break;
      }
      case CompareOp::kGe:
        FillPredicate(rows, out, [&](size_t r) { return v[r] >= pos; });
        break;
      case CompareOp::kGt: {
        const uint32_t bound = present ? pos + 1 : pos;
        FillPredicate(rows, out, [&](size_t r) { return v[r] >= bound; });
        break;
      }
    }
  } else {
    // Type ranks differ and the pair is not numeric-vs-numeric (that case is
    // handled above): Value::Compare resolves by rank alone, identically for
    // every non-NULL row. A NULL constant also lands here (rank 0, below
    // every value type).
    const int c = Cmp3(TypeRankOf(ct), TypeRankOf(kt));
    FillConstant(col, OpHolds(c, op), out);
    return;  // FillConstant applies the validity mask itself
  }
  if (col.has_nulls()) out->AndWith(col.column().valid);
}

/// v >= lo && v <= hi with Value semantics, as two compiled compares.
void EvalBetween(const ColumnView& col, const Value& lo, const Value& hi,
                 SelectionBitmap* out) {
  EvalCompare(col, CompareOp::kGe, lo, out);
  SelectionBitmap upper(col.size());
  EvalCompare(col, CompareOp::kLe, hi, &upper);
  out->AndWith(upper);
}

/// v IN (set): per-row scan over the (typically small) candidate list, with
/// each equality test compiled per (column type, candidate type) pair using
/// the same Cmp3 expressions as EvalCompare — including the NaN and
/// int64/double cross-equality corners.
void EvalIn(const ColumnView& col, const std::vector<Value>& set,
            SelectionBitmap* out) {
  const size_t rows = col.size();
  const ValueType ct = col.type();
  if (ct == ValueType::kString) {
    // Matching candidates reduce to a set of dictionary codes.
    const std::vector<std::string>& dict = col.dict();
    std::vector<uint32_t> match;
    for (const Value& cand : set) {
      if (cand.type() != ValueType::kString) continue;  // cross-type: never ==
      const auto it = std::lower_bound(dict.begin(), dict.end(), cand.str());
      if (it != dict.end() && *it == cand.str()) {
        match.push_back(static_cast<uint32_t>(it - dict.begin()));
      }
    }
    std::sort(match.begin(), match.end());
    match.erase(std::unique(match.begin(), match.end()), match.end());
    if (match.empty()) {
      out->ClearAll();
      return;
    }
    const uint32_t* v = col.codes();
    if (match.size() == 1) {
      const uint32_t m = match[0];
      FillPredicate(rows, out, [&](size_t r) { return v[r] == m; });
    } else {
      FillPredicate(rows, out, [&](size_t r) {
        return std::binary_search(match.begin(), match.end(), v[r]);
      });
    }
  } else if (ct == ValueType::kInt64) {
    // Split candidates: int64s compare exactly, doubles via the cross-type
    // double promotion (matching Value::Compare).
    std::vector<int64_t> ik;
    std::vector<double> dk;
    for (const Value& cand : set) {
      if (cand.type() == ValueType::kInt64) ik.push_back(cand.int64());
      else if (cand.type() == ValueType::kDouble) dk.push_back(cand.dbl());
    }
    const int64_t* v = col.ints();
    FillPredicate(rows, out, [&](size_t r) {
      for (const int64_t k : ik) {
        if (Cmp3(v[r], k) == 0) return true;
      }
      if (!dk.empty()) {
        const double d = static_cast<double>(v[r]);
        for (const double k : dk) {
          if (Cmp3(d, k) == 0) return true;
        }
      }
      return false;
    });
  } else {  // kDouble
    std::vector<double> dk;
    for (const Value& cand : set) {
      if (cand.type() == ValueType::kDouble) dk.push_back(cand.dbl());
      else if (cand.type() == ValueType::kInt64) {
        dk.push_back(static_cast<double>(cand.int64()));
      }
    }
    const double* v = col.dbls();
    FillPredicate(rows, out, [&](size_t r) {
      for (const double k : dk) {
        if (Cmp3(v[r], k) == 0) return true;
      }
      return false;
    });
  }
  if (col.has_nulls()) out->AndWith(col.column().valid);
}

Status EvaluateNodeBatch(const Condition::Node& node,
                         const ColumnarTable& table, SelectionBitmap* out) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
      out->SetAll();
      return Status::Ok();
    case Kind::kFalse:
      out->ClearAll();
      return Status::Ok();
    case Kind::kCompare: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx,
                              table.schema().IndexOf(node.attribute));
      EvalCompare(table.column(idx), node.op, node.constant, out);
      return Status::Ok();
    }
    case Kind::kBetween: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx,
                              table.schema().IndexOf(node.attribute));
      EvalBetween(table.column(idx), node.lo, node.hi, out);
      return Status::Ok();
    }
    case Kind::kIn: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx,
                              table.schema().IndexOf(node.attribute));
      EvalIn(table.column(idx), node.set, out);
      return Status::Ok();
    }
    case Kind::kAnd: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      SelectionBitmap rhs(table.num_rows());
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.right, table, &rhs));
      out->AndWith(rhs);
      return Status::Ok();
    }
    case Kind::kOr: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      SelectionBitmap rhs(table.num_rows());
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.right, table, &rhs));
      out->OrWith(rhs);
      return Status::Ok();
    }
    case Kind::kNot: {
      FUSION_RETURN_IF_ERROR(EvaluateNodeBatch(*node.left, table, out));
      out->FlipAll();
      return Status::Ok();
    }
  }
  return Status::Internal("corrupt condition node");
}

}  // namespace

Status Condition::EvaluateBatch(const ColumnarTable& table,
                                SelectionBitmap* out) const {
  if (out->size() != table.num_rows()) {
    *out = SelectionBitmap(table.num_rows());
  }
  g_batch_evals.fetch_add(1, std::memory_order_relaxed);
  g_rows_evaluated.fetch_add(table.num_rows(), std::memory_order_relaxed);
  return EvaluateNodeBatch(*node_, table, out);
}

ColumnarEvalStats GetColumnarEvalStats() {
  ColumnarEvalStats stats;
  stats.batch_evals = g_batch_evals.load(std::memory_order_relaxed);
  stats.rows_evaluated = g_rows_evaluated.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace fusion
