#ifndef FUSION_RELATIONAL_CONDITION_INTERNAL_H_
#define FUSION_RELATIONAL_CONDITION_INTERNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "relational/condition.h"

/// The condition tree's node layout, shared by the two evaluator translation
/// units: the row-at-a-time interpreter in condition.cc and the batch
/// (bitmap) evaluator in columnar.cc. Everything here is an implementation
/// detail of Condition — include this header only from those files (and
/// never from another public header).

namespace fusion {

struct Condition::Node {
  enum class Kind { kTrue, kFalse, kCompare, kBetween, kIn, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  // kCompare / kBetween / kIn:
  std::string attribute;
  CompareOp op = CompareOp::kEq;
  Value constant;          // kCompare
  Value lo, hi;            // kBetween
  std::vector<Value> set;  // kIn
  // kAnd / kOr (two children) and kNot (one child):
  std::shared_ptr<const Node> left;
  std::shared_ptr<const Node> right;
};

/// Whether a three-way comparison result `c` (<0, 0, >0) satisfies `op` —
/// the one definition both evaluators use.
inline bool OpHolds(int c, CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return c == 0;
    case CompareOp::kNe:
      return c != 0;
    case CompareOp::kLt:
      return c < 0;
    case CompareOp::kLe:
      return c <= 0;
    case CompareOp::kGt:
      return c > 0;
    case CompareOp::kGe:
      return c >= 0;
  }
  return false;
}

}  // namespace fusion

#endif  // FUSION_RELATIONAL_CONDITION_INTERNAL_H_
