#include "relational/condition.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <functional>
#include <map>
#include <optional>
#include <functional>
#include <cstdlib>

#include "common/str_util.h"
#include "relational/condition_internal.h"

namespace fusion {

const char* CompareOpSymbol(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

Condition::Condition() {
  auto node = std::make_shared<Condition::Node>();
  node->kind = Node::Kind::kTrue;
  node_ = std::move(node);
}

Condition::Condition(std::shared_ptr<const Node> node) : node_(std::move(node)) {}

Condition Condition::True() { return Condition(); }

Condition Condition::False() {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kFalse;
  return Condition(std::move(node));
}

Condition Condition::Compare(std::string attribute, CompareOp op,
                             Value constant) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kCompare;
  node->attribute = std::move(attribute);
  node->op = op;
  node->constant = std::move(constant);
  return Condition(std::move(node));
}

Condition Condition::Between(std::string attribute, Value lo, Value hi) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kBetween;
  node->attribute = std::move(attribute);
  node->lo = std::move(lo);
  node->hi = std::move(hi);
  return Condition(std::move(node));
}

Condition Condition::In(std::string attribute, std::vector<Value> constants) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kIn;
  node->attribute = std::move(attribute);
  node->set = std::move(constants);
  return Condition(std::move(node));
}

Condition Condition::And(Condition lhs, Condition rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kAnd;
  node->left = lhs.node_;
  node->right = rhs.node_;
  return Condition(std::move(node));
}

Condition Condition::Or(Condition lhs, Condition rhs) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kOr;
  node->left = lhs.node_;
  node->right = rhs.node_;
  return Condition(std::move(node));
}

Condition Condition::Not(Condition operand) {
  auto node = std::make_shared<Node>();
  node->kind = Node::Kind::kNot;
  node->left = operand.node_;
  return Condition(std::move(node));
}

namespace {

bool CompareSatisfied(const Value& lhs, CompareOp op, const Value& rhs) {
  return OpHolds(lhs.Compare(rhs), op);
}

}  // namespace

Result<bool> EvaluateNode(const Condition::Node& node, const Schema& schema,
                          const Tuple& tuple);

Result<bool> Condition::Evaluate(const Schema& schema,
                                 const Tuple& tuple) const {
  return EvaluateNode(*node_, schema, tuple);
}

Result<bool> EvaluateNode(const Condition::Node& node, const Schema& schema,
                          const Tuple& tuple) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
      return true;
    case Kind::kFalse:
      return false;
    case Kind::kCompare: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(node.attribute));
      const Value& v = tuple[idx];
      if (v.is_null()) return false;
      return CompareSatisfied(v, node.op, node.constant);
    }
    case Kind::kBetween: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(node.attribute));
      const Value& v = tuple[idx];
      if (v.is_null()) return false;
      return v >= node.lo && v <= node.hi;
    }
    case Kind::kIn: {
      FUSION_ASSIGN_OR_RETURN(const size_t idx, schema.IndexOf(node.attribute));
      const Value& v = tuple[idx];
      if (v.is_null()) return false;
      for (const Value& candidate : node.set) {
        if (v == candidate) return true;
      }
      return false;
    }
    case Kind::kAnd: {
      FUSION_ASSIGN_OR_RETURN(const bool lhs,
                              EvaluateNode(*node.left, schema, tuple));
      if (!lhs) return false;
      return EvaluateNode(*node.right, schema, tuple);
    }
    case Kind::kOr: {
      FUSION_ASSIGN_OR_RETURN(const bool lhs,
                              EvaluateNode(*node.left, schema, tuple));
      if (lhs) return true;
      return EvaluateNode(*node.right, schema, tuple);
    }
    case Kind::kNot: {
      FUSION_ASSIGN_OR_RETURN(const bool v,
                              EvaluateNode(*node.left, schema, tuple));
      return !v;
    }
  }
  return Status::Internal("corrupt condition node");
}

namespace {

Status ValidateNode(const Condition::Node& node, const Schema& schema) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return Status::Ok();
    case Kind::kCompare:
    case Kind::kBetween:
    case Kind::kIn: {
      if (!schema.HasColumn(node.attribute)) {
        return Status::NotFound("condition references unknown attribute '" +
                                node.attribute + "' in schema " +
                                schema.ToString());
      }
      return Status::Ok();
    }
    case Kind::kAnd:
    case Kind::kOr: {
      FUSION_RETURN_IF_ERROR(ValidateNode(*node.left, schema));
      return ValidateNode(*node.right, schema);
    }
    case Kind::kNot:
      return ValidateNode(*node.left, schema);
  }
  return Status::Internal("corrupt condition node");
}

void CollectAttributes(const Condition::Node& node,
                       std::vector<std::string>& out) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return;
    case Kind::kCompare:
    case Kind::kBetween:
    case Kind::kIn:
      if (std::find(out.begin(), out.end(), node.attribute) == out.end()) {
        out.push_back(node.attribute);
      }
      return;
    case Kind::kAnd:
    case Kind::kOr:
      CollectAttributes(*node.left, out);
      CollectAttributes(*node.right, out);
      return;
    case Kind::kNot:
      CollectAttributes(*node.left, out);
      return;
  }
}

std::string NodeToString(const Condition::Node& node,
                         const std::string& prefix = std::string()) {
  using Kind = Condition::Node::Kind;
  switch (node.kind) {
    case Kind::kTrue:
      return "TRUE";
    case Kind::kFalse:
      return "FALSE";
    case Kind::kCompare:
      return prefix + node.attribute + " " + CompareOpSymbol(node.op) + " " +
             node.constant.ToString();
    case Kind::kBetween:
      return prefix + node.attribute + " BETWEEN " + node.lo.ToString() +
             " AND " + node.hi.ToString();
    case Kind::kIn: {
      std::string out = prefix + node.attribute + " IN (";
      for (size_t i = 0; i < node.set.size(); ++i) {
        if (i > 0) out += ", ";
        out += node.set[i].ToString();
      }
      out += ")";
      return out;
    }
    case Kind::kAnd:
      return "(" + NodeToString(*node.left, prefix) + " AND " +
             NodeToString(*node.right, prefix) + ")";
    case Kind::kOr:
      return "(" + NodeToString(*node.left, prefix) + " OR " +
             NodeToString(*node.right, prefix) + ")";
    case Kind::kNot:
      return "NOT (" + NodeToString(*node.left, prefix) + ")";
  }
  return "?";
}

bool NodesEqual(const Condition::Node& a, const Condition::Node& b) {
  using Kind = Condition::Node::Kind;
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
      return true;
    case Kind::kCompare:
      return a.attribute == b.attribute && a.op == b.op &&
             a.constant == b.constant;
    case Kind::kBetween:
      return a.attribute == b.attribute && a.lo == b.lo && a.hi == b.hi;
    case Kind::kIn:
      return a.attribute == b.attribute && a.set == b.set;
    case Kind::kAnd:
    case Kind::kOr:
      return NodesEqual(*a.left, *b.left) && NodesEqual(*a.right, *b.right);
    case Kind::kNot:
      return NodesEqual(*a.left, *b.left);
  }
  return false;
}

}  // namespace

Status Condition::Validate(const Schema& schema) const {
  return ValidateNode(*node_, schema);
}

std::vector<std::string> Condition::ReferencedAttributes() const {
  std::vector<std::string> out;
  CollectAttributes(*node_, out);
  return out;
}

std::string Condition::ToString() const { return NodeToString(*node_); }

std::string Condition::ToStringPrefixed(
    const std::string& attribute_prefix) const {
  return NodeToString(*node_, attribute_prefix);
}

bool Condition::Equals(const Condition& other) const {
  return NodesEqual(*node_, *other.node_);
}

bool Condition::IsTrue() const { return node_->kind == Node::Kind::kTrue; }

bool Condition::IsFalse() const {
  return node_->kind == Node::Kind::kFalse;
}

// ---------------------------------------------------------------------------
// Condition parser
// ---------------------------------------------------------------------------

namespace {

/// Token stream over a condition string.
class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  /// Peeks the next token without consuming. Empty string at end of input.
  std::string Peek() {
    if (!has_peek_) {
      peek_ = LexNext();
      has_peek_ = true;
    }
    return peek_;
  }

  std::string Next() {
    std::string t = Peek();
    has_peek_ = false;
    return t;
  }

  bool AtEnd() { return Peek().empty(); }

  const Status& status() const { return status_; }

 private:
  std::string LexNext() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ >= text_.size()) return "";
    const char c = text_[pos_];
    if (c == '(' || c == ')' || c == ',') {
      ++pos_;
      return std::string(1, c);
    }
    if (c == '\'') {
      // String literal; '' escapes a quote.
      std::string out = "'";
      ++pos_;
      while (pos_ < text_.size()) {
        if (text_[pos_] == '\'') {
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '\'') {
            out += '\'';
            pos_ += 2;
            continue;
          }
          ++pos_;
          return out;  // leading quote marks it as a string literal token
        }
        out += text_[pos_++];
      }
      status_ = Status::ParseError("unterminated string literal");
      return "";
    }
    if (c == '<' || c == '>' || c == '=' || c == '!') {
      std::string out(1, c);
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '=' || (c == '<' && text_[pos_] == '>'))) {
        out += text_[pos_++];
      }
      return out;
    }
    // Identifier / number / keyword.
    std::string out;
    while (pos_ < text_.size()) {
      const char d = text_[pos_];
      if (std::isalnum(static_cast<unsigned char>(d)) || d == '_' ||
          d == '.' || d == '-' || d == '+') {
        out += d;
        ++pos_;
      } else {
        break;
      }
    }
    if (out.empty()) {
      status_ = Status::ParseError(StrFormat("unexpected character '%c'", c));
      ++pos_;
    }
    return out;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string peek_;
  bool has_peek_ = false;
  Status status_;
};

bool IsKeyword(const std::string& token, const char* kw) {
  return EqualsIgnoreCase(token, kw);
}

/// Parses a constant token into a Value. A token beginning with a single
/// quote is a string (quote stripped); otherwise it must parse as a number.
Result<Value> ParseConstantToken(const std::string& token) {
  if (token.empty()) return Status::ParseError("expected a constant");
  if (token[0] == '\'') return Value(token.substr(1));
  // Try integer then double.
  bool integral = true;
  for (size_t i = 0; i < token.size(); ++i) {
    const char c = token[i];
    if (std::isdigit(static_cast<unsigned char>(c))) continue;
    if ((c == '-' || c == '+') && i == 0) continue;
    integral = false;
    break;
  }
  if (integral && token != "-" && token != "+") {
    errno = 0;
    char* end = nullptr;
    const long long v = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() + token.size() && errno == 0) {
      return Value(static_cast<int64_t>(v));
    }
  }
  char* end = nullptr;
  const double d = std::strtod(token.c_str(), &end);
  if (end == token.c_str() + token.size() && !token.empty()) {
    return Value(d);
  }
  return Status::ParseError("cannot parse constant: " + token);
}

Result<CompareOp> ParseOpToken(const std::string& token) {
  if (token == "=") return CompareOp::kEq;
  if (token == "!=" || token == "<>") return CompareOp::kNe;
  if (token == "<") return CompareOp::kLt;
  if (token == "<=") return CompareOp::kLe;
  if (token == ">") return CompareOp::kGt;
  if (token == ">=") return CompareOp::kGe;
  return Status::ParseError("expected comparison operator, got '" + token +
                            "'");
}

Result<Condition> ParseOr(Lexer& lex);

Result<Condition> ParsePrimary(Lexer& lex) {
  std::string token = lex.Next();
  if (token.empty()) return Status::ParseError("unexpected end of condition");
  if (token == "(") {
    FUSION_ASSIGN_OR_RETURN(Condition inner, ParseOr(lex));
    if (lex.Next() != ")") return Status::ParseError("expected ')'");
    return inner;
  }
  if (IsKeyword(token, "NOT")) {
    FUSION_ASSIGN_OR_RETURN(Condition inner, ParsePrimary(lex));
    return Condition::Not(std::move(inner));
  }
  if (IsKeyword(token, "TRUE")) return Condition::True();
  if (IsKeyword(token, "FALSE")) return Condition::False();
  // `token` is an attribute name.
  const std::string attr = token;
  std::string next = lex.Next();
  if (IsKeyword(next, "BETWEEN")) {
    FUSION_ASSIGN_OR_RETURN(Value lo, ParseConstantToken(lex.Next()));
    if (!IsKeyword(lex.Next(), "AND")) {
      return Status::ParseError("expected AND in BETWEEN");
    }
    FUSION_ASSIGN_OR_RETURN(Value hi, ParseConstantToken(lex.Next()));
    return Condition::Between(attr, std::move(lo), std::move(hi));
  }
  if (IsKeyword(next, "IN")) {
    if (lex.Next() != "(") return Status::ParseError("expected '(' after IN");
    std::vector<Value> values;
    while (true) {
      FUSION_ASSIGN_OR_RETURN(Value v, ParseConstantToken(lex.Next()));
      values.push_back(std::move(v));
      const std::string sep = lex.Next();
      if (sep == ")") break;
      if (sep != ",") return Status::ParseError("expected ',' or ')' in IN");
    }
    return Condition::In(attr, std::move(values));
  }
  FUSION_ASSIGN_OR_RETURN(const CompareOp op, ParseOpToken(next));
  FUSION_ASSIGN_OR_RETURN(Value constant, ParseConstantToken(lex.Next()));
  return Condition::Compare(attr, op, std::move(constant));
}

Result<Condition> ParseAnd(Lexer& lex) {
  FUSION_ASSIGN_OR_RETURN(Condition lhs, ParsePrimary(lex));
  while (IsKeyword(lex.Peek(), "AND")) {
    lex.Next();
    FUSION_ASSIGN_OR_RETURN(Condition rhs, ParsePrimary(lex));
    lhs = Condition::And(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Result<Condition> ParseOr(Lexer& lex) {
  FUSION_ASSIGN_OR_RETURN(Condition lhs, ParseAnd(lex));
  while (IsKeyword(lex.Peek(), "OR")) {
    lex.Next();
    FUSION_ASSIGN_OR_RETURN(Condition rhs, ParseAnd(lex));
    lhs = Condition::Or(std::move(lhs), std::move(rhs));
  }
  return lhs;
}

}  // namespace

Result<Condition> ParseCondition(const std::string& text) {
  Lexer lex(text);
  FUSION_ASSIGN_OR_RETURN(Condition cond, ParseOr(lex));
  if (!lex.status().ok()) return lex.status();
  if (!lex.AtEnd()) {
    return Status::ParseError("trailing input after condition: '" +
                              lex.Peek() + "'");
  }
  return cond;
}

// ---------------------------------------------------------------------------
// Simplification (Condition::Simplified)
// ---------------------------------------------------------------------------

Condition Condition::Simplified() const {
  using Kind = Node::Kind;
  const Node& n = *node_;
  switch (n.kind) {
    case Kind::kTrue:
    case Kind::kFalse:
    case Kind::kCompare:
      return *this;
    case Kind::kBetween: {
      const int c = n.lo.Compare(n.hi);
      if (c > 0) return False();
      if (c == 0) return Eq(n.attribute, n.lo);
      return *this;
    }
    case Kind::kIn: {
      std::vector<Value> values = n.set;
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      if (values.empty()) return False();
      if (values.size() == 1) return Eq(n.attribute, values[0]);
      return In(n.attribute, std::move(values));
    }
    case Kind::kNot: {
      const Condition inner = Condition(n.left).Simplified();
      if (inner.IsTrue()) return False();
      if (inner.IsFalse()) return True();
      if (inner.node_->kind == Kind::kNot) {
        return Condition(inner.node_->left).Simplified();
      }
      return Not(inner);
    }
    case Kind::kAnd:
    case Kind::kOr:
      break;  // handled below
  }

  const bool is_and = n.kind == Kind::kAnd;

  // Flatten the same-kind subtree into an operand list, simplifying each
  // leaf of the n-ary operator (re-flattening anything simplification
  // exposes).
  std::vector<Condition> operands;
  std::function<void(const Condition&, bool)> flatten =
      [&](const Condition& c, bool simplify) {
        if (c.node_->kind == n.kind) {
          flatten(Condition(c.node_->left), simplify);
          flatten(Condition(c.node_->right), simplify);
          return;
        }
        if (simplify) {
          const Condition s = c.Simplified();
          if (s.node_->kind == n.kind) {
            flatten(s, /*simplify=*/false);
          } else {
            operands.push_back(s);
          }
        } else {
          operands.push_back(c);
        }
      };
  flatten(Condition(node_), /*simplify=*/true);

  // Identity/absorbing elements.
  std::vector<Condition> kept;
  for (const Condition& c : operands) {
    if (is_and) {
      if (c.IsTrue()) continue;
      if (c.IsFalse()) return False();
    } else {
      if (c.IsFalse()) continue;
      if (c.IsTrue()) return True();
    }
    kept.push_back(c);
  }

  // Deduplicate structurally.
  std::vector<Condition> unique_ops;
  for (const Condition& c : kept) {
    bool seen = false;
    for (const Condition& u : unique_ops) {
      if (c.Equals(u)) {
        seen = true;
        break;
      }
    }
    if (!seen) unique_ops.push_back(c);
  }

  if (is_and) {
    // Range folding: order atoms (<, <=, >, >=, =, BETWEEN) on one attribute
    // tighten into a single interval; an empty interval is a contradiction.
    // Only attributes whose constants are mutually comparable (all numeric
    // or all strings) participate.
    struct Bound {
      Value value;
      bool inclusive = true;
    };
    struct AttrRange {
      std::optional<Bound> lo, hi;
      bool foldable = true;
      bool is_numeric = false;
      bool has_type = false;
      size_t atoms = 0;
    };
    auto note_type = [](AttrRange& r, const Value& v) {
      const bool numeric =
          v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble;
      if (!r.has_type) {
        r.has_type = true;
        r.is_numeric = numeric;
      } else if (r.is_numeric != numeric) {
        r.foldable = false;
      }
    };
    auto tighten_lo = [](AttrRange& r, const Value& v, bool inclusive) {
      if (!r.lo || v > r.lo->value || (v == r.lo->value && !inclusive)) {
        r.lo = Bound{v, inclusive};
      }
    };
    auto tighten_hi = [](AttrRange& r, const Value& v, bool inclusive) {
      if (!r.hi || v < r.hi->value || (v == r.hi->value && !inclusive)) {
        r.hi = Bound{v, inclusive};
      }
    };

    std::map<std::string, AttrRange> ranges;
    for (const Condition& c : unique_ops) {
      const Node& nc = *c.node_;
      if (nc.kind == Kind::kCompare && nc.op != CompareOp::kNe) {
        AttrRange& r = ranges[nc.attribute];
        ++r.atoms;
        note_type(r, nc.constant);
        switch (nc.op) {
          case CompareOp::kEq:
            tighten_lo(r, nc.constant, true);
            tighten_hi(r, nc.constant, true);
            break;
          case CompareOp::kLt:
            tighten_hi(r, nc.constant, false);
            break;
          case CompareOp::kLe:
            tighten_hi(r, nc.constant, true);
            break;
          case CompareOp::kGt:
            tighten_lo(r, nc.constant, false);
            break;
          case CompareOp::kGe:
            tighten_lo(r, nc.constant, true);
            break;
          case CompareOp::kNe:
            break;
        }
      } else if (nc.kind == Kind::kBetween) {
        AttrRange& r = ranges[nc.attribute];
        ++r.atoms;
        note_type(r, nc.lo);
        note_type(r, nc.hi);
        tighten_lo(r, nc.lo, true);
        tighten_hi(r, nc.hi, true);
      }
    }
    for (auto& [attr, r] : ranges) {
      if (!r.foldable || r.atoms < 2) continue;
      if (r.lo && r.hi) {
        const int c = r.lo->value.Compare(r.hi->value);
        if (c > 0 || (c == 0 && !(r.lo->inclusive && r.hi->inclusive))) {
          return False();  // empty interval
        }
      }
      // Replace this attribute's folded atoms by the canonical interval.
      std::vector<Condition> next;
      for (const Condition& c : unique_ops) {
        const Node& nc = *c.node_;
        const bool folded =
            (nc.kind == Kind::kCompare && nc.op != CompareOp::kNe &&
             nc.attribute == attr) ||
            (nc.kind == Kind::kBetween && nc.attribute == attr);
        if (!folded) next.push_back(c);
      }
      if (r.lo && r.hi && r.lo->value == r.hi->value) {
        next.push_back(Eq(attr, r.lo->value));
      } else if (r.lo && r.hi && r.lo->inclusive && r.hi->inclusive) {
        next.push_back(Between(attr, r.lo->value, r.hi->value));
      } else {
        if (r.lo) {
          next.push_back(Compare(
              attr, r.lo->inclusive ? CompareOp::kGe : CompareOp::kGt,
              r.lo->value));
        }
        if (r.hi) {
          next.push_back(Compare(
              attr, r.hi->inclusive ? CompareOp::kLe : CompareOp::kLt,
              r.hi->value));
        }
      }
      unique_ops = std::move(next);
    }

    // Conjunction contradictions involving an equality atom.
    for (const Condition& a : unique_ops) {
      const Node& na = *a.node_;
      if (na.kind != Kind::kCompare || na.op != CompareOp::kEq) continue;
      for (const Condition& b : unique_ops) {
        const Node& nb = *b.node_;
        if (&na == &nb || nb.attribute != na.attribute) continue;
        if (nb.kind == Kind::kCompare && nb.op == CompareOp::kEq &&
            nb.constant != na.constant) {
          return False();  // x = v1 AND x = v2 with v1 != v2
        }
        if (nb.kind == Kind::kBetween &&
            (na.constant < nb.lo || na.constant > nb.hi)) {
          return False();  // x = v AND x BETWEEN [lo, hi] with v outside
        }
        if (nb.kind == Kind::kIn) {
          bool contained = false;
          for (const Value& v : nb.set) {
            if (v == na.constant) {
              contained = true;
              break;
            }
          }
          if (!contained) return False();  // x = v AND x IN (...) sans v
        }
      }
    }
  } else {
    // Merge equality atoms on one attribute into IN.
    std::vector<Condition> merged;
    std::vector<std::pair<std::string, std::vector<Value>>> eqs;
    for (const Condition& c : unique_ops) {
      const Node& nc = *c.node_;
      if (nc.kind == Kind::kCompare && nc.op == CompareOp::kEq) {
        bool found = false;
        for (auto& [attr, values] : eqs) {
          if (attr == nc.attribute) {
            values.push_back(nc.constant);
            found = true;
            break;
          }
        }
        if (!found) eqs.push_back({nc.attribute, {nc.constant}});
      } else {
        merged.push_back(c);
      }
    }
    for (auto& [attr, values] : eqs) {
      merged.push_back(values.size() == 1
                           ? Eq(attr, values[0])
                           : In(attr, std::move(values)).Simplified());
    }
    unique_ops = std::move(merged);
  }

  if (unique_ops.empty()) return is_and ? True() : False();
  if (unique_ops.size() == 1) return unique_ops[0];

  // Canonical textual order, then left-associated rebuild.
  std::stable_sort(unique_ops.begin(), unique_ops.end(),
                   [](const Condition& a, const Condition& b) {
                     return a.ToString() < b.ToString();
                   });
  Condition out = unique_ops[0];
  for (size_t i = 1; i < unique_ops.size(); ++i) {
    out = is_and ? And(out, unique_ops[i]) : Or(out, unique_ops[i]);
  }
  return out;
}

}  // namespace fusion
