#include "query/parser.h"

#include <algorithm>
#include <cctype>

namespace tpset {

std::string QueryToString(const QueryNode& q) {
  if (q.kind == QueryNode::Kind::kRelation) return q.relation_name;
  auto wrap = [](const QueryNode& child, bool need_parens) {
    std::string s = QueryToString(child);
    return need_parens ? "(" + s + ")" : s;
  };
  const char* sym = q.op == SetOpKind::kUnion      ? " | "
                    : q.op == SetOpKind::kIntersect ? " & "
                                                     : " - ";
  // Parenthesize children of lower precedence, and right-hand children at
  // equal precedence (the operators associate left).
  auto prec = [](SetOpKind op) { return op == SetOpKind::kIntersect ? 2 : 1; };
  bool left_parens = q.left->kind == QueryNode::Kind::kSetOp &&
                     prec(q.left->op) < prec(q.op);
  bool right_parens = q.right->kind == QueryNode::Kind::kSetOp &&
                      prec(q.right->op) <= prec(q.op);
  return wrap(*q.left, left_parens) + sym + wrap(*q.right, right_parens);
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<QueryPtr> Parse() {
    std::size_t depth = 0;
    Result<QueryPtr> q = ParseUnionExcept(&depth);
    if (!q.ok()) return q;
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing input at offset " +
                                     std::to_string(pos_) + " in '" + text_ + "'");
    }
    return q;
  }

 private:
  char Peek() {
    SkipSpace();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status TooDeep() const {
    return Status::InvalidArgument(
        "query nests deeper than " + std::to_string(kMaxQueryDepth) +
        " levels at offset " + std::to_string(pos_));
  }

  // Each Parse* sets *depth to the height of the tree it returns.
  Result<QueryPtr> ParseUnionExcept(std::size_t* depth) {
    Result<QueryPtr> left = ParseIntersect(depth);
    if (!left.ok()) return left;
    QueryPtr acc = std::move(*left);
    while (true) {
      char c = Peek();
      if (c != '|' && c != '-') break;
      ++pos_;
      std::size_t right_depth = 0;
      Result<QueryPtr> right = ParseIntersect(&right_depth);
      if (!right.ok()) return right;
      *depth = 1 + std::max(*depth, right_depth);
      if (*depth > kMaxQueryDepth) return TooDeep();
      acc = QueryNode::SetOp(c == '|' ? SetOpKind::kUnion : SetOpKind::kExcept,
                             std::move(acc), std::move(*right));
    }
    return acc;
  }

  Result<QueryPtr> ParseIntersect(std::size_t* depth) {
    Result<QueryPtr> left = ParseFactor(depth);
    if (!left.ok()) return left;
    QueryPtr acc = std::move(*left);
    while (Peek() == '&') {
      ++pos_;
      std::size_t right_depth = 0;
      Result<QueryPtr> right = ParseFactor(&right_depth);
      if (!right.ok()) return right;
      *depth = 1 + std::max(*depth, right_depth);
      if (*depth > kMaxQueryDepth) return TooDeep();
      acc = QueryNode::SetOp(SetOpKind::kIntersect, std::move(acc),
                             std::move(*right));
    }
    return acc;
  }

  Result<QueryPtr> ParseFactor(std::size_t* depth) {
    char c = Peek();
    if (c == '(') {
      // Checked before descending: the recursion itself is what overflows.
      if (++nesting_ > kMaxQueryDepth) return TooDeep();
      ++pos_;
      Result<QueryPtr> inner = ParseUnionExcept(depth);
      if (!inner.ok()) return inner;
      if (Peek() != ')') {
        return Status::InvalidArgument("expected ')' at offset " +
                                       std::to_string(pos_) + " in '" + text_ + "'");
      }
      ++pos_;
      --nesting_;
      return inner;
    }
    SkipSpace();
    std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::InvalidArgument("expected relation name at offset " +
                                     std::to_string(start) + " in '" + text_ + "'");
    }
    *depth = 1;
    return QueryNode::Relation(text_.substr(start, pos_ - start));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t nesting_ = 0;  // open parentheses around pos_
};

}  // namespace

Result<QueryPtr> ParseQuery(const std::string& text) {
  return Parser(text).Parse();
}

}  // namespace tpset
