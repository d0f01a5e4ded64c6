#include "src/query/parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <map>

#include "src/common/strings.h"

namespace qoco::query {

namespace {

using common::Result;
using common::Status;

enum class TokenKind {
  kIdent,
  kString,
  kNumber,
  kLParen,
  kRParen,
  kComma,
  kImplies,   // :-
  kNotEqual,  // != or <>
  kPeriod,
  kSemicolon,  // Separates the disjuncts of a union query.
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  size_t offset = 0;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  Result<Token> Next() {
    SkipWhitespace();
    size_t start = pos_;
    if (pos_ >= text_.size()) return Token{TokenKind::kEnd, "", start};
    char c = text_[pos_];
    if (c == '(') return Simple(TokenKind::kLParen);
    if (c == ')') return Simple(TokenKind::kRParen);
    if (c == ',') return Simple(TokenKind::kComma);
    if (c == '.') return Simple(TokenKind::kPeriod);
    if (c == ';') return Simple(TokenKind::kSemicolon);
    if (c == ':' && Peek(1) == '-') {
      pos_ += 2;
      return Token{TokenKind::kImplies, ":-", start};
    }
    if (c == '!' && Peek(1) == '=') {
      pos_ += 2;
      return Token{TokenKind::kNotEqual, "!=", start};
    }
    if (c == '<' && Peek(1) == '>') {
      pos_ += 2;
      return Token{TokenKind::kNotEqual, "<>", start};
    }
    if (c == '\'' || c == '"') return LexString(c);
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' || c == '+') {
      return LexNumber();
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      return LexIdent();
    }
    return Status::ParseError("unexpected character '" + std::string(1, c) +
                              "' at offset " + std::to_string(pos_));
  }

 private:
  char Peek(size_t ahead) const {
    return pos_ + ahead < text_.size() ? text_[pos_ + ahead] : '\0';
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Token Simple(TokenKind kind) {
    Token t{kind, std::string(1, text_[pos_]), pos_};
    ++pos_;
    return t;
  }

  Result<Token> LexString(char quote) {
    size_t start = pos_;
    ++pos_;
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != quote) {
      value += text_[pos_];
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return Status::ParseError("unterminated string literal at offset " +
                                std::to_string(start));
    }
    ++pos_;  // closing quote
    return Token{TokenKind::kString, std::move(value), start};
  }

  Result<Token> LexNumber() {
    size_t start = pos_;
    if (text_[pos_] == '-' || text_[pos_] == '+') ++pos_;
    bool digits = false;
    bool dot = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        digits = true;
        ++pos_;
      } else if (c == '.' && !dot &&
                 std::isdigit(static_cast<unsigned char>(Peek(1)))) {
        dot = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (!digits) {
      return Status::ParseError("malformed number at offset " +
                                std::to_string(start));
    }
    return Token{TokenKind::kNumber, std::string(text_.substr(start, pos_ - start)),
                 start};
  }

  Result<Token> LexIdent() {
    size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '_')) {
      ++pos_;
    }
    return Token{TokenKind::kIdent,
                 std::string(text_.substr(start, pos_ - start)), start};
  }

  std::string_view text_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::string_view text, const relational::Catalog& catalog)
      : lexer_(text), catalog_(catalog) {}

  Result<CQuery> Parse() {
    QOCO_RETURN_NOT_OK(Advance());
    QOCO_RETURN_NOT_OK(ParseHead());
    QOCO_RETURN_NOT_OK(Expect(TokenKind::kImplies, "':-'"));
    QOCO_RETURN_NOT_OK(ParseBody());
    if (current_.kind == TokenKind::kPeriod) QOCO_RETURN_NOT_OK(Advance());
    if (current_.kind != TokenKind::kEnd) {
      return Status::ParseError("trailing input at offset " +
                                std::to_string(current_.offset));
    }
    return CQuery::Make(std::move(head_), std::move(atoms_),
                        std::move(inequalities_), std::move(var_names_));
  }

 private:
  Status Advance() {
    auto token = lexer_.Next();
    if (!token.ok()) return token.status();
    current_ = std::move(token).value();
    return Status::OK();
  }

  Status Expect(TokenKind kind, const char* what) {
    if (current_.kind != kind) {
      return Status::ParseError(std::string("expected ") + what +
                                " at offset " +
                                std::to_string(current_.offset));
    }
    return Advance();
  }

  VarId InternVar(const std::string& name) {
    auto it = var_ids_.find(name);
    if (it != var_ids_.end()) return it->second;
    VarId id = static_cast<VarId>(var_names_.size());
    var_names_.push_back(name);
    var_ids_.emplace(name, id);
    return id;
  }

  /// term := ident | string | number
  Result<Term> ParseTerm() {
    if (current_.kind == TokenKind::kIdent) {
      Term t = Term::MakeVar(InternVar(current_.text));
      QOCO_RETURN_NOT_OK(Advance());
      return t;
    }
    if (current_.kind == TokenKind::kString) {
      Term t = Term::MakeConst(relational::Value(current_.text));
      QOCO_RETURN_NOT_OK(Advance());
      return t;
    }
    if (current_.kind == TokenKind::kNumber) {
      std::string text = current_.text;
      QOCO_RETURN_NOT_OK(Advance());
      if (text.find('.') != std::string::npos) {
        return Term::MakeConst(relational::Value(std::strtod(text.c_str(),
                                                             nullptr)));
      }
      errno = 0;
      long long v = std::strtoll(text.c_str(), nullptr, 10);
      if (errno != 0) {
        return Status::ParseError("integer literal out of range: " + text);
      }
      return Term::MakeConst(relational::Value(static_cast<int64_t>(v)));
    }
    return Status::ParseError("expected a term at offset " +
                              std::to_string(current_.offset));
  }

  Status ParseTermList(std::vector<Term>* out) {
    QOCO_RETURN_NOT_OK(Expect(TokenKind::kLParen, "'('"));
    if (current_.kind == TokenKind::kRParen) return Advance();
    while (true) {
      QOCO_ASSIGN_OR_RETURN(Term term, ParseTerm());
      out->push_back(std::move(term));
      if (current_.kind == TokenKind::kComma) {
        QOCO_RETURN_NOT_OK(Advance());
        continue;
      }
      return Expect(TokenKind::kRParen, "')'");
    }
  }

  Status ParseHead() {
    // Optional head predicate name.
    if (current_.kind == TokenKind::kIdent) QOCO_RETURN_NOT_OK(Advance());
    return ParseTermList(&head_);
  }

  /// bodyatom := ident '(' termlist ')' | term ('!='|'<>') term
  Status ParseBodyAtom() {
    if (current_.kind == TokenKind::kIdent) {
      // Could be a relational atom or the lhs of an inequality; decide by
      // the next token. Save the identifier first.
      std::string name = current_.text;
      QOCO_RETURN_NOT_OK(Advance());
      if (current_.kind == TokenKind::kLParen) {
        auto rel = catalog_.FindRelation(name);
        if (!rel.ok()) return rel.status();
        Atom atom;
        atom.relation = rel.value();
        QOCO_RETURN_NOT_OK(ParseTermList(&atom.terms));
        size_t arity = catalog_.schema(atom.relation).arity();
        if (atom.terms.size() != arity) {
          return Status::ParseError(
              "relation '" + name + "' expects " + std::to_string(arity) +
              " arguments, got " + std::to_string(atom.terms.size()));
        }
        atoms_.push_back(std::move(atom));
        return Status::OK();
      }
      // Inequality with a variable lhs.
      Term lhs = Term::MakeVar(InternVar(name));
      return ParseInequalityTail(std::move(lhs));
    }
    QOCO_ASSIGN_OR_RETURN(Term lhs, ParseTerm());
    return ParseInequalityTail(std::move(lhs));
  }

  Status ParseInequalityTail(Term lhs) {
    QOCO_RETURN_NOT_OK(Expect(TokenKind::kNotEqual, "'!='"));
    QOCO_ASSIGN_OR_RETURN(Term rhs, ParseTerm());
    inequalities_.push_back(Inequality{std::move(lhs), std::move(rhs)});
    return Status::OK();
  }

  Status ParseBody() {
    while (true) {
      QOCO_RETURN_NOT_OK(ParseBodyAtom());
      if (current_.kind == TokenKind::kComma) {
        QOCO_RETURN_NOT_OK(Advance());
        continue;
      }
      return Status::OK();
    }
  }

  Lexer lexer_;
  const relational::Catalog& catalog_;
  Token current_{TokenKind::kEnd, "", 0};

  std::vector<Term> head_;
  std::vector<Atom> atoms_;
  std::vector<Inequality> inequalities_;
  std::vector<std::string> var_names_;
  std::map<std::string, VarId> var_ids_;
};

}  // namespace

common::Result<CQuery> ParseQuery(std::string_view text,
                                  const relational::Catalog& catalog) {
  Parser parser(text, catalog);
  return parser.Parse();
}

common::Result<UnionQuery> ParseUnionQuery(
    std::string_view text, const relational::Catalog& catalog) {
  // The lexer finds the ';' separators, so a quoted ';' stays inside its
  // constant.
  std::vector<CQuery> disjuncts;
  Lexer lexer(text);
  size_t begin = 0;
  while (true) {
    QOCO_ASSIGN_OR_RETURN(Token token, lexer.Next());
    if (token.kind != TokenKind::kSemicolon && token.kind != TokenKind::kEnd) {
      continue;
    }
    std::string_view piece =
        common::StripWhitespace(text.substr(begin, token.offset - begin));
    if (!piece.empty()) {
      QOCO_ASSIGN_OR_RETURN(CQuery q, ParseQuery(piece, catalog));
      disjuncts.push_back(std::move(q));
    }
    if (token.kind == TokenKind::kEnd) break;
    begin = token.offset + 1;
  }
  return UnionQuery::Make(std::move(disjuncts));
}

}  // namespace qoco::query
