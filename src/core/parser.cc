#include "core/parser.h"

#include <charconv>
#include <cstdlib>
#include <string>

#include "util/strings.h"

namespace ccfp {

namespace {

// Parses "A, B, C" into attribute ids of `rel`. An empty/whitespace-only
// list yields the empty sequence.
Result<std::vector<AttrId>> ParseAttrList(const DatabaseScheme& scheme,
                                          RelId rel, std::string_view text) {
  std::vector<AttrId> ids;
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return ids;
  for (const std::string& name : SplitAndTrim(trimmed, ',')) {
    if (name.empty()) {
      return Status::InvalidArgument(
          StrCat("empty attribute name in list '", std::string(text), "'"));
    }
    CCFP_ASSIGN_OR_RETURN(AttrId id, scheme.relation(rel).FindAttr(name));
    ids.push_back(id);
  }
  return ids;
}

// Splits "R[...]" into relation id and bracket contents.
struct BracketExpr {
  RelId rel;
  std::string inner;
};

Result<BracketExpr> ParseBracketExpr(const DatabaseScheme& scheme,
                                     std::string_view text) {
  std::size_t open = text.find('[');
  if (open == std::string_view::npos || text.back() != ']') {
    return Status::InvalidArgument(
        StrCat("expected R[...] but got '", std::string(text), "'"));
  }
  std::string rel_name(TrimWhitespace(text.substr(0, open)));
  CCFP_ASSIGN_OR_RETURN(RelId rel, scheme.FindRelation(rel_name));
  std::string inner(text.substr(open + 1, text.size() - open - 2));
  return BracketExpr{rel, std::move(inner)};
}

Result<Dependency> ParseColonForm(const DatabaseScheme& scheme,
                                  std::string_view text,
                                  std::size_t colon_pos) {
  std::string rel_name(TrimWhitespace(text.substr(0, colon_pos)));
  CCFP_ASSIGN_OR_RETURN(RelId rel, scheme.FindRelation(rel_name));
  std::string_view body = text.substr(colon_pos + 1);

  // "->>"" must be checked before "->".
  std::size_t mvd_arrow = body.find("->>");
  if (mvd_arrow != std::string_view::npos) {
    std::string_view x_part = body.substr(0, mvd_arrow);
    std::string_view rest = body.substr(mvd_arrow + 3);
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> x,
                          ParseAttrList(scheme, rel, x_part));
    std::size_t bar = rest.find('|');
    if (bar == std::string_view::npos) {
      CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> y,
                            ParseAttrList(scheme, rel, rest));
      Mvd mvd{rel, std::move(x), std::move(y)};
      CCFP_RETURN_NOT_OK(Validate(scheme, mvd));
      return Dependency(std::move(mvd));
    }
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> y,
                          ParseAttrList(scheme, rel, rest.substr(0, bar)));
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> z,
                          ParseAttrList(scheme, rel, rest.substr(bar + 1)));
    Emvd emvd{rel, std::move(x), std::move(y), std::move(z)};
    CCFP_RETURN_NOT_OK(Validate(scheme, emvd));
    return Dependency(std::move(emvd));
  }

  std::size_t fd_arrow = body.find("->");
  if (fd_arrow != std::string_view::npos) {
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> lhs,
                          ParseAttrList(scheme, rel, body.substr(0, fd_arrow)));
    CCFP_ASSIGN_OR_RETURN(
        std::vector<AttrId> rhs,
        ParseAttrList(scheme, rel, body.substr(fd_arrow + 2)));
    Fd fd{rel, std::move(lhs), std::move(rhs)};
    CCFP_RETURN_NOT_OK(Validate(scheme, fd));
    return Dependency(std::move(fd));
  }

  return Status::InvalidArgument(
      StrCat("expected '->' or '->>' in '", std::string(text), "'"));
}

}  // namespace

Result<Dependency> ParseDependency(const DatabaseScheme& scheme,
                                   std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) {
    return Status::InvalidArgument("empty dependency text");
  }

  // IND form: "R[...] <= S[...]". Find "<=" outside brackets.
  std::size_t le = trimmed.find("<=");
  if (le != std::string_view::npos) {
    std::string_view lhs_text = TrimWhitespace(trimmed.substr(0, le));
    std::string_view rhs_text = TrimWhitespace(trimmed.substr(le + 2));
    CCFP_ASSIGN_OR_RETURN(BracketExpr lhs, ParseBracketExpr(scheme, lhs_text));
    CCFP_ASSIGN_OR_RETURN(BracketExpr rhs, ParseBracketExpr(scheme, rhs_text));
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> lhs_attrs,
                          ParseAttrList(scheme, lhs.rel, lhs.inner));
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> rhs_attrs,
                          ParseAttrList(scheme, rhs.rel, rhs.inner));
    Ind ind{lhs.rel, std::move(lhs_attrs), rhs.rel, std::move(rhs_attrs)};
    CCFP_RETURN_NOT_OK(Validate(scheme, ind));
    return Dependency(std::move(ind));
  }

  // Colon forms (FD / MVD / EMVD) vs RD "R[X = Y]". A colon before any '['
  // means a colon form.
  std::size_t colon = trimmed.find(':');
  std::size_t bracket = trimmed.find('[');
  if (colon != std::string_view::npos &&
      (bracket == std::string_view::npos || colon < bracket)) {
    return ParseColonForm(scheme, trimmed, colon);
  }

  // RD form: "R[X = Y]".
  if (bracket != std::string_view::npos) {
    CCFP_ASSIGN_OR_RETURN(BracketExpr expr, ParseBracketExpr(scheme, trimmed));
    std::size_t eq = expr.inner.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrCat("expected '=' in RD '", std::string(trimmed), "'"));
    }
    std::string_view inner(expr.inner);
    CCFP_ASSIGN_OR_RETURN(std::vector<AttrId> lhs,
                          ParseAttrList(scheme, expr.rel, inner.substr(0, eq)));
    CCFP_ASSIGN_OR_RETURN(
        std::vector<AttrId> rhs,
        ParseAttrList(scheme, expr.rel, inner.substr(eq + 1)));
    Rd rd{expr.rel, std::move(lhs), std::move(rhs)};
    CCFP_RETURN_NOT_OK(Validate(scheme, rd));
    return Dependency(std::move(rd));
  }

  return Status::InvalidArgument(
      StrCat("unrecognized dependency syntax: '", std::string(trimmed), "'"));
}

Result<std::vector<Dependency>> ParseDependencies(
    const DatabaseScheme& scheme, std::string_view text) {
  std::vector<Dependency> deps;
  int line_no = 0;
  for (const std::string& line : SplitAndTrim(text, '\n')) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    Result<Dependency> dep = ParseDependency(scheme, line);
    if (!dep.ok()) {
      return Status::InvalidArgument(
          StrCat("line ", line_no, ": ", dep.status().message()));
    }
    deps.push_back(dep.MoveValue());
  }
  return deps;
}

namespace {

Value ParseValue(std::string_view token) {
  if (token.size() >= 2 && token.front() == '"' && token.back() == '"') {
    return Value::Str(std::string(token.substr(1, token.size() - 2)));
  }
  if (token.size() >= 3 && token[0] == '_' && token[1] == 'n') {
    char* end = nullptr;
    std::string digits(token.substr(2));
    std::uint64_t id = std::strtoull(digits.c_str(), &end, 10);
    if (end != nullptr && *end == '\0') return Value::Null(id);
  }
  // Integer?
  std::string s(token);
  char* end = nullptr;
  long long x = std::strtoll(s.c_str(), &end, 10);
  if (!s.empty() && end != nullptr && *end == '\0') return Value::Int(x);
  return Value::Str(std::move(s));
}

/// One trimmed value token. A plain decimal integer (an optional '-' and
/// digits that fit an int64) parses in place; anything else — a '+' sign,
/// overflow, `_n<k>`, quotes, text — takes ParseValue's general path.
Value ParseToken(std::string_view token) {
  std::int64_t x = 0;
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, x);
  if (ec == std::errc() && ptr == end) return Value::Int(x);
  return ParseValue(token);
}

/// Relation lookup by name, remembering the last name resolved:
/// consecutive lines usually name the same relation.
class RelationNames {
 public:
  explicit RelationNames(const DatabaseScheme& scheme) : scheme_(scheme) {}

  Result<RelId> Find(std::string_view name) {
    if (!have_last_ || name != last_name_) {
      CCFP_ASSIGN_OR_RETURN(last_rel_,
                            scheme_.FindRelation(std::string(name)));
      last_name_ = name;
      have_last_ = true;
    }
    return last_rel_;
  }

 private:
  const DatabaseScheme& scheme_;
  std::string_view last_name_;
  RelId last_rel_ = 0;
  bool have_last_ = false;
};

/// Parses the trimmed tuple line "R(v1, ...)" into `db`. Every comma
/// separates a value, quoted or not, and each value is trimmed. A line
/// not of that form is InvalidArgument quoting `shown` (the line as the
/// caller passed it); an unknown relation or a wrong value count is the
/// same error Database::InsertByName reports.
Status ParseTupleLine(Database& db, std::string_view trimmed,
                      std::string_view shown, RelationNames& names) {
  std::size_t open = trimmed.find('(');
  if (open == std::string_view::npos || trimmed.back() != ')') {
    return Status::InvalidArgument(
        StrCat("expected R(v1, ...) but got '", std::string(shown), "'"));
  }
  CCFP_ASSIGN_OR_RETURN(RelId rel,
                        names.Find(TrimWhitespace(trimmed.substr(0, open))));
  std::string_view inner = trimmed.substr(open + 1, trimmed.size() - open - 2);
  const RelationScheme& rs = db.scheme().relation(rel);
  Tuple t;
  t.reserve(rs.arity());
  if (!TrimWhitespace(inner).empty()) {
    for (;;) {
      std::size_t comma = inner.find(',');
      t.push_back(ParseToken(TrimWhitespace(inner.substr(0, comma))));
      if (comma == std::string_view::npos) break;
      inner.remove_prefix(comma + 1);
    }
  }
  if (t.size() != rs.arity()) {
    return Status::InvalidArgument(StrCat("tuple arity ", t.size(),
                                          " does not match ", rs.ToString()));
  }
  db.Insert(rel, std::move(t));
  return Status::OK();
}

}  // namespace

Status ParseAndInsertTuple(Database& db, std::string_view line) {
  RelationNames names(db.scheme());
  return ParseTupleLine(db, TrimWhitespace(line), line, names);
}

Result<Database> ParseDatabase(SchemePtr scheme, std::string_view text) {
  Database db(std::move(scheme));
  RelationNames names(db.scheme());
  int line_no = 0;
  for (;;) {
    std::size_t newline = text.find('\n');
    std::string_view line = TrimWhitespace(text.substr(0, newline));
    ++line_no;
    if (!line.empty() && line[0] != '#') {
      Status st = ParseTupleLine(db, line, line, names);
      if (!st.ok()) {
        return Status::InvalidArgument(
            StrCat("line ", line_no, ": ", st.message()));
      }
    }
    if (newline == std::string_view::npos) break;
    text.remove_prefix(newline + 1);
  }
  return db;
}

}  // namespace ccfp
