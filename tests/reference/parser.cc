#include "reference/parser.h"

#include <cstdlib>
#include <string>

#include "util/strings.h"

namespace ccfp::reference {

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

Status ParseAndInsertTuple(Database& db, std::string_view line) {
  std::string_view trimmed = TrimWhitespace(line);
  std::size_t open = trimmed.find('(');
  if (open == std::string_view::npos || trimmed.back() != ')') {
    return Status::InvalidArgument(
        StrCat("expected R(v1, ...) but got '", std::string(line), "'"));
  }
  std::string rel_name(TrimWhitespace(trimmed.substr(0, open)));
  std::string_view inner =
      trimmed.substr(open + 1, trimmed.size() - open - 2);
  Tuple t;
  if (!TrimWhitespace(inner).empty()) {
    for (const std::string& token : SplitAndTrim(inner, ',')) {
      t.push_back(ParseValue(token));
    }
  }
  return db.InsertByName(rel_name, std::move(t));
}

}  // namespace

Result<Database> ParseDatabaseSplit(SchemePtr scheme, std::string_view text) {
  Database db(std::move(scheme));
  int line_no = 0;
  for (const std::string& line : SplitAndTrim(text, '\n')) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    Status st = ParseAndInsertTuple(db, line);
    if (!st.ok()) {
      return Status::InvalidArgument(
          StrCat("line ", line_no, ": ", st.message()));
    }
  }
  return db;
}

}  // namespace ccfp::reference
