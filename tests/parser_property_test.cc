// Differential property test for database text: `ParseDatabase` walks
// string_views in one pass, parses plain integers in place and looks a
// relation up once per run of lines; reference::ParseDatabaseSplit is the
// splitting parser it replaced. On generated text both must return an
// equal Database (same tuples in the same order) or the same Status code
// and error text. The generator mixes signed, zero-padded and overflowing
// integers, quoted strings (with commas inside, which split like any
// other comma), `_n` nulls and near-nulls, blank, comment and CRLF lines,
// and malformed lines, unknown relations and arity errors.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/parser.h"
#include "reference/parser.h"
#include "util/rng.h"
#include "util/strings.h"

namespace ccfp {
namespace {

std::string Pick(SplitMix64& rng, const std::vector<std::string>& from) {
  return from[rng.Below(from.size())];
}

std::string RandomToken(SplitMix64& rng) {
  switch (rng.Below(12)) {
    case 0:
      return std::to_string(static_cast<std::int64_t>(rng.Next()));
    case 1:
      return StrCat(rng.Below(2) ? "+" : "-", rng.Below(1000));
    case 2:
      return StrCat("00", rng.Below(100));  // zero-padded
    case 3:
      return Pick(rng, {"9223372036854775807", "9223372036854775808",
                        "-9223372036854775808", "-9223372036854775809",
                        "123456789012345678901234567890", "-0", "-", "+",
                        "--5", "0x1F", "1e3", "12abc"});
    case 4:
      return StrCat("\"", Pick(rng, {"", "a", "x y", "a,b", "7", "_n3"}),
                    "\"");
    case 5:
      return Pick(rng, {"\"", "\"open", "close\"", "\"\"\"", "''"});
    case 6:
      return StrCat("_n", rng.Below(50));
    case 7:
      return Pick(rng, {"_n", "_n-1", "_n+2", "_nx", "_n 4", "_N5",
                        "_n18446744073709551616", "n5"});
    case 8:
      return Pick(rng, {"Hilbert", "Math", "a b", "", " ", "\t"});
    case 9:
      return StrCat(" ", rng.Below(100), "\t");
    default:
      return std::to_string(rng.Below(20));
  }
}

std::string RandomLine(SplitMix64& rng) {
  switch (rng.Below(14)) {
    case 0:
      return "";
    case 1:
      return Pick(rng, {"# comment", "   # indented comment", "\t", "   "});
    case 2:
      return Pick(rng, {"R(1, 2", "R 1, 2)", "(1, 2)", "R)", ")", "(",
                        "R(1, 2))x", "R((1), 2)", "R(1, 2)(3)"});
    case 3:
      return StrCat(Pick(rng, {"T", "r", "RS", ""}), "(1, 2)");
    default: {
      std::string rel = Pick(rng, {"R", "R", "R", "S", " R ", "S\t"});
      // Mostly the right arity (R: 3, S: 2), sometimes off by one.
      std::size_t arity = (rel.find('R') != std::string::npos ? 3 : 2);
      if (rng.Below(10) == 0) arity += rng.Below(2) ? 1 : -1;
      std::string line = StrCat(rel, "(");
      for (std::size_t i = 0; i < arity; ++i) {
        if (i > 0) line += Pick(rng, {",", ", ", " ,", ",\t"});
        line += RandomToken(rng);
      }
      line += ")";
      return line;
    }
  }
}

std::string RandomText(SplitMix64& rng) {
  std::string text;
  std::size_t lines = rng.Below(12);
  for (std::size_t i = 0; i < lines; ++i) {
    if (i > 0) text += rng.Below(5) == 0 ? "\r\n" : "\n";
    text += RandomLine(rng);
  }
  if (rng.Below(3) == 0) text += "\n";
  return text;
}

TEST(ParserPropertyTest, OnePassMatchesTheSplittingParser) {
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
  SplitMix64 rng(4242);
  int parsed = 0, refused = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text = RandomText(rng);
    Result<Database> got = ParseDatabase(scheme, text);
    Result<Database> want = reference::ParseDatabaseSplit(scheme, text);
    ASSERT_EQ(got.ok(), want.ok())
        << "text:\n" << text << "\ngot: "
        << (got.ok() ? "ok" : got.status().ToString())
        << "\nwant: " << (want.ok() ? "ok" : want.status().ToString());
    if (!got.ok()) {
      ++refused;
      EXPECT_EQ(got.status().code(), want.status().code()) << text;
      EXPECT_EQ(got.status().message(), want.status().message()) << text;
      continue;
    }
    ++parsed;
    for (RelId rel = 0; rel < scheme->size(); ++rel) {
      ASSERT_EQ(got->relation(rel).tuples(), want->relation(rel).tuples())
          << "text:\n" << text;
    }
  }
  // Both outcomes must be well represented.
  EXPECT_GT(parsed, 400);
  EXPECT_GT(refused, 400);
}

TEST(ParserPropertyTest, SingleLinesMatchTheSplittingParser) {
  // ParseAndInsertTuple quotes the line as given (untrimmed) in its shape
  // error; ParseDatabase quotes the trimmed line. A one-line database
  // through both parsers covers the latter; here the former is compared
  // with the reference's prefix-free message.
  SchemePtr scheme = MakeScheme({{"R", {"A", "B", "C"}}, {"S", {"D", "E"}}});
  SplitMix64 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string line = StrCat(Pick(rng, {"", " ", "\t"}), RandomLine(rng),
                              Pick(rng, {"", " ", "\r"}));
    Database db(scheme);
    Status got = ParseAndInsertTuple(db, line);
    Result<Database> want = reference::ParseDatabaseSplit(scheme, line);
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;  // skipped by both
    ASSERT_EQ(got.ok(), want.ok()) << "line: '" << line << "'";
    if (got.ok()) {
      EXPECT_EQ(db, *want) << line;
      continue;
    }
    // The reference wraps as "line 1: <message>" with InvalidArgument and
    // quotes the trimmed line; the single-line entry keeps the code of
    // the failing step and quotes the line as passed.
    std::string message = want.status().message();
    ASSERT_TRUE(StartsWith(message, "line 1: ")) << message;
    message = message.substr(8);
    if (StartsWith(message, "expected R(v1, ...) but got '")) {
      EXPECT_EQ(got.message(),
                StrCat("expected R(v1, ...) but got '", line, "'"));
      EXPECT_EQ(got.code(), StatusCode::kInvalidArgument);
    } else {
      EXPECT_EQ(got.message(), message) << line;
    }
  }
}

}  // namespace
}  // namespace ccfp
