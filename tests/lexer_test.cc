// Unit tests for the loop-language lexer.

#include "parser/lexer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <utility>

namespace diablo::parser {
namespace {

std::vector<TokenKind> Kinds(const std::string& src) {
  auto tokens = Tokenize(src);
  EXPECT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<TokenKind> kinds;
  if (tokens.ok()) {
    for (const Token& t : *tokens) kinds.push_back(t.kind);
  }
  return kinds;
}

TEST(Lexer, KeywordsAndIdentifiers) {
  auto kinds = Kinds("var for in do while if else true false foo");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kVar, TokenKind::kFor, TokenKind::kIn,
                       TokenKind::kDo, TokenKind::kWhile, TokenKind::kIf,
                       TokenKind::kElse, TokenKind::kTrue, TokenKind::kFalse,
                       TokenKind::kIdent, TokenKind::kEof}));
}

TEST(Lexer, PrimedIdentifiers) {
  // The paper writes P' and Q' for previous-iteration matrices.
  auto tokens = Tokenize("P' Q'");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "P'");
  EXPECT_EQ((*tokens)[1].text, "Q'");
}

TEST(Lexer, Numbers) {
  auto tokens = Tokenize("42 3.5 1e3 2.5e-2 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kInt);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[1].double_value, 3.5);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kDouble);
  EXPECT_DOUBLE_EQ((*tokens)[2].double_value, 1000);
  EXPECT_DOUBLE_EQ((*tokens)[3].double_value, 0.025);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kInt);
}

TEST(Lexer, Strings) {
  auto tokens = Tokenize(R"("hello" "a\"b" "x\ny")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "hello");
  EXPECT_EQ((*tokens)[1].text, "a\"b");
  EXPECT_EQ((*tokens)[2].text, "x\ny");
}

TEST(Lexer, UnterminatedString) {
  auto tokens = Tokenize("\"oops");
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(Lexer, CompoundOperators) {
  auto kinds = Kinds(":= += -= *= == != <= >= && || < > = ! + - * / %");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{
                       TokenKind::kAssign, TokenKind::kPlusEq,
                       TokenKind::kMinusEq, TokenKind::kStarEq,
                       TokenKind::kEqEq, TokenKind::kNe, TokenKind::kLe,
                       TokenKind::kGe, TokenKind::kAndAnd, TokenKind::kOrOr,
                       TokenKind::kLt, TokenKind::kGt, TokenKind::kEq,
                       TokenKind::kBang, TokenKind::kPlus, TokenKind::kMinus,
                       TokenKind::kStar, TokenKind::kSlash,
                       TokenKind::kPercent, TokenKind::kEof}));
}

TEST(Lexer, Comments) {
  auto kinds = Kinds("a # comment\n b // another\n c");
  EXPECT_EQ(kinds, (std::vector<TokenKind>{TokenKind::kIdent,
                                           TokenKind::kIdent,
                                           TokenKind::kIdent,
                                           TokenKind::kEof}));
}

TEST(Lexer, TracksLocations) {
  auto tokens = Tokenize("a\n  b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].loc.line, 1);
  EXPECT_EQ((*tokens)[0].loc.column, 1);
  EXPECT_EQ((*tokens)[1].loc.line, 2);
  EXPECT_EQ((*tokens)[1].loc.column, 3);
}

TEST(Lexer, RejectsUnknownCharacters) {
  auto tokens = Tokenize("a @ b");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("'@'"), std::string::npos);
}

TEST(Lexer, OutOfRangeLiteralsAreParseErrorsAtTheirLocation) {
  // Each of these used to escape the lexer as std::out_of_range and
  // abort the process.
  const std::pair<const char*, const char*> kCases[] = {
      {"var x: int = 99999999999999999999;",
       "integer literal 99999999999999999999 out of range at line 1, "
       "column 14"},
      {"x := 9223372036854775808", "integer literal 9223372036854775808"},
      {"x := 1.5 +\n  1e999", "double literal 1e999 out of range at line 2, "
                              "column 3"},
      {"x := 1e-400", "double literal 1e-400 out of range at line 1, column 6"},
      {"x := 2e-324", "double literal 2e-324 out of range"},
  };
  for (const auto& [src, message] : kCases) {
    auto tokens = Tokenize(src);
    ASSERT_FALSE(tokens.ok()) << src;
    EXPECT_EQ(tokens.status().code(), StatusCode::kParseError) << src;
    EXPECT_NE(tokens.status().message().find(message), std::string::npos)
        << tokens.status().ToString();
  }
}

TEST(Lexer, LiteralsAtTheRangeEdgesKeepTheirValues) {
  auto tokens = Tokenize(
      "9223372036854775807 1.7976931348623157e308 1e-310 0e-999 0.0e400");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  EXPECT_EQ((*tokens)[0].int_value, std::numeric_limits<int64_t>::max());
  EXPECT_EQ((*tokens)[1].double_value, std::numeric_limits<double>::max());
  // A subnormal value is kept; only a nonzero spelling that rounds to 0
  // is rejected, and an all-zero one is simply 0.
  EXPECT_EQ((*tokens)[2].double_value, 1e-310);
  EXPECT_GT((*tokens)[2].double_value, 0.0);
  EXPECT_EQ((*tokens)[3].double_value, 0.0);
  EXPECT_EQ((*tokens)[4].double_value, 0.0);
}

}  // namespace
}  // namespace diablo::parser
