#include "bdi/text/tokenizer.h"

#include <gtest/gtest.h>

namespace bdi::text {
namespace {

TEST(TokenizerTest, WordTokensLowercaseAndSplit) {
  EXPECT_EQ(WordTokens("Canon EOS-5D Mark IV"),
            (std::vector<std::string>{"canon", "eos", "5d", "mark", "iv"}));
}

TEST(TokenizerTest, WordTokensEmptyAndPunctuation) {
  EXPECT_TRUE(WordTokens("").empty());
  EXPECT_TRUE(WordTokens("-- !! ..").empty());
}

TEST(TokenizerTest, WordTokensKeepDigits) {
  EXPECT_EQ(WordTokens("a1b2"), (std::vector<std::string>{"a1b2"}));
}

TEST(TokenizerTest, TokenSetSortedUnique) {
  EXPECT_EQ(TokenSet("b a b c a"),
            (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TokenizerTest, IdentifierTokensRequireDigitAndLength) {
  std::vector<std::string> ids =
      IdentifierTokens("Canon sku12345 eos 5d mark", 4);
  EXPECT_EQ(ids, (std::vector<std::string>{"sku12345"}));
}

TEST(TokenizerTest, IdentifierTokensMinLen) {
  EXPECT_TRUE(IdentifierTokens("ab1", 4).empty());
  EXPECT_EQ(IdentifierTokens("ab1", 3),
            (std::vector<std::string>{"ab1"}));
}

TEST(TokenizerTest, IdentifierTokensDeduplicated) {
  EXPECT_EQ(IdentifierTokens("x9999 x9999", 4),
            (std::vector<std::string>{"x9999"}));
}

TEST(TokenizerTest, IdentifierTokensRejectPureAlpha) {
  EXPECT_TRUE(IdentifierTokens("alphabet keyboard", 4).empty());
}

}  // namespace
}  // namespace bdi::text
