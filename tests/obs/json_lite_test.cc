#include "obs/json_lite.h"

#include <string>

#include <gtest/gtest.h>

namespace fairclean {
namespace obs {
namespace {

TEST(JsonLiteTest, QuoteWrapsTheEscapedText) {
  EXPECT_EQ(JsonQuote(""), "\"\"");
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c\n\t\x01"), "\"a\\\"b\\\\c\\n\\t\\u0001\"");
  const std::string mixed = "cell \"x\"\\\r\b\f\x1f end";
  std::string expected = "\"";
  expected += JsonEscape(mixed);
  expected += '"';
  EXPECT_EQ(JsonQuote(mixed), expected);
}

TEST(JsonLiteTest, QuotedTextParsesBackUnchanged) {
  std::string text = "q\" b\\ ";
  for (char c = 1; c < 0x20; ++c) text += c;
  text += "tail";
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::Parse(JsonQuote(text), &value, &error)) << error;
  ASSERT_TRUE(value.is_string());
  EXPECT_EQ(value.string_value, text);
}

}  // namespace
}  // namespace obs
}  // namespace fairclean
