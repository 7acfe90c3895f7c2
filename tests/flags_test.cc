#include "util/flags.h"

#include <gtest/gtest.h>

#include <vector>

namespace granulock {
namespace {

// Builds an argv-style array from string literals (argv[0] is the program).
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    storage_.insert(storage_.begin(), "prog");
    for (auto& s : storage_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> ptrs_;
};

TEST(FlagParserTest, DefaultsAreAppliedImmediately) {
  FlagParser parser;
  int64_t n = 0;
  double d = 0.0;
  bool b = true;
  std::string s;
  parser.AddInt64("n", &n, 42, "an int");
  parser.AddDouble("d", &d, 1.5, "a double");
  parser.AddBool("b", &b, false, "a bool");
  parser.AddString("s", &s, "hello", "a string");
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(d, 1.5);
  EXPECT_FALSE(b);
  EXPECT_EQ(s, "hello");
}

TEST(FlagParserTest, ParsesEqualsSyntax) {
  FlagParser parser;
  int64_t n = 0;
  double d = 0.0;
  parser.AddInt64("n", &n, 1, "");
  parser.AddDouble("d", &d, 0.0, "");
  ArgvBuilder args({"--n=99", "--d=2.25"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(n, 99);
  EXPECT_DOUBLE_EQ(d, 2.25);
}

TEST(FlagParserTest, ParsesSpaceSyntax) {
  FlagParser parser;
  int64_t n = 0;
  parser.AddInt64("n", &n, 1, "");
  ArgvBuilder args({"--n", "7"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(n, 7);
}

TEST(FlagParserTest, BareBooleanSetsTrue) {
  FlagParser parser;
  bool b = false;
  parser.AddBool("verbose", &b, false, "");
  ArgvBuilder args({"--verbose"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(b);
}

TEST(FlagParserTest, BooleanExplicitFalse) {
  FlagParser parser;
  bool b = true;
  parser.AddBool("verbose", &b, true, "");
  ArgvBuilder args({"--verbose=false"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_FALSE(b);
}

TEST(FlagParserTest, UnknownFlagIsError) {
  FlagParser parser;
  ArgvBuilder args({"--nope=1"});
  Status st = parser.Parse(args.argc(), args.argv());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, BadIntegerIsError) {
  FlagParser parser;
  int64_t n = 0;
  parser.AddInt64("n", &n, 1, "");
  ArgvBuilder args({"--n=abc"});
  EXPECT_EQ(parser.Parse(args.argc(), args.argv()).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, PositionalArgumentsCollected) {
  FlagParser parser;
  int64_t n = 0;
  parser.AddInt64("n", &n, 1, "");
  ArgvBuilder args({"pos1", "--n=2", "pos2"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.positional(),
            (std::vector<std::string>{"pos1", "pos2"}));
}

TEST(FlagParserTest, UsageStringMentionsFlagsAndDefaults) {
  FlagParser parser;
  int64_t n = 0;
  parser.AddInt64("ltot", &n, 100, "number of locks");
  const std::string usage = parser.UsageString("bench");
  EXPECT_NE(usage.find("ltot"), std::string::npos);
  EXPECT_NE(usage.find("number of locks"), std::string::npos);
  EXPECT_NE(usage.find("100"), std::string::npos);
}

TEST(FlagParserTest, StringFlagWithSpaces) {
  FlagParser parser;
  std::string s;
  parser.AddString("name", &s, "", "");
  ArgvBuilder args({"--name=two words"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(s, "two words");
}

TEST(FlagParserTest, MissingValueAtEndOfArgvIsActionableError) {
  FlagParser parser;
  int64_t n = 0;
  parser.AddInt64("n", &n, 1, "");
  ArgvBuilder args({"--n"});
  const Status st = parser.Parse(args.argc(), args.argv());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  // The message must show both accepted spellings, not just say "error".
  EXPECT_NE(st.ToString().find("--n=VALUE"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.ToString().find("--n VALUE"), std::string::npos)
      << st.ToString();
}

TEST(FlagParserTest, MissingValueBeforeAnotherFlagIsError) {
  FlagParser parser;
  int64_t n = 0;
  bool v = false;
  parser.AddInt64("n", &n, 1, "");
  parser.AddBool("verbose", &v, false, "");
  ArgvBuilder args({"--n", "--verbose"});
  EXPECT_EQ(parser.Parse(args.argc(), args.argv()).code(),
            StatusCode::kInvalidArgument);
}

TEST(FlagParserTest, BadDoubleAndBoolNameTheFlagAndValue) {
  FlagParser parser;
  double d = 0.0;
  bool b = false;
  parser.AddDouble("d", &d, 0.0, "");
  parser.AddBool("b", &b, false, "");
  {
    ArgvBuilder args({"--d=not_a_number"});
    const Status st = parser.Parse(args.argc(), args.argv());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("--d"), std::string::npos);
    EXPECT_NE(st.ToString().find("not_a_number"), std::string::npos);
  }
  // strtod accepts these, but no flag means "not a number" or "forever".
  for (const char* value : {"nan", "inf", "-inf"}) {
    ArgvBuilder args({std::string("--d=") + value});
    const Status st = parser.Parse(args.argc(), args.argv());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << value;
    EXPECT_NE(st.ToString().find("--d"), std::string::npos) << value;
    EXPECT_NE(st.ToString().find(value), std::string::npos) << value;
  }
  {
    ArgvBuilder args({"--b=maybe"});
    const Status st = parser.Parse(args.argc(), args.argv());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(st.ToString().find("true/false"), std::string::npos);
  }
}

TEST(FlagParserDeathTest, DuplicateRegistrationIsFatal) {
  FlagParser parser;
  int64_t a = 0;
  int64_t b = 0;
  parser.AddInt64("n", &a, 1, "");
  EXPECT_DEATH(parser.AddInt64("n", &b, 2, ""),
               "duplicate flag registration: --n");
}

}  // namespace
}  // namespace granulock
