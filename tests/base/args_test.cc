/**
 * @file
 * Unit tests for the command-line argument parser.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "base/args.hh"
#include "base/logging.hh"

namespace {

using lia::ArgParser;

ArgParser
parse(std::initializer_list<const char *> argv)
{
    std::vector<const char *> v(argv);
    return ArgParser(static_cast<int>(v.size()), v.data());
}

TEST(ArgParserTest, KeyValuePairs)
{
    const auto args = parse({"prog", "--system", "SPR-A100",
                             "--batch", "64"});
    EXPECT_EQ(args.getString("system", ""), "SPR-A100");
    EXPECT_EQ(args.getInt("batch", 0), 64);
    EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParserTest, EqualsSyntax)
{
    const auto args = parse({"prog", "--model=OPT-30B", "--slo=2.5"});
    EXPECT_EQ(args.getString("model", ""), "OPT-30B");
    EXPECT_DOUBLE_EQ(args.getDouble("slo", 0), 2.5);
}

TEST(ArgParserTest, BareFlags)
{
    const auto args = parse({"prog", "--verbose", "--cxl"});
    EXPECT_TRUE(args.has("verbose"));
    EXPECT_TRUE(args.has("cxl"));
    EXPECT_FALSE(args.has("quiet"));
}

TEST(ArgParserTest, FlagFollowedByOption)
{
    const auto args = parse({"prog", "--dry-run", "--batch", "8"});
    EXPECT_TRUE(args.has("dry-run"));
    EXPECT_EQ(args.getString("dry-run", "x"), "");
    EXPECT_EQ(args.getInt("batch", 0), 8);
}

TEST(ArgParserTest, PositionalArguments)
{
    const auto args = parse({"prog", "plan", "--lin", "128", "extra"});
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "plan");
    EXPECT_EQ(args.positional()[1], "extra");
}

TEST(ArgParserTest, FallbacksWhenAbsent)
{
    const auto args = parse({"prog"});
    EXPECT_EQ(args.getString("missing", "dflt"), "dflt");
    EXPECT_EQ(args.getInt("missing", 42), 42);
    EXPECT_DOUBLE_EQ(args.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(args.positional().empty());
}

TEST(ArgParserTest, LastOccurrenceWins)
{
    const auto args = parse({"prog", "--b", "1", "--b", "2"});
    EXPECT_EQ(args.getInt("b", 0), 2);
}

/** The LIA_FATAL message getInt/getDouble raise, or "" if none. */
template <typename Get>
std::string
fatalMessage(const Get &get)
{
    lia::detail::setThrowOnError(true);
    std::string message;
    try {
        get();
    } catch (const std::runtime_error &error) {
        message = error.what();
    }
    lia::detail::setThrowOnError(false);
    return message;
}

TEST(ArgParserTest, NonNumericIntegerIsFatalAndNamesTheOption)
{
    const auto args = parse({"prog", "--requests=abc"});
    const std::string message =
        fatalMessage([&] { return args.getInt("requests", 7); });
    EXPECT_NE(message.find("--requests"), std::string::npos) << message;
    EXPECT_NE(message.find("\"abc\""), std::string::npos) << message;
}

TEST(ArgParserTest, PartlyNumericValuesAreFatal)
{
    const auto args = parse({"prog", "--batch", "8x", "--lin=1.5",
                             "--rate", "2.5/s", "--big",
                             "99999999999999999999", "--pad", " 4"});
    EXPECT_NE(fatalMessage([&] { return args.getInt("batch", 0); }), "");
    EXPECT_NE(fatalMessage([&] { return args.getInt("lin", 0); }), "");
    EXPECT_NE(fatalMessage([&] { return args.getDouble("rate", 0); }),
              "");
    EXPECT_NE(fatalMessage([&] { return args.getInt("big", 0); }), "");
    EXPECT_NE(fatalMessage([&] { return args.getInt("pad", 0); }), "");
}

TEST(ArgParserTest, WhollyNumericValuesParse)
{
    const auto args = parse({"prog", "--seed=-3", "--rate", "1e3",
                             "--slo", "-0.25", "--n", "+12"});
    EXPECT_EQ(args.getInt("seed", 0), -3);
    EXPECT_DOUBLE_EQ(args.getDouble("rate", 0), 1000.0);
    EXPECT_DOUBLE_EQ(args.getDouble("slo", 0), -0.25);
    EXPECT_EQ(args.getInt("n", 0), 12);
    // A number-valued option read as a double stays a double.
    EXPECT_DOUBLE_EQ(args.getDouble("seed", 0), -3.0);
}

TEST(ArgParserTest, PositionalNumbersParseOrFallBack)
{
    const auto args = parse({"prog", "64", "--seed", "3", "-2.5", "+7"});
    EXPECT_EQ(args.positionalNumber<std::int64_t>(0, "batch", 1), 64);
    EXPECT_DOUBLE_EQ(args.positionalNumber(1, "slo", 0.0), -2.5);
    EXPECT_EQ(args.positionalNumber<std::int64_t>(2, "l_out", 0), 7);
    // Absent positions take the fallback; options never count.
    EXPECT_EQ(args.positionalNumber<std::int64_t>(3, "seed", 11), 11);
    EXPECT_DOUBLE_EQ(args.positionalNumber(9, "rate", 1.5), 1.5);
    // An integer argument read as a double stays exact.
    EXPECT_DOUBLE_EQ(args.positionalNumber(0, "batch", 0.0), 64.0);
}

using ArgParserDeathTest = ::testing::Test;

TEST(ArgParserDeathTest, MalformedPositionalExitsTwoNamingTheArgument)
{
    const char *argv[] = {"prog", "256", "abc"};
    const ArgParser args(3, argv, "[l_in] [l_out]");
    EXPECT_EXIT(args.positionalNumber<std::int64_t>(1, "l_out", 32),
                ::testing::ExitedWithCode(2),
                "prog: argument l_out wants an integer, got \"abc\"\n"
                "usage: prog \\[l_in\\] \\[l_out\\]");
}

TEST(ArgParserDeathTest, PartlyNumericPositionalsExitTwo)
{
    const char *argv[] = {"prog", "8x", "1.5", "2.5/s", " 4",
                          "99999999999999999999", ""};
    const ArgParser args(7, argv, "[a] [b] [c] [d] [e] [f]");
    const auto exits = ::testing::ExitedWithCode(2);
    EXPECT_EXIT(args.positionalNumber<std::int64_t>(0, "a", 0), exits,
                "argument a wants an integer");
    EXPECT_EXIT(args.positionalNumber<std::int64_t>(1, "b", 0), exits,
                "argument b wants an integer");
    EXPECT_EXIT(args.positionalNumber(2, "c", 0.0), exits,
                "argument c wants a number");
    EXPECT_EXIT(args.positionalNumber<std::int64_t>(3, "d", 0), exits,
                "argument d");
    EXPECT_EXIT(args.positionalNumber<std::int64_t>(4, "e", 0), exits,
                "argument e");
    EXPECT_EXIT(args.positionalNumber(5, "f", 0.0), exits, "argument f");
}

} // namespace
