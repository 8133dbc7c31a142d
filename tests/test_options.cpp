#include "core/options.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/error.h"

namespace sehc {
namespace {

Options parse(std::vector<const char*> argv, std::vector<std::string> known) {
  argv.insert(argv.begin(), "prog");
  return Options(static_cast<int>(argv.size()), argv.data(), std::move(known));
}

TEST(Options, KeyEqualsValue) {
  auto o = parse({"--seed=42"}, {"seed"});
  EXPECT_TRUE(o.has("seed"));
  EXPECT_EQ(o.get_seed("seed", 0), 42u);
}

TEST(Options, KeySpaceValue) {
  auto o = parse({"--iters", "100"}, {"iters"});
  EXPECT_EQ(o.get_int("iters", 0), 100);
}

TEST(Options, BareFlag) {
  auto o = parse({"--verbose"}, {"verbose"});
  EXPECT_TRUE(o.has("verbose"));
  EXPECT_EQ(o.get("verbose", ""), "1");
}

TEST(Options, UnknownKeyThrows) {
  EXPECT_THROW(parse({"--oops=1"}, {"seed"}), Error);
}

TEST(Options, MalformedArgThrows) {
  EXPECT_THROW(parse({"seed=1"}, {"seed"}), Error);
}

TEST(Options, FallbacksWhenAbsent) {
  auto o = parse({}, {"x"});
  EXPECT_FALSE(o.has("x"));
  EXPECT_EQ(o.get("x", "d"), "d");
  EXPECT_DOUBLE_EQ(o.get_double("x", 1.5), 1.5);
  EXPECT_EQ(o.get_int("x", -2), -2);
}

TEST(Options, NonNumericValueThrows) {
  auto o = parse({"--n=abc"}, {"n"});
  EXPECT_THROW(o.get_int("n", 0), Error);
  EXPECT_THROW(o.get_double("n", 0.0), Error);
  // A parsed prefix is not a value: the whole text must be the number.
  o = parse({"--iterations", "10k", "--budget", "1.5s", "--seed", "-1"},
            {"iterations", "budget", "seed"});
  EXPECT_THROW(o.get_int("iterations", 0), UsageError);
  EXPECT_THROW(o.get_double("budget", 0.0), UsageError);
  EXPECT_THROW(o.get_seed("seed", 0), UsageError);
  o = parse({"--seed=+7"}, {"seed"});
  EXPECT_THROW(o.get_seed("seed", 0), UsageError);
}

TEST(ScaleFromEnv, DefaultIsOne) {
  unsetenv("SEHC_SCALE");
  EXPECT_DOUBLE_EQ(scale_from_env(), 1.0);
}

TEST(ScaleFromEnv, ReadsValue) {
  setenv("SEHC_SCALE", "0.25", 1);
  EXPECT_DOUBLE_EQ(scale_from_env(), 0.25);
  unsetenv("SEHC_SCALE");
}

TEST(ScaleFromEnv, RejectsNonPositive) {
  setenv("SEHC_SCALE", "-1", 1);
  EXPECT_THROW(scale_from_env(), Error);
  setenv("SEHC_SCALE", "junk", 1);
  EXPECT_THROW(scale_from_env(), Error);
  setenv("SEHC_SCALE", "0.5x", 1);
  EXPECT_THROW(scale_from_env(), Error);
  unsetenv("SEHC_SCALE");
}

TEST(Scaled, AppliesFactorWithFloor) {
  setenv("SEHC_SCALE", "0.001", 1);
  EXPECT_EQ(scaled(100, 5), 5u);  // 0.1 -> floored to min 5
  unsetenv("SEHC_SCALE");
  EXPECT_EQ(scaled(100, 5), 100u);
}

}  // namespace
}  // namespace sehc
