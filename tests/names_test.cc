// The name vocabularies: methods, distances, notions and measures each have
// one table, and every front end (kanon_cli, kanond, .repro files, the
// benches) parses through it. For every enumerator, parsing its flag name
// must give the enumerator back, and an unknown name must be rejected.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <typeinfo>

#include "kanon/algo/anonymizer.h"
#include "kanon/algo/distance.h"
#include "kanon/anonymity/verify.h"
#include "kanon/loss/measure.h"

namespace kanon {
namespace {

template <typename Enum, size_t N, typename Parse>
void ExpectRoundTrip(const NameRow<Enum> (&rows)[N], Parse parse) {
  std::set<std::string> flags;
  std::set<std::string> displays;
  for (const NameRow<Enum>& row : rows) {
    const Result<Enum> parsed = parse(row.flag);
    ASSERT_TRUE(parsed.ok()) << row.flag;
    EXPECT_EQ(*parsed, row.value) << row.flag;
    EXPECT_TRUE(flags.insert(row.flag).second) << "duplicate " << row.flag;
    EXPECT_TRUE(displays.insert(row.display).second)
        << "duplicate " << row.display;
  }
  EXPECT_FALSE(parse("bogus").ok());
  EXPECT_FALSE(parse("").ok());
}

TEST(NameTableTest, EveryFlagNameParsesToItsValue) {
  ExpectRoundTrip(kMethodNames, ParseMethodName);
  ExpectRoundTrip(kDistanceNames, ParseDistanceName);
  ExpectRoundTrip(kNotionNames, ParseNotionName);

  // The accessors read the same rows.
  EXPECT_EQ(kAllMethods.size(), std::size(kMethodNames));
  for (AnonymizationMethod method : kAllMethods) {
    EXPECT_EQ(*ParseMethodName(MethodFlagName(method)), method);
    EXPECT_EQ(std::string("pipeline/") + AnonymizationMethodName(method),
              NameOf(kMethodNames, method).span);
  }
  for (DistanceFunction distance : kAllDistanceFunctions) {
    EXPECT_EQ(*ParseDistanceName(DistanceFlagName(distance)), distance);
  }

  // Measures have no enum: each built-in measure's name() is its flag.
  std::set<std::string> measure_names;
  for (const std::unique_ptr<LossMeasure>& measure : AllMeasures()) {
    const Result<std::unique_ptr<LossMeasure>> made =
        MakeMeasure(measure->name());
    ASSERT_TRUE(made.ok()) << measure->name();
    EXPECT_EQ(typeid(**made), typeid(*measure)) << measure->name();
    measure_names.insert(measure->name());
  }
  EXPECT_EQ(measure_names, (std::set<std::string>{"EM", "LM", "TM", "SUP"}));
  EXPECT_FALSE(MakeMeasure("bogus").ok());
  EXPECT_FALSE(MakeMeasure("em").ok());
}

}  // namespace
}  // namespace kanon
