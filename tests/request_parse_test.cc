// The name <-> enum maps in request_parse.h are shared by the CLI flag
// parsers, the wire protocol's human-readable side and the docs; these
// tests sweep every enumerator through its round trip so adding an enum
// value without its spelling (or vice versa) fails here instead of
// silently parsing to a default somewhere downstream.
#include "vsim/service/request_parse.h"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace vsim {
namespace {

std::vector<std::string> Split(const std::string& spellings) {
  std::istringstream in(spellings);
  std::vector<std::string> out;
  std::string word;
  while (in >> word) out.push_back(word);
  return out;
}

TEST(RequestParseTest, EveryQueryKindRoundTrips) {
  for (QueryKind kind :
       {QueryKind::kKnn, QueryKind::kRange, QueryKind::kInvariantKnn,
        QueryKind::kInvariantRange}) {
    StatusOr<QueryKind> parsed = ParseQueryKind(QueryKindName(kind));
    ASSERT_TRUE(parsed.ok()) << QueryKindName(kind);
    EXPECT_EQ(parsed.value(), kind);
  }
}

TEST(RequestParseTest, EveryQueryStrategyRoundTrips) {
  for (QueryStrategy strategy :
       {QueryStrategy::kVectorSetFilter, QueryStrategy::kVectorSetScan,
        QueryStrategy::kOneVectorXTree}) {
    const char* name = QueryStrategyFlagName(strategy);
    StatusOr<QueryStrategy> parsed = ParseQueryStrategy(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed.value(), strategy);
  }
}

TEST(RequestParseTest, EveryCoverSearchRoundTrips) {
  for (CoverSequenceOptions::Search search :
       {CoverSequenceOptions::Search::kHillClimb,
        CoverSequenceOptions::Search::kExhaustive,
        CoverSequenceOptions::Search::kBeam}) {
    const char* name = CoverSearchFlagName(search);
    StatusOr<CoverSequenceOptions::Search> parsed = ParseCoverSearch(name);
    ASSERT_TRUE(parsed.ok()) << name;
    EXPECT_EQ(parsed.value(), search);
  }
}

TEST(RequestParseTest, EveryModelTypeRoundTrips) {
  for (ModelType model :
       {ModelType::kVolume, ModelType::kSolidAngle,
        ModelType::kCoverSequence, ModelType::kCoverSequencePermutation,
        ModelType::kVectorSet}) {
    StatusOr<ModelType> parsed = ParseModelType(ModelTypeName(model));
    ASSERT_TRUE(parsed.ok()) << ModelTypeName(model);
    EXPECT_EQ(parsed.value(), model);
  }
}

// The *Names() usage strings must list exactly the spellings the
// parsers accept -- they are printed in error messages and --help text.
TEST(RequestParseTest, NameListsMatchTheParsers) {
  for (const std::string& name : Split(QueryKindNames())) {
    EXPECT_TRUE(ParseQueryKind(name).ok()) << name;
  }
  for (const std::string& name : Split(QueryStrategyNames())) {
    EXPECT_TRUE(ParseQueryStrategy(name).ok()) << name;
  }
  for (const std::string& name : Split(CoverSearchNames())) {
    EXPECT_TRUE(ParseCoverSearch(name).ok()) << name;
  }
  for (const std::string& name : Split(ModelTypeNames())) {
    EXPECT_TRUE(ParseModelType(name).ok()) << name;
  }
  EXPECT_EQ(Split(QueryKindNames()).size(),
            static_cast<size_t>(kNumQueryKinds));
  EXPECT_EQ(Split(QueryStrategyNames()).size(),
            static_cast<size_t>(kNumQueryStrategies));
  EXPECT_EQ(Split(CoverSearchNames()).size(), 3u);
  EXPECT_EQ(Split(ModelTypeNames()).size(), 5u);
}

TEST(RequestParseTest, UnknownNamesFailWithValidSpellings) {
  for (const Status& status :
       {ParseQueryKind("nearest").status(),
        ParseQueryStrategy("xtree").status(),
        ParseQueryStrategy("mtree").status(),  // retired
        ParseCoverSearch("greedy").status(),
        ParseModelType("voxel").status()}) {
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    // The error must teach the right spelling, not just reject.
    EXPECT_NE(status.message().find("valid:"), std::string::npos)
        << status.ToString();
  }
}

TEST(RequestParseTest, ValidateQueryOptionsRejectsNegativeAndNan) {
  // Each kind checks its own knobs plus the timeout. NaN compares false
  // with everything, so it must fail the checks, not slip through them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    QueryKind kind;
    int k;
    double eps;
    double timeout;
    bool valid;
  };
  const Case cases[] = {
      {QueryKind::kKnn, 10, 0.0, 0.0, true},
      {QueryKind::kKnn, 0, 0.0, 0.0, false},
      {QueryKind::kKnn, -1, 0.0, 0.0, false},
      {QueryKind::kKnn, 10, nan, 0.0, true},  // eps is not a k-NN knob
      {QueryKind::kKnn, 10, 0.0, -1.0, false},
      {QueryKind::kKnn, 10, 0.0, nan, false},
      {QueryKind::kKnn, 10, 0.0, inf, true},
      {QueryKind::kInvariantKnn, 1, 0.0, 0.0, true},
      {QueryKind::kInvariantKnn, -3, 0.0, 0.0, false},
      {QueryKind::kInvariantKnn, 1, 0.0, nan, false},
      {QueryKind::kRange, 0, 0.0, 0.0, true},  // k is not a range knob
      {QueryKind::kRange, 0, 0.5, inf, true},
      {QueryKind::kRange, 0, -0.5, 0.0, false},
      {QueryKind::kRange, 0, -inf, 0.0, false},
      {QueryKind::kRange, 0, nan, 0.0, false},
      {QueryKind::kRange, 0, 0.5, -1.0, false},
      {QueryKind::kRange, 0, 0.5, nan, false},
      {QueryKind::kInvariantRange, 0, 0.5, 0.0, true},
      {QueryKind::kInvariantRange, 0, -1e-9, 0.0, false},
      {QueryKind::kInvariantRange, 0, nan, 0.0, false},
      {QueryKind::kInvariantRange, 0, 0.5, nan, false},
  };
  for (const Case& c : cases) {
    QueryOptions options;
    options.k = c.k;
    options.eps = c.eps;
    options.timeout_seconds = c.timeout;
    const Status status = ValidateQueryOptions(c.kind, options);
    EXPECT_EQ(status.ok(), c.valid)
        << QueryKindName(c.kind) << " k=" << c.k << " eps=" << c.eps
        << " timeout=" << c.timeout << ": " << status.ToString();
    if (!c.valid) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace vsim
