#include "vsim/service/request_parse.h"

#include <string>

namespace vsim {

namespace {

// Shared error shape: "unknown <what> '<name>' (valid: a b c)".
Status UnknownName(const char* what, const std::string& name,
                   const char* valid) {
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 name + "' (valid: " + valid + ")");
}

}  // namespace

StatusOr<QueryKind> ParseQueryKind(const std::string& name) {
  for (QueryKind kind : {QueryKind::kKnn, QueryKind::kRange,
                         QueryKind::kInvariantKnn,
                         QueryKind::kInvariantRange}) {
    if (name == QueryKindName(kind)) return kind;
  }
  return UnknownName("query kind", name, QueryKindNames());
}

const char* QueryKindNames() {
  return "knn range invariant-knn invariant-range";
}

const char* QueryStrategyFlagName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kOneVectorXTree:
      return "onevector";
    case QueryStrategy::kVectorSetFilter:
      return "filter";
    case QueryStrategy::kVectorSetScan:
      return "scan";
  }
  return "unknown";
}

StatusOr<QueryStrategy> ParseQueryStrategy(const std::string& name) {
  for (QueryStrategy strategy :
       {QueryStrategy::kOneVectorXTree, QueryStrategy::kVectorSetFilter,
        QueryStrategy::kVectorSetScan}) {
    if (name == QueryStrategyFlagName(strategy)) return strategy;
  }
  return UnknownName("strategy", name, QueryStrategyNames());
}

const char* QueryStrategyNames() {
  return "filter scan onevector";
}

const char* CoverSearchFlagName(CoverSequenceOptions::Search search) {
  switch (search) {
    case CoverSequenceOptions::Search::kHillClimb:
      return "hillclimb";
    case CoverSequenceOptions::Search::kExhaustive:
      return "exhaustive";
    case CoverSequenceOptions::Search::kBeam:
      return "beam";
  }
  return "unknown";
}

StatusOr<CoverSequenceOptions::Search> ParseCoverSearch(
    const std::string& name) {
  for (CoverSequenceOptions::Search search :
       {CoverSequenceOptions::Search::kHillClimb,
        CoverSequenceOptions::Search::kExhaustive,
        CoverSequenceOptions::Search::kBeam}) {
    if (name == CoverSearchFlagName(search)) return search;
  }
  return UnknownName("cover search", name, CoverSearchNames());
}

const char* CoverSearchNames() { return "hillclimb exhaustive beam"; }

StatusOr<ModelType> ParseModelType(const std::string& name) {
  for (ModelType model :
       {ModelType::kVolume, ModelType::kSolidAngle, ModelType::kCoverSequence,
        ModelType::kCoverSequencePermutation, ModelType::kVectorSet}) {
    if (name == ModelTypeName(model)) return model;
  }
  return UnknownName("model", name, ModelTypeNames());
}

const char* ModelTypeNames() {
  return "volume solid-angle cover-sequence cover-sequence-permutation "
         "vector-set";
}

Status ValidateQueryOptions(QueryKind kind, const QueryOptions& options) {
  const bool is_knn =
      kind == QueryKind::kKnn || kind == QueryKind::kInvariantKnn;
  if (is_knn && options.k < 1) {
    return Status::InvalidArgument("k must be >= 1");
  }
  // Written as !(x >= 0) so that NaN, which compares false with
  // everything, is rejected too.
  if (!is_knn && !(options.eps >= 0.0)) {
    return Status::InvalidArgument("eps must be >= 0");
  }
  if (!(options.timeout_seconds >= 0.0)) {
    return Status::InvalidArgument("timeout_seconds must be >= 0");
  }
  return Status::OK();
}

}  // namespace vsim
