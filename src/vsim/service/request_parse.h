// Canonical name <-> enum round-trip maps for the request surface:
// QueryKind, QueryStrategy, cover-search mode and ModelType. This is
// the single source of truth shared by the CLI flag parsers
// (tools/vsim_cli.cc), the net/ wire protocol's human-readable side
// (docs/PROTOCOL.md status mapping) and the tests -- before this
// header, each vsim subcommand carried its own if-chain copy of these
// maps and they drifted independently.
//
// Every FlagName function round-trips through its Parse companion
// (request_parse_test.cc sweeps all enumerators), and every Parse
// error message lists the valid spellings, so a typo'd flag or wire
// field produces an actionable kInvalidArgument instead of a silent
// default.
#ifndef VSIM_SERVICE_REQUEST_PARSE_H_
#define VSIM_SERVICE_REQUEST_PARSE_H_

#include <string>

#include "vsim/common/status.h"
#include "vsim/core/query_engine.h"
#include "vsim/core/similarity.h"
#include "vsim/features/cover_sequence.h"
#include "vsim/service/query_service.h"

namespace vsim {

// --- QueryKind: "knn" | "range" | "invariant-knn" | "invariant-range"
// (the same spellings QueryKindName returns).
StatusOr<QueryKind> ParseQueryKind(const std::string& name);
// Space-separated list of valid spellings, for usage strings.
const char* QueryKindNames();

// --- QueryStrategy flag spellings: "filter" | "scan" | "onevector".
// Distinct from QueryStrategyName, which returns the paper-facing
// display names ("vector set + filter").
const char* QueryStrategyFlagName(QueryStrategy strategy);
StatusOr<QueryStrategy> ParseQueryStrategy(const std::string& name);
const char* QueryStrategyNames();

// --- Cover-search mode: "hillclimb" | "exhaustive" | "beam".
const char* CoverSearchFlagName(CoverSequenceOptions::Search search);
StatusOr<CoverSequenceOptions::Search> ParseCoverSearch(
    const std::string& name);
const char* CoverSearchNames();

// --- ModelType: "volume" | "solid-angle" | "cover-sequence" |
// "cover-sequence-permutation" | "vector-set" (the same spellings
// ModelTypeName returns).
StatusOr<ModelType> ParseModelType(const std::string& name);
const char* ModelTypeNames();

// --- QueryOptions (the per-request knob struct declared next to
// ServiceRequest in query_service.h). This is the single validation
// point for the knob surface: QueryService::Validate and the CLI's
// `query` and `classify` commands route through it, so bounds live in
// exactly one place. The wire decoder does not validate: it hands
// decoded options to the service, which does. Checks the knobs relevant
// to `kind` (k >= 1 for k-NN kinds, eps >= 0 for range kinds) plus the
// kind-independent timeout_seconds >= 0; NaN fails both comparisons.
Status ValidateQueryOptions(QueryKind kind, const QueryOptions& options);

}  // namespace vsim

#endif  // VSIM_SERVICE_REQUEST_PARSE_H_
