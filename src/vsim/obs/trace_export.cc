#include "vsim/obs/trace_export.h"

#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <utility>

namespace vsim::obs {
namespace {

void AppendFormat(std::string* out, const char* format, ...)
    __attribute__((format(printf, 2, 3)));

void AppendFormat(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  const int n = vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  if (n > 0) out->append(buffer, static_cast<size_t>(n) < sizeof(buffer)
                                     ? static_cast<size_t>(n)
                                     : sizeof(buffer) - 1);
}

}  // namespace

std::string RenderChromeTrace(const std::vector<SpanTreeRecord>& trees) {
  // Assign one synthetic tid per distinct trace id, ordered by id so
  // the output is deterministic regardless of snapshot order.
  std::map<std::pair<uint64_t, uint64_t>, int> tids;
  for (const SpanTreeRecord& tree : trees) {
    tids.emplace(std::make_pair(tree.summary.trace_hi, tree.summary.trace_lo),
                 0);
  }
  int next_tid = 1;
  for (auto& entry : tids) entry.second = next_tid++;

  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const auto& entry : tids) {
    if (!first) out += ',';
    first = false;
    AppendFormat(&out,
                 "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                 "\"thread_name\",\"args\":{\"name\":"
                 "\"trace %016" PRIx64 "%016" PRIx64 "\"}}",
                 entry.second, entry.first.first, entry.first.second);
  }
  for (const SpanTreeRecord& tree : trees) {
    const int tid =
        tids.at(std::make_pair(tree.summary.trace_hi, tree.summary.trace_lo));
    const uint32_t count = tree.span_count <= kSpanArenaCapacity
                               ? tree.span_count
                               : static_cast<uint32_t>(kSpanArenaCapacity);
    for (uint32_t i = 0; i < count; ++i) {
      const SpanRecord& span = tree.spans[i];
      const uint64_t end_ns =
          span.end_ns >= span.start_ns ? span.end_ns : span.start_ns;
      if (!first) out += ',';
      first = false;
      // Chrome trace-event timestamps are microseconds (doubles); keep
      // sub-microsecond precision with three decimals.
      AppendFormat(
          &out,
          "{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\","
          "\"ts\":%" PRIu64 ".%03" PRIu64 ",\"dur\":%" PRIu64 ".%03" PRIu64
          ",\"args\":{\"span_id\":\"%016" PRIx64 "\",\"parent_span_id\":"
          "\"%016" PRIx64 "\",\"counter\":%" PRIu64 ",\"query_trace_id\":%" PRIu64
          "}}",
          tid, SpanNameString(static_cast<SpanName>(span.name)),
          span.start_ns / 1000, span.start_ns % 1000,
          (end_ns - span.start_ns) / 1000, (end_ns - span.start_ns) % 1000,
          span.span_id, span.parent_span_id, span.counter,
          tree.summary.trace_id);
    }
  }
  // Trailing newline: the string is written verbatim to export files.
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace vsim::obs
