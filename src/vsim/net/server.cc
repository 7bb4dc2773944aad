#include "vsim/net/server.h"

#include <string>
#include <utility>
#include <vector>

#include "vsim/net/reactor.h"
#include "vsim/net/socket_util.h"
#include "vsim/obs/profiler.h"

namespace vsim::net {

StatsResponse BuildStatsResponse(QueryService* service,
                                 const StatsRequest& request) {
  StatsResponse stats;
  stats.metrics_text = service->metrics().TextExposition();
  // One ring, recent or slow, feeds both lists: the traces are the
  // summaries of its service records (a net-layer tree's summary holds
  // only its trace id).
  if (request.max_traces > 0 || request.include_spans) {
    std::vector<obs::SpanTreeRecord> records =
        service->span_ring().Snapshot(kMaxWireSpanTrees, request.slow_only);
    for (const obs::SpanTreeRecord& record : records) {
      if (stats.traces.size() == request.max_traces) break;
      if (record.summary.trace_id != 0) stats.traces.push_back(record.summary);
    }
    if (request.include_spans) stats.span_trees = std::move(records);
  }
  switch (request.profile_op) {
    case kProfileArm:
      obs::Profiler::Instance().Arm(static_cast<int>(request.profile_hz));
      break;
    case kProfileDisarm:
      obs::Profiler::Instance().Disarm();
      break;
    case kProfileCollect:
      stats.profile_text = obs::Profiler::Instance().CollapsedStacks();
      break;
    default:
      break;
  }
  return stats;
}

ServerInfo MakeServerInfo(const DbSnapshot& snapshot) {
  const ExtractionOptions& opts = snapshot.db().options();
  ServerInfo info;
  info.generation = snapshot.generation();
  info.object_count = snapshot.db().size();
  info.num_covers = opts.num_covers;
  info.cover_resolution = opts.cover_resolution;
  info.histogram_cells = opts.histogram_cells;
  info.histogram_resolution = opts.histogram_resolution;
  info.extract_histograms = opts.extract_histograms;
  info.anisotropic_fit = opts.anisotropic_fit;
  info.cover_search = opts.cover_search;
  info.feature_flags = kFeatureStats;
  return info;
}

Server::Server(QueryService* service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
  stats_collector_id_ = service_->metrics().RegisterCollector(
      [this](std::vector<obs::MetricSample>* out) {
        auto add = [out](const char* name, const char* help, double value) {
          obs::MetricSample s;
          s.name = name;
          s.help = help;
          s.value = value;
          out->push_back(std::move(s));
        };
        auto count = [](const std::atomic<uint64_t>& value) {
          return static_cast<double>(
              value.load(std::memory_order_relaxed));
        };
        add("vsim_net_connections_accepted_total",
            "TCP connections accepted", count(counters_.connections_accepted));
        add("vsim_net_connections_rejected_total",
            "TCP connections rejected over the connection limit",
            count(counters_.connections_rejected));
        add("vsim_net_requests_received_total",
            "Query request frames read off the wire",
            count(counters_.requests_received));
        add("vsim_net_responses_sent_total",
            "Completions written to the wire (incl. status frames)",
            count(counters_.responses_sent));
        add("vsim_net_protocol_errors_total",
            "Malformed frames or payloads received from peers",
            count(counters_.protocol_errors));
        {
          obs::MetricSample s;
          s.name = "vsim_net_open_connections";
          s.help = "Connections currently accepted and not yet closed";
          s.type = obs::MetricSample::Type::kGauge;
          s.value = count(counters_.open_connections);
          out->push_back(std::move(s));
        }
        add("vsim_net_reactor_loop_iterations_total",
            "epoll_wait returns across all reactor event loops",
            count(counters_.reactor_loop_iterations));
        add("vsim_net_coalesced_writes_total",
            "Reactor write flushes that merged two or more completed "
            "responses into one send",
            count(counters_.coalesced_writes));
        add("vsim_net_read_stall_seconds_total",
            "Cumulative time reactor connections spent with reads paused "
            "by pipeline backpressure",
            count(counters_.read_stall_micros) * 1e-6);
      });
}

Server::~Server() {
  Stop();
  service_->metrics().UnregisterCollector(stats_collector_id_);
}

Status Server::Start() {
  {
    MutexLock lock(&mu_);
    if (started_) {
      return Status::FailedPrecondition("server already started");
    }
    started_ = true;
  }
  StatusOr<ScopedFd> listen = ListenTcp(options_.host, options_.port);
  VSIM_RETURN_NOT_OK(listen.status());
  StatusOr<int> port = LocalPort(listen->get());
  VSIM_RETURN_NOT_OK(port.status());
  port_.store(port.value(), std::memory_order_release);
  reactor_ = std::make_unique<EpollReactor>(service_, options_, &counters_);
  Status started = reactor_->Start(std::move(listen).value());
  if (!started.ok()) reactor_.reset();
  return started;
}

void Server::Stop() {
  {
    MutexLock lock(&mu_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  if (reactor_ != nullptr) reactor_->Stop();
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  s.connections_rejected =
      counters_.connections_rejected.load(std::memory_order_relaxed);
  s.requests_received =
      counters_.requests_received.load(std::memory_order_relaxed);
  s.responses_sent =
      counters_.responses_sent.load(std::memory_order_relaxed);
  s.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  s.open_connections =
      counters_.open_connections.load(std::memory_order_relaxed);
  s.reactor_loop_iterations =
      counters_.reactor_loop_iterations.load(std::memory_order_relaxed);
  s.coalesced_writes =
      counters_.coalesced_writes.load(std::memory_order_relaxed);
  s.read_stall_seconds =
      static_cast<double>(
          counters_.read_stall_micros.load(std::memory_order_relaxed)) *
      1e-6;
  return s;
}

}  // namespace vsim::net
