#include "sim/latency_model.h"

#include <algorithm>

#include "common/logging.h"

namespace esr {
namespace {

SimTime MsToMicros(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMicrosPerMilli));
}

}  // namespace

LatencyModel::LatencyModel(const LatencyModelOptions& options, uint64_t seed,
                           size_t num_sites)
    : options_(options), rng_(seed) {
  site_rngs_.reserve(num_sites);
  for (size_t i = 0; i < num_sites; ++i) site_rngs_.push_back(rng_.Fork());
}

Rng& LatencyModel::SiteRng(SiteId site) {
  ESR_CHECK(static_cast<size_t>(site) < site_rngs_.size())
      << "no latency stream for site " << site;
  return site_rngs_[site];
}

SimTime LatencyModel::SampleOpRpc() {
  const double ms =
      rng_.UniformDouble(options_.op_rpc_min_ms, options_.op_rpc_max_ms);
  return MsToMicros(ms);
}

SimTime LatencyModel::SampleOpRpc(SiteId site) {
  const double ms = SiteRng(site).UniformDouble(options_.op_rpc_min_ms,
                                                options_.op_rpc_max_ms);
  return MsToMicros(ms);
}

SimTime LatencyModel::SampleControlRpc() {
  // +/- 10% jitter around the null-RPC figure.
  const double ms = options_.null_rpc_ms *
                    rng_.UniformDouble(0.9, 1.1);
  return MsToMicros(ms);
}

SimTime LatencyModel::SampleControlRpc(SiteId site) {
  const double ms =
      options_.null_rpc_ms * SiteRng(site).UniformDouble(0.9, 1.1);
  return MsToMicros(ms);
}

SimTime LatencyModel::WaitRetryDelay() const {
  return MsToMicros(options_.wait_retry_ms);
}

SimTime LatencyModel::RestartDelay() const {
  return MsToMicros(options_.restart_delay_ms);
}

SimTime LatencyModel::ReserveServerCpu(SimTime request_arrival) {
  const SimTime start = std::max(request_arrival, server_busy_until_);
  server_busy_until_ = start + MsToMicros(options_.server_cpu_per_op_ms);
  return server_busy_until_;
}

}  // namespace esr
