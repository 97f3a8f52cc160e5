#include "dsms/stream_manager.h"

namespace dkf {

namespace {

ShardedStreamEngineOptions OneShard(const StreamManagerOptions& options) {
  ShardedStreamEngineOptions engine;
  engine.num_shards = 1;
  engine.energy = options.energy;
  engine.channel = options.channel;
  engine.default_delta = options.default_delta;
  engine.protocol = options.protocol;
  engine.serve = options.serve;
  return engine;
}

}  // namespace

StreamManager::StreamManager(const StreamManagerOptions& options)
    : engine_(OneShard(options), /*force_per_source_rng=*/false) {}

std::vector<TraceEvent> StreamManager::Trace() const {
  const TraceSink* sink = trace_sink();
  if (sink == nullptr) return {};
  return sink->Events();
}

}  // namespace dkf
