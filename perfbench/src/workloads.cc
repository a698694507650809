#include "workloads.h"

#include "core/system_runner.h"

namespace perfbench {

const std::vector<WorkloadDef>& Workloads() {
  using dido::KeyDistribution;
  static const std::vector<WorkloadDef> defs = [] {
    std::vector<WorkloadDef> d;
    // The paper's canonical read-heavy, Zipf-skewed point: the read path
    // (PP, IN.S, KC, WR) does the work and the skew estimator is active.
    // Half the arena's capacity, fully preloaded: every GET hits and the
    // 5% SETs always find free chunks, so nothing is evicted.
    d.push_back({"read_skew",
                 dido::MakeWorkload(dido::DatasetK16(), 95,
                                    KeyDistribution::kZipf),
                 0.5, 0.5, 11, true});
    // A cache larger than memory: twice as many keys as the arena holds,
    // half the queries SETs, so MM eviction, epoch reclamation and
    // IN.I/IN.D do the work on the simulated clock.  The live phase sends
    // only the GET half: with batches in flight on other stage threads,
    // KvRuntime's AllocateWithEviction gives up on a few SETs per run, a
    // different number each run, while the failed share of the attempted
    // operations must be the same in every run to compare runs.
    d.push_back({"write_evict",
                 dido::MakeWorkload(dido::DatasetK32(), 50,
                                    KeyDistribution::kUniform),
                 2.0, 1.0, 12, false, 100});
    // Large values: WR's value copy dominates, MM and the index updates sit
    // idle.  The no-change control for write- and skew-path changes.
    d.push_back({"read_large",
                 dido::MakeWorkload(dido::DatasetK128(), 100,
                                    KeyDistribution::kUniform),
                 0.5, 0.5, 13, true});
    return d;
  }();
  return defs;
}

const WorkloadDef* FindWorkload(const std::string& name) {
  for (const WorkloadDef& def : Workloads()) {
    if (def.name == name) return &def;
  }
  return nullptr;
}

dido::DidoOptions StoreOptions(const WorkloadDef& def) {
  dido::DidoOptions options;
  options.arena_bytes = kArenaBytes;
  options.expected_key_bytes = def.spec.dataset.key_size;
  options.expected_value_bytes = def.spec.dataset.value_size;
  return options;
}

Sizing SizeFor(const WorkloadDef& def) {
  Sizing s;
  s.capacity = dido::PreloadTarget(def.spec.dataset, kArenaBytes, 1.0);
  s.keyspace = static_cast<uint64_t>(static_cast<double>(s.capacity) *
                                     def.keyspace_over_capacity);
  s.preload = static_cast<uint64_t>(static_cast<double>(s.capacity) *
                                    def.preload_over_capacity);
  return s;
}

dido::WorkloadSpec LiveSpec(const WorkloadDef& def) {
  if (def.live_get_percent == 0) return def.spec;
  return dido::MakeWorkload(def.spec.dataset, def.live_get_percent,
                            def.spec.distribution);
}

}  // namespace perfbench
