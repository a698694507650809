// Workload definitions of the end-to-end benchmark.
//
// Key-space and preload sizes are relative to the store's own memory (the
// slab capacity of the arena for the workload's object size), which is the
// cache a key-value user pays for.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dido_store.h"
#include "workload/workload.h"

namespace perfbench {

struct WorkloadDef {
  std::string name;
  dido::WorkloadSpec spec;
  // Key space and preload as multiples of the arena's object capacity.
  double keyspace_over_capacity = 0.5;
  double preload_over_capacity = 0.5;
  // Seed of the simulated phase's traffic.  Fixed per workload so that
  // sim_mops is a pure function of the code; --seed drives the live phase
  // and the traced loop.
  uint64_t sim_seed = 1;
  // Read workloads: every GET must hit and nothing may be evicted.
  bool expect_all_hits = false;
  // GET share of the live phase's traffic when it differs from the
  // workload's (see write_evict); 0 = the workload's own mix.
  int live_get_percent = 0;
};

// The benchmark's workloads (see perfbench/README.md for why each exists).
const std::vector<WorkloadDef>& Workloads();
// Null when `name` is not a workload.
const WorkloadDef* FindWorkload(const std::string& name);

// Sizing shared by the benchmark's stores.
constexpr size_t kArenaBytes = 64ull << 20;
// Queries per ServeBatch call (the simulated phase's fixed batch size).
constexpr uint64_t kServeBatchQueries = 8192;
// Queries ingested per live-pipeline batch.
constexpr uint64_t kLiveBatchQueries = 4096;

// Store options for `def`: arena, index sizing for the object size, defaults
// otherwise (adaptive planner with work stealing).
dido::DidoOptions StoreOptions(const WorkloadDef& def);

struct Sizing {
  uint64_t capacity = 0;   // objects of this size the arena holds
  uint64_t keyspace = 0;   // distinct keys the clients draw from
  uint64_t preload = 0;    // keys 0..preload-1 loaded before traffic
};
Sizing SizeFor(const WorkloadDef& def);

// The traffic mix of the live phase.
dido::WorkloadSpec LiveSpec(const WorkloadDef& def);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
