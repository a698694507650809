// Output checker of the end-to-end benchmark.
//
// Every response record is checked against a reference the benchmark
// computes itself: keys must be canonical workload keys, and every GET hit
// must return, byte for byte, a value that was written for that same key —
// the preload image (version 0) or a SET some client source issued.  Which
// key each SET version belongs to is recovered by replaying the source's
// generator (the generator is deterministic and TrafficSource numbers SET
// versions in stream order), and the version of a returned value is read
// back from its first eight bytes by inverting the value pattern's mixer.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/codec.h"
#include "net/sim_nic.h"
#include "workload/workload.h"

namespace perfbench {

// The SET versions one TrafficSource issued, recovered by replaying a twin
// of its generator.  Not thread-safe: one thread extends and reads it.
class VersionLog {
 public:
  VersionLog(const dido::WorkloadSpec& spec, uint64_t num_objects,
             uint64_t seed);

  // Replays the twin until `queries` queries have been drawn in total.
  void ReplayTo(uint64_t queries);
  // Stops lazy extension: only versions replayed so far are known.
  void Seal() { sealed_ = true; }

  // True when SET version `version` of this source was issued for
  // `key_index`.  Unsealed logs replay ahead on demand, a bounded distance.
  bool IssuedFor(uint64_t version, uint64_t key_index);

 private:
  dido::WorkloadGenerator twin_;
  uint64_t replayed_ = 0;
  bool sealed_ = false;
  std::vector<uint64_t> key_of_version_;  // [v - 1] = key of version v
};

// Counts of one response stream.
struct Tally {
  uint64_t records = 0;
  uint64_t gets = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t sets_stored = 0;
  uint64_t sets_failed = 0;  // SETs answered kError
  uint64_t bad = 0;          // records that fail a check
  std::string first_bad;

  void Add(const Tally& other);
};

// Checks decoded responses against the preload image and the SET logs.
class ResponseChecker {
 public:
  // Keys 0..preloaded-1 were preloaded with version 0 of their value.
  ResponseChecker(const dido::DatasetSpec& dataset, uint64_t keyspace,
                  uint64_t preloaded);

  // Logs are checked in order; the checker does not own them.
  void AddLog(VersionLog* log) { logs_.push_back(log); }

  // Decodes and checks every record of `frame` into `tally`.
  void CheckFrame(const dido::Frame& frame, Tally* tally);

 private:
  // True when `value` is a value written for key `key_index`.
  bool ValueWasWritten(uint64_t key_index, std::string_view value);
  void Bad(Tally* tally, const std::string& why);

  dido::DatasetSpec dataset_;
  uint64_t keyspace_;
  uint64_t preloaded_;
  // Every key and the preload image, materialized once: a memcmp keeps the
  // live drain ahead of the pipeline on large keys and values.
  std::vector<uint8_t> key_image_;
  std::vector<uint8_t> preload_image_;
  std::vector<VersionLog*> logs_;
};

// Checks one batch's response frames: every record must pass and there must
// be exactly `expected_records` of them.  Counts go into `tally`; returns an
// empty string or the reason the batch was rejected.
std::string CheckBatch(const std::vector<dido::Frame>& frames,
                       uint64_t expected_records, ResponseChecker* checker,
                       Tally* tally);

// Runs the checker against real ServeBatch output and against copies of it
// with one flipped value byte and with one dropped record; returns an empty
// string when the checker accepts the first and rejects both others.
std::string CheckerSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
