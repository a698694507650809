#include "checker.h"

#include <cstring>

#include "common/hash.h"
#include "core/dido_store.h"

namespace perfbench {
namespace {

// A source may run ahead of the responses being checked (batches in
// flight, the other phase's client); a version further ahead than this is
// rejected rather than replayed (a corrupted version must not make the
// checker spin).
constexpr uint64_t kMaxReplayAhead = 1ull << 22;

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;  // as in MaterializeValue

uint64_t InverseOf(uint64_t a) {
  uint64_t x = a;  // Newton iteration; correct to 64 bits after 5 steps
  for (int i = 0; i < 5; ++i) x *= 2 - a * x;
  return x;
}

// Inverse of dido::Mix64 (the SplitMix64 finalizer).
uint64_t UnMix64(uint64_t x) {
  static const uint64_t inv1 = InverseOf(0xBF58476D1CE4E5B9ULL);
  static const uint64_t inv2 = InverseOf(0x94D049BB133111EBULL);
  x ^= (x >> 31) ^ (x >> 62);
  x *= inv2;
  x ^= (x >> 27) ^ (x >> 54);
  x *= inv1;
  x ^= (x >> 30) ^ (x >> 60);
  return x;
}

}  // namespace

VersionLog::VersionLog(const dido::WorkloadSpec& spec, uint64_t num_objects,
                       uint64_t seed)
    : twin_(spec, num_objects, seed) {}

void VersionLog::ReplayTo(uint64_t queries) {
  while (replayed_ < queries) {
    const dido::Query q = twin_.Next();
    ++replayed_;
    if (q.op == dido::QueryOp::kSet) key_of_version_.push_back(q.key_index);
  }
}

bool VersionLog::IssuedFor(uint64_t version, uint64_t key_index) {
  if (version == 0) return false;
  if (version > key_of_version_.size()) {
    if (sealed_ || version - key_of_version_.size() > kMaxReplayAhead) {
      return false;
    }
    while (key_of_version_.size() < version) ReplayTo(replayed_ + 1);
  }
  return key_of_version_[version - 1] == key_index;
}

void Tally::Add(const Tally& other) {
  records += other.records;
  gets += other.gets;
  hits += other.hits;
  misses += other.misses;
  sets_stored += other.sets_stored;
  sets_failed += other.sets_failed;
  bad += other.bad;
  if (first_bad.empty()) first_bad = other.first_bad;
}

ResponseChecker::ResponseChecker(const dido::DatasetSpec& dataset,
                                 uint64_t keyspace, uint64_t preloaded)
    : dataset_(dataset),
      keyspace_(keyspace),
      preloaded_(preloaded),
      key_image_(keyspace * dataset.key_size),
      preload_image_(preloaded * dataset.value_size) {
  for (uint64_t k = 0; k < keyspace; ++k) {
    dido::MaterializeKey(k, dataset.key_size,
                         key_image_.data() + k * dataset.key_size);
  }
  for (uint64_t k = 0; k < preloaded; ++k) {
    dido::MaterializeValue(k, dataset.value_size, 0,
                           preload_image_.data() + k * dataset.value_size);
  }
}

void ResponseChecker::Bad(Tally* tally, const std::string& why) {
  tally->bad += 1;
  if (tally->first_bad.empty()) tally->first_bad = why;
}

bool ResponseChecker::ValueWasWritten(uint64_t key_index,
                                      std::string_view value) {
  if (value.size() != dataset_.value_size || value.size() < 8) return false;
  uint64_t pattern = 0;
  std::memcpy(&pattern, value.data(), sizeof(pattern));
  const uint64_t version = UnMix64(pattern) - key_index * kGolden;
  if (version == 0) {  // the preload image
    return key_index < preloaded_ &&
           std::memcmp(preload_image_.data() + key_index * value.size(),
                       value.data(), value.size()) == 0;
  }
  if (version > UINT32_MAX) return false;
  bool written = false;
  for (size_t i = 0; !written && i < logs_.size(); ++i) {
    written = logs_[i]->IssuedFor(version, key_index);
  }
  if (!written) return false;
  // The rest of the value follows the pattern MaterializeValue writes: each
  // 8-byte word is the little-endian pattern, then the pattern is re-mixed.
  // The first word matched by construction (it gave the version).
  size_t i = 8;
  for (; i + 8 <= value.size(); i += 8) {
    pattern = dido::Mix64(pattern);
    uint64_t word = 0;
    std::memcpy(&word, value.data() + i, sizeof(word));
    if (word != pattern) return false;
  }
  if (i < value.size()) {
    pattern = dido::Mix64(pattern);
    for (size_t b = 0; i + b < value.size(); ++b) {
      if (static_cast<uint8_t>(value[i + b]) !=
          static_cast<uint8_t>(pattern >> (b * 8))) {
        return false;
      }
    }
  }
  return true;
}

void ResponseChecker::CheckFrame(const dido::Frame& frame, Tally* tally) {
  using dido::QueryOp;
  using dido::ResponseStatus;
  size_t offset = 0;
  while (offset < frame.payload.size()) {
    dido::ResponseView r;
    if (!dido::DecodeResponse(frame.payload.data(), frame.payload.size(),
                              &offset, &r)
             .ok()) {
      Bad(tally, "undecodable response record");
      return;
    }
    tally->records += 1;
    uint64_t key_index = 0;
    if (r.key.size() == dataset_.key_size) {
      std::memcpy(&key_index, r.key.data(), sizeof(key_index));
    }
    if (r.key.size() != dataset_.key_size || key_index >= keyspace_ ||
        std::memcmp(key_image_.data() + key_index * r.key.size(),
                    r.key.data(), r.key.size()) != 0) {
      Bad(tally, "response carries a key no client sent");
      continue;
    }
    if (r.op == QueryOp::kGet) {
      tally->gets += 1;
      if (r.status == ResponseStatus::kOk) {
        tally->hits += 1;
        if (!ValueWasWritten(key_index, r.value)) {
          Bad(tally, "GET hit returned a value never written for its key (key " +
                         std::to_string(key_index) + ")");
        }
      } else if (r.status == ResponseStatus::kMiss && r.value.empty()) {
        tally->misses += 1;
      } else {
        Bad(tally, "GET answered with status " +
                       std::to_string(static_cast<int>(r.status)));
      }
    } else if (r.op == QueryOp::kSet && r.value.empty() &&
               (r.status == ResponseStatus::kStored ||
                r.status == ResponseStatus::kError)) {
      (r.status == ResponseStatus::kStored ? tally->sets_stored
                                           : tally->sets_failed) += 1;
    } else {
      Bad(tally, "unexpected response op/status " +
                     std::to_string(static_cast<int>(r.op)) + "/" +
                     std::to_string(static_cast<int>(r.status)));
    }
  }
}

std::string CheckBatch(const std::vector<dido::Frame>& frames,
                       uint64_t expected_records, ResponseChecker* checker,
                       Tally* tally) {
  Tally batch;
  for (const dido::Frame& frame : frames) checker->CheckFrame(frame, &batch);
  tally->Add(batch);
  if (batch.bad > 0) return batch.first_bad;
  if (batch.records != expected_records) {
    return "batch answered " + std::to_string(batch.records) + " of " +
           std::to_string(expected_records) + " queries";
  }
  return "";
}

std::string CheckerSelfTest() {
  const dido::WorkloadSpec spec = dido::MakeWorkload(
      dido::DatasetK16(), 50, dido::KeyDistribution::kUniform);
  constexpr uint64_t kKeys = 4096;
  constexpr uint64_t kSeed = 5;
  dido::DidoOptions options;
  options.arena_bytes = 4ull << 20;
  options.expected_key_bytes = spec.dataset.key_size;
  options.expected_value_bytes = spec.dataset.value_size;
  dido::DidoStore store(options);
  store.Preload(spec.dataset, kKeys);
  dido::WorkloadGenerator generator(spec, kKeys, kSeed);
  dido::TrafficSource source(&generator);
  VersionLog log(spec, kKeys, kSeed);
  ResponseChecker checker(spec.dataset, kKeys, kKeys);
  checker.AddLog(&log);

  // Two batches, so that the second one's GETs can hit values SET by the
  // first one as well as the preload image.
  std::vector<dido::Frame> frames;
  uint64_t records = 0;
  uint64_t issued = 0;
  for (int b = 0; b < 2; ++b) {
    frames.clear();
    records = store.ServeBatch(source, 512, &frames).batch_size;
    issued += records;
  }
  log.ReplayTo(issued);
  log.Seal();
  Tally tally;
  const std::string clean = CheckBatch(frames, records, &checker, &tally);
  if (!clean.empty()) return "clean ServeBatch output rejected: " + clean;
  if (tally.hits == 0) return "self-test batch has no GET hit to corrupt";

  // Locate the last GET hit's value bytes and the first record's extent.
  size_t hit_frame = 0;
  size_t hit_value_end = 0;
  size_t first_record_end = 0;
  for (size_t f = 0; f < frames.size(); ++f) {
    size_t offset = 0;
    while (offset < frames[f].payload.size()) {
      dido::ResponseView r;
      if (!dido::DecodeResponse(frames[f].payload.data(),
                                frames[f].payload.size(), &offset, &r)
               .ok()) {
        return "clean output failed to decode";
      }
      if (f == 0 && first_record_end == 0) first_record_end = offset;
      if (r.op == dido::QueryOp::kGet && r.status == dido::ResponseStatus::kOk) {
        hit_frame = f;
        hit_value_end = offset;
      }
    }
  }

  std::vector<dido::Frame> flipped = frames;
  flipped[hit_frame].payload[hit_value_end - 1] ^= 0x01;
  Tally ignored;
  if (CheckBatch(flipped, records, &checker, &ignored).empty()) {
    return "a flipped value byte was accepted";
  }
  std::vector<dido::Frame> dropped = frames;
  std::vector<uint8_t>& payload = dropped[0].payload;
  payload.erase(payload.begin(),
                payload.begin() + static_cast<std::ptrdiff_t>(first_record_end));
  if (CheckBatch(dropped, records, &checker, &ignored).empty()) {
    return "a dropped record was accepted";
  }
  return "";
}

}  // namespace perfbench
