#include "src/common/failure_ladder.hpp"

#include <array>
#include <atomic>
#include <string>

#include "src/obs/metrics.hpp"

namespace moheco::fail {
namespace {

std::array<std::atomic<std::uint64_t>, kNumLadderStages>& counters() {
  static std::array<std::atomic<std::uint64_t>, kNumLadderStages> c{};
  return c;
}

constexpr const char* kStageNames[kNumLadderStages] = {
    "sparse_to_dense",
    "sample_infeasible",
    "warm_blob_rejected",
};

}  // namespace

const char* ladder_name(Ladder stage) {
  return kStageNames[static_cast<int>(stage)];
}

void ladder_count(Ladder stage) {
  counters()[static_cast<int>(stage)].fetch_add(1, std::memory_order_relaxed);
  // Mirror each rung into the metrics registry ("fail.<rung>"); the local
  // array above stays authoritative for ladder_snapshot()/ladder_delta().
  static obs::Counter* rungs[kNumLadderStages] = {
      &obs::registry().counter(std::string("fail.") + kStageNames[0]),
      &obs::registry().counter(std::string("fail.") + kStageNames[1]),
      &obs::registry().counter(std::string("fail.") + kStageNames[2]),
  };
  rungs[static_cast<int>(stage)]->add(1);
}

std::uint64_t ladder_total(Ladder stage) {
  return counters()[static_cast<int>(stage)].load(std::memory_order_relaxed);
}

LadderSnapshot ladder_snapshot() {
  LadderSnapshot snap;
  for (int i = 0; i < kNumLadderStages; ++i) {
    snap.counts[i] = counters()[i].load(std::memory_order_relaxed);
  }
  return snap;
}

LadderSnapshot ladder_delta(const LadderSnapshot& before,
                            const LadderSnapshot& after) {
  LadderSnapshot delta;
  for (int i = 0; i < kNumLadderStages; ++i) {
    delta.counts[i] = after.counts[i] - before.counts[i];
  }
  return delta;
}

}  // namespace moheco::fail
