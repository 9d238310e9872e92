#include "src/common/failure_ladder.hpp"

#include <string>

#include "src/obs/metrics.hpp"

namespace moheco::fail {
namespace {

constexpr const char* kStageNames[kNumLadderStages] = {
    "sparse_to_dense",
    "sample_infeasible",
};

/// The registry's "fail.<rung>" counters: the ladder's only store.
obs::Counter& rung(int stage) {
  static obs::Counter* rungs[kNumLadderStages] = {
      &obs::registry().counter(std::string("fail.") + kStageNames[0]),
      &obs::registry().counter(std::string("fail.") + kStageNames[1]),
  };
  return *rungs[stage];
}

}  // namespace

const char* ladder_name(Ladder stage) {
  return kStageNames[static_cast<int>(stage)];
}

void ladder_count(Ladder stage) { rung(static_cast<int>(stage)).add(1); }

LadderSnapshot ladder_snapshot() {
  LadderSnapshot snap;
  for (int i = 0; i < kNumLadderStages; ++i) snap.counts[i] = rung(i).value();
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
