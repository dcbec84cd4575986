// Control-plane / data-plane classification (§3.1.1).
//
// Implements the operational rule of [Altekar & Stoica, HotDep'10] that the
// paper's code-based RCSE relies on: data-plane code operates at high data
// rates, control-plane code at low rates. The profiler attributes every
// event's payload bytes to the code region it occurred in; the classifier
// marks regions whose byte rate exceeds a (relative) threshold as data
// plane and everything else as control plane.

#ifndef SRC_ANALYSIS_PLANE_CLASSIFIER_H_
#define SRC_ANALYSIS_PLANE_CLASSIFIER_H_

#include <map>
#include <string>
#include <vector>

#include "src/sim/event.h"

namespace ddr {

enum class Plane : uint8_t {
  kControl = 0,
  kData = 1,
};

struct RegionProfile {
  RegionId region = kDefaultRegion;
  uint64_t events = 0;
  uint64_t bytes = 0;

  // Bytes moved per instrumented operation — the profile's rate proxy
  // (regions execute ops at the same virtual op cost, so bytes/op is
  // proportional to bytes/second).
  double BytesPerOp() const {
    return events == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(events);
  }
};

// Accumulates per-region traffic during a (training) run.
class PlaneProfiler : public TraceSink {
 public:
  void OnEvent(const Event& event) override;

  const std::map<RegionId, RegionProfile>& profiles() const { return profiles_; }

 private:
  std::map<RegionId, RegionProfile> profiles_;
};

struct PlaneClassifierOptions {
  // A region is data plane if its bytes/op is at least this fraction of the
  // highest observed bytes/op...
  double relative_rate_threshold = 0.01;
  // ... and also moves at least this many bytes/op in absolute terms. The
  // absolute floor is the primary signal: one bulk-transfer region must not
  // make every moderate-rate region look low-rate by comparison.
  double min_absolute_bytes_per_op = 24.0;
};

class PlaneClassifier {
 public:
  static std::map<RegionId, Plane> Classify(
      const std::map<RegionId, RegionProfile>& profiles,
      const PlaneClassifierOptions& options = PlaneClassifierOptions());

  // Convenience: region ids classified as control plane.
  static std::vector<RegionId> ControlRegions(
      const std::map<RegionId, RegionProfile>& profiles,
      const PlaneClassifierOptions& options = PlaneClassifierOptions());
};

}  // namespace ddr

#endif  // SRC_ANALYSIS_PLANE_CLASSIFIER_H_
