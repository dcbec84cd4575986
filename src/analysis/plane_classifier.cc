#include "src/analysis/plane_classifier.h"

#include <algorithm>

namespace ddr {

void PlaneProfiler::OnEvent(const Event& event) {
  switch (event.type) {
    case EventType::kSharedRead:
    case EventType::kSharedWrite:
    case EventType::kSharedRmw:
    case EventType::kInput:
    case EventType::kOutput:
    case EventType::kChannelSend:
    case EventType::kChannelRecv:
    case EventType::kNetSend:
    case EventType::kNetRecv:
    case EventType::kDiskWrite:
    case EventType::kDiskRead:
    case EventType::kMutexLock:
    case EventType::kMutexUnlock: {
      RegionProfile& profile = profiles_[event.region];
      profile.region = event.region;
      profile.events += 1;
      profile.bytes += event.bytes;
      break;
    }
    default:
      break;
  }
}

std::map<RegionId, Plane> PlaneClassifier::Classify(
    const std::map<RegionId, RegionProfile>& profiles,
    const PlaneClassifierOptions& options) {
  double max_rate = 0.0;
  for (const auto& [region, profile] : profiles) {
    max_rate = std::max(max_rate, profile.BytesPerOp());
  }
  std::map<RegionId, Plane> planes;
  for (const auto& [region, profile] : profiles) {
    const double rate = profile.BytesPerOp();
    const bool is_data = max_rate > 0.0 &&
                         rate >= options.relative_rate_threshold * max_rate &&
                         rate >= options.min_absolute_bytes_per_op;
    planes[region] = is_data ? Plane::kData : Plane::kControl;
  }
  return planes;
}

std::vector<RegionId> PlaneClassifier::ControlRegions(
    const std::map<RegionId, RegionProfile>& profiles,
    const PlaneClassifierOptions& options) {
  std::vector<RegionId> control;
  for (const auto& [region, plane] : Classify(profiles, options)) {
    if (plane == Plane::kControl) {
      control.push_back(region);
    }
  }
  return control;
}

}  // namespace ddr
