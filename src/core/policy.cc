#include "core/policy.h"

namespace deepsea {

const char* StrategyName(StrategyKind s) {
  switch (s) {
    case StrategyKind::kHive:
      return "H";
    case StrategyKind::kNoPartition:
      return "NP";
    case StrategyKind::kEquiDepth:
      return "E";
    case StrategyKind::kNoRefine:
      return "NR";
    case StrategyKind::kDeepSea:
      return "DS";
  }
  return "?";
}

const char* ValueModelName(ValueModel m) {
  switch (m) {
    case ValueModel::kDeepSea:
      return "DS";
    case ValueModel::kNectar:
      return "N";
    case ValueModel::kNectarPlus:
      return "N+";
  }
  return "?";
}

}  // namespace deepsea
