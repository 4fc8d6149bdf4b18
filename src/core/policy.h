#ifndef DEEPSEA_CORE_POLICY_H_
#define DEEPSEA_CORE_POLICY_H_

namespace deepsea {

/// Materialization / partitioning strategies compared in the paper's
/// evaluation (Section 10):
///   kHive         - vanilla engine, never materializes ("H").
///   kNoPartition  - materializes whole views, no partitioning ("NP",
///                   ReStore-like but with logical matching).
///   kEquiDepth    - materializes with a fixed equi-depth partition of
///                   k fragments, non-adaptive ("E-k").
///   kNoRefine     - DeepSea's workload-aware initial partitioning, but
///                   never repartitions afterwards ("NR").
///   kDeepSea      - full adaptive, progressive partitioning ("DS").
enum class StrategyKind {
  kHive,
  kNoPartition,
  kEquiDepth,
  kNoRefine,
  kDeepSea,
};

const char* StrategyName(StrategyKind s);

/// Cost-benefit value models for view/fragment selection (Section 10.1;
/// computed by PlanningDelta::ViewValue / FragmentValue, and the
/// admission filter's benefit by ViewBenefitForFilter):
///   kDeepSea    - Phi = COST * B_decayed / S (Section 7.1).
///   kNectar     - COST / (S * dT); no accumulated benefit (Nectar's
///                 original model as characterized by the paper).
///   kNectarPlus - COST * N / (S * dT) with N the undecayed accumulated
///                 benefit (the paper's Nectar+ extension).
enum class ValueModel { kDeepSea, kNectar, kNectarPlus };

const char* ValueModelName(ValueModel m);

}  // namespace deepsea

#endif  // DEEPSEA_CORE_POLICY_H_
