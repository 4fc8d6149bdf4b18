#ifndef DEEPSEA_PLAN_PLAN_SERDE_H_
#define DEEPSEA_PLAN_PLAN_SERDE_H_

#include <string>

#include "common/result.h"
#include "plan/plan.h"

namespace deepsea {

/// Serializes a logical plan into a stable, human-readable text form
/// that DeserializePlan round-trips. One node per line, children
/// indented by one space; expressions use Expr::ToString (which the SQL
/// expression parser reads back). Example:
///
///   AGGREGATE by=item.category_id aggs=SUM(ss.net_paid) AS revenue
///    SELECT ((ss.item_sk >= 10) AND (ss.item_sk <= 20))
///     JOIN (ss.item_sk = item.item_sk)
///      SCAN store_sales
///      SCAN item
///
/// Used by the engine's state persistence (SaveState/LoadState): view
/// definitions survive process restarts and signatures are recomputed
/// from the deserialized plans. View definitions read base tables only
/// (DESIGN.md §7, deviation 6), so the format has no ViewRef node;
/// `plan` must not contain one.
///
/// Limitations: boolean and NULL literals inside expressions do not
/// round-trip (the expression grammar has no such literals).
std::string SerializePlan(const PlanPtr& plan);

/// Inverse of SerializePlan. Fails with InvalidArgument on malformed
/// input, including any operator SerializePlan does not write (such as
/// a VIEWREF line).
Result<PlanPtr> DeserializePlan(const std::string& text);

}  // namespace deepsea

#endif  // DEEPSEA_PLAN_PLAN_SERDE_H_
