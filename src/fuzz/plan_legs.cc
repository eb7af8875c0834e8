#include "src/fuzz/plan_legs.h"

#include <variant>

namespace gqzoo {
namespace fuzz {

const char* PlanLegName(PlanLeg leg) {
  switch (leg) {
    case PlanLeg::kPlanned: return "plan.planned";
    case PlanLeg::kTextual: return "plan.textual";
    case PlanLeg::kNoWcoj: return "plan.no-wcoj";
    case PlanLeg::kNoPushdown: return "plan.no-pushdown";
  }
  return "plan.unknown";
}

Plan PlanForLeg(const Plan& plan, PlanLeg leg) {
  // The evaluators read an empty join order or wcoj group as "none".
  Plan copy = plan;
  if (auto* crpq = std::get_if<CrpqPlan>(&copy.compiled)) {
    if (leg == PlanLeg::kTextual) crpq->join_order.clear();
    if (leg == PlanLeg::kNoWcoj) crpq->wcoj.reset();
  } else if (auto* dl = std::get_if<DlCrpqPlan>(&copy.compiled)) {
    if (leg == PlanLeg::kTextual) dl->join_order.clear();
    if (leg == PlanLeg::kNoWcoj) dl->wcoj.reset();
  } else if (auto* gql = std::get_if<CoreGqlPlan>(&copy.compiled)) {
    if (leg == PlanLeg::kTextual) gql->block_orders.clear();
    if (leg == PlanLeg::kNoWcoj) gql->block_wcoj.clear();
    // Pushdown keeps every block's pattern entries in place, so the
    // planned orders and wcoj groups also index the query as written.
    if (leg == PlanLeg::kNoPushdown) {
      gql->query = ParseCoreGqlQuery(plan.text).ValueOrDie();  // it compiled
    }
  }
  return copy;
}

Result<QueryResponse> RunPlan(const Plan& plan, const PropertyGraph& g,
                              const ConjunctiveRun& run) {
  Result<ConjunctiveRows> rows = EvalConjunctivePlan(plan, g, run);
  const StopCause cause =
      run.cancel != nullptr ? run.cancel->stop_cause() : StopCause::kNone;
  if (cause == StopCause::kDeadline) {
    return Error(ErrorCode::kDeadlineExceeded, "deadline exceeded");
  }
  if (cause == StopCause::kCancelled) {
    return Error(ErrorCode::kCancelled, "query cancelled");
  }
  if (cause != StopCause::kNone) {
    return Error(ErrorCode::kResourceExhausted,
                 "resource budget exhausted: " + run.cancel->Report().ToString());
  }
  if (!rows.ok()) return rows.error();
  QueryResponse response;
  response.text = rows.value().text + std::to_string(rows.value().num_rows) +
                  " rows" + (rows.value().truncated ? " (truncated)" : "") +
                  "\n";
  response.num_rows = rows.value().num_rows;
  response.truncated = rows.value().truncated;
  return response;
}

}  // namespace fuzz
}  // namespace gqzoo
