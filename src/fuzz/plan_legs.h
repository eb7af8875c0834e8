#ifndef GQZOO_FUZZ_PLAN_LEGS_H_
#define GQZOO_FUZZ_PLAN_LEGS_H_

#include "src/engine/engine.h"

namespace gqzoo {
namespace fuzz {

/// The ways to evaluate one compiled conjunctive plan (CRPQ, dl-CRPQ,
/// CoreGQL) that must not change its answer. The engine runs only
/// `kPlanned`; each other leg reverts one planning decision.
enum class PlanLeg {
  kPlanned,     // planner join order, wcoj group, WHERE pushdown
  kTextual,     // conjuncts joined in textual order
  kNoWcoj,      // binary joins even where the planner found a cyclic core
  kNoPushdown,  // CoreGQL: the query as written, WHERE applied after joins
};

inline constexpr PlanLeg kPlanLegs[] = {PlanLeg::kPlanned, PlanLeg::kTextual,
                                        PlanLeg::kNoWcoj, PlanLeg::kNoPushdown};

/// Stable dotted check name ("plan.textual", ...).
const char* PlanLegName(PlanLeg leg);

/// A copy of `plan` (CRPQ, dl-CRPQ or CoreGQL, as `CompilePlan` made it)
/// with the planning decision of `leg` reverted.
Plan PlanForLeg(const Plan& plan, PlanLeg leg);

/// Runs `plan` with `EvalConjunctivePlan` and returns what
/// `QueryEngine::Execute` returns for it: the rendered rows, or the error
/// code Execute reports when `run.cancel` tripped.
Result<QueryResponse> RunPlan(const Plan& plan, const PropertyGraph& g,
                              const ConjunctiveRun& run);

}  // namespace fuzz
}  // namespace gqzoo

#endif  // GQZOO_FUZZ_PLAN_LEGS_H_
