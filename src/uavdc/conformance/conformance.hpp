#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "uavdc/core/candidate_reduction.hpp"
#include "uavdc/core/evaluate.hpp"
#include "uavdc/core/validate_plan.hpp"
#include "uavdc/model/instance.hpp"
#include "uavdc/model/plan.hpp"
#include "uavdc/sim/simulator.hpp"

namespace uavdc::util {
class ThreadPool;
}  // namespace uavdc::util

namespace uavdc::conformance {

/// One cross-layer disagreement found by the conformance oracle.
struct ConformanceMismatch {
    enum class Check {
        kEvaluatorVsSimulator,  ///< evaluate_plan vs Simulator accounting
        kEnergyModels,          ///< FlightPlan::energy vs EnergyView vs
                                ///< Battery replay
        kValidatorMissedAbort,  ///< simulator aborted, validate_plan silent
        kReductionQualityDrift, ///< pruned candidate set collected less
                                ///< than (1 - tol) of the unpruned volume
    };
    Check check;
    std::string field;   ///< which quantity diverged ("collected_mb", ...)
    double expected{0.0};  ///< reference value (evaluator / closed form)
    double actual{0.0};    ///< diverging value (simulator / replay)
    std::string detail;    ///< human-readable context
};

[[nodiscard]] std::string to_string(ConformanceMismatch::Check check);

/// Full cross-check of one (instance, plan) pair. `ok()` is the invariant
/// the DCM/PDCM guarantees rest on: the planner-facing cost model, the
/// closed-form evaluator, and the discrete-event simulator describe the
/// same mission.
struct ConformanceReport {
    core::Evaluation evaluation;
    sim::SimReport simulation;  ///< calm wind, constant radio, no trace
    core::PlanValidation validation;
    std::vector<ConformanceMismatch> mismatches;
    [[nodiscard]] bool ok() const { return mismatches.empty(); }
};

/// Cross-check `plan` against `inst`:
///  (a) `evaluate_plan` vs `Simulator` under calm wind / constant radio —
///      collected MB, per-device MB, spent energy, executed time,
///      truncation flag, and drained-device count must agree within `tol`
///      (absolute for quantities <= 1, relative above);
///  (b) `FlightPlan::energy`, `EnergyView::tour_cost`, and a
///      `sim::Battery` replay of the tour must report identical energy;
///  (c) every plan the simulator aborts on (battery depleted) must carry a
///      `kEnergyExceeded` error from `validate_plan` (plans within `tol`
///      of the budget are exempt — both sides are correct at a knife edge).
[[nodiscard]] ConformanceReport check_conformance(
    const model::Instance& inst, const model::FlightPlan& plan,
    double tol = 1e-6);

/// Property-based fuzz loop: seeded `workload::generator` instances
/// (deployment, volume model, device count, region size, and energy budget
/// all varied) x every planner in the registry.
struct ConformanceFuzzConfig {
    int instances = 100;              ///< generated instances
    std::uint64_t seed = 20260806;    ///< root seed (deterministic run)
    std::vector<std::string> planners;  ///< empty = all registered planners
    double tol = 1e-6;
    /// Additionally re-check every plan against a copy of its instance with
    /// the battery cut to 45% — forcing the truncation/abort paths that a
    /// feasible plan never exercises.
    bool stress_energy = true;
    int max_failures = 8;  ///< stop collecting after this many failed cases
    /// Pruned-vs-unpruned quality tier (opt-in). For alg2/alg3 additionally
    /// plan with candidate-space reduction enabled, run the reduced plan
    /// through the same cross-layer checks, and require its collected
    /// volume to stay within `reduction_rel_tol` (relative, one-sided — a
    /// reduced plan may legitimately collect *more* after the refine
    /// re-plan) of the unpruned plan's. Violations surface as
    /// `Check::kReductionQualityDrift`.
    bool check_reduction = false;
    double reduction_rel_tol = 0.01;
    /// Reduction profile for the tier above. When left disabled a default
    /// profile is used: dominance filtering + 2x grid coarsening + a refine
    /// band of 4 grid steps around the incumbent tour.
    core::CandidateReductionConfig reduction{};
    /// Optional caller-provided worker pool. When set, instances are fuzzed
    /// concurrently (one task per instance) and the per-instance results are
    /// merged in instance order, so the summary — counters and the identity
    /// of the first `max_failures` failures — is bit-identical to a serial
    /// run. The fuzzer never constructs threads of its own.
    util::ThreadPool* pool = nullptr;
};

/// One failing (instance, planner) case, replayable from the seed.
struct ConformanceFuzzFailure {
    std::uint64_t instance_seed{0};
    std::string instance_name;
    std::string planner;
    bool stressed{false};  ///< failed under the reduced-battery variant
    std::vector<ConformanceMismatch> mismatches;
};

struct ConformanceFuzzSummary {
    int instances{0};       ///< instances generated
    int plans_checked{0};   ///< (instance, plan) pairs cross-checked
    int mismatches{0};      ///< total mismatched fields
    std::vector<ConformanceFuzzFailure> failures;
    [[nodiscard]] bool ok() const { return failures.empty(); }
};

[[nodiscard]] ConformanceFuzzSummary fuzz_conformance(
    const ConformanceFuzzConfig& cfg = {});

}  // namespace uavdc::conformance
