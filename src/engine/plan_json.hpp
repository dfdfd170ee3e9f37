/**
 * @file
 * Deterministic JSON serialization of complete plans (and the cached
 * shortlist intermediates), plus query parsing for the plan server.
 *
 * Writers emit compact single-line JSON with a fixed key order and
 * `%.17g` numbers (round-trippable doubles), so serialize → parse →
 * serialize is **byte-identical** — the property the PlanEngine's
 * cache cross-checks and the persistence layer rely on. Parsers go
 * through `util/json`'s `parseJson`, so every syntax error is a
 * `fatal` with a byte offset into the named source; semantic errors
 * (missing or mistyped keys) are `fatal` with the key path.
 */
#ifndef MESHSLICE_ENGINE_PLAN_JSON_HPP_
#define MESHSLICE_ENGINE_PLAN_JSON_HPP_

#include <string>
#include <vector>

#include "engine/plan_types.hpp"
#include "util/json.hpp"

namespace meshslice {

/** Serialize a complete plan (compact single line, fixed key order). */
std::string enginePlanToJson(const EnginePlan &plan);

/**
 * Parse the JSON emitted by `enginePlanToJson`. @p context names the
 * source in errors (a file path, "cache", ...).
 */
EnginePlan enginePlanFromJson(const std::string &text,
                              const std::string &context = "<string>");

/** Serialize a phase-1/2 shortlist (compact single line). */
std::string shortlistToJson(const std::vector<AutotuneResult> &shortlist);

/** Parse the JSON emitted by `shortlistToJson`; `fatal` on an empty
 *  array, since `rankShapes` never yields one. */
std::vector<AutotuneResult>
shortlistFromJson(const std::string &text,
                  const std::string &context = "<string>");

/**
 * Parse one plan-server query line into a `PlanQuery`. Supported keys
 * (all optional unless noted):
 *   model        "gpt3" / "megatron-nlg", or an object with
 *                name/layers/hiddenDim/heads/ffnDim[/vocab] (required;
 *                every size positive, heads dividing hiddenDim)
 *   train        {batch, seqLen}; default = weak scaling at `chips`
 *   chips        chip count (default 16)
 *   algo         algorithm name (default "MeshSlice")
 *   optimizeDataflow  bool (default true)
 *   robust       object enabling the robust phase: topK, numScenarios,
 *                seed, linkDegradeFactor, faultsPerScenario,
 *                stragglerProb, stragglerFactor, maxLaunchJitter,
 *                quantile, maxGemmsPerEval
 *   recovery     object enabling recovery pricing: chipMtbf (required),
 *                checkpointBytesPerChip (required), detectionLatency,
 *                restartTime, topK
 *   pipeline     object enabling the 3D phase: schedule, chunks,
 *                maxMicroBatches, topK, recompute, dpOverlap
 * The chip hardware description comes from @p chip (queries address a
 * fixed serving cluster). Unknown keys are fatal.
 */
PlanQuery planQueryFromJson(const std::string &text, const ChipConfig &chip,
                            const std::string &context = "<string>");

/** `planQueryFromJson` on an already-parsed object (for batch files). */
PlanQuery planQueryFromValue(const JsonValue &root, const ChipConfig &chip,
                             const std::string &context);

} // namespace meshslice

#endif // MESHSLICE_ENGINE_PLAN_JSON_HPP_
