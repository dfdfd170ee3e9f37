#include "engine/plan_json.hpp"

#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>

#include "util/logging.hpp"

namespace meshslice {

namespace {

// ---------------------------------------------------------------- parse
// Semantic accessors over a parsed JsonValue. Every failure is a fatal
// naming the key path and the source, matching the positional contract
// of parseJson (which already covers syntax errors with byte offsets).

const JsonValue &
memberAt(const JsonValue &obj, const char *path, const char *key,
         const std::string &ctx)
{
    if (obj.kind != JsonValue::kObject)
        fatal("%s: \"%s\" must be an object", ctx.c_str(), path);
    const JsonValue *v = obj.find(key);
    if (v == nullptr)
        fatal("%s: missing key \"%s.%s\"", ctx.c_str(), path, key);
    return *v;
}

double
numberAt(const JsonValue &obj, const char *path, const char *key,
         const std::string &ctx)
{
    const JsonValue &v = memberAt(obj, path, key, ctx);
    if (v.kind != JsonValue::kNumber)
        fatal("%s: \"%s.%s\" must be a number", ctx.c_str(), path, key);
    return v.number;
}

std::int64_t
i64At(const JsonValue &obj, const char *path, const char *key,
      const std::string &ctx)
{
    const double v = numberAt(obj, path, key, ctx);
    if (std::floor(v) != v)
        fatal("%s: \"%s.%s\" must be an integer (got %g)", ctx.c_str(),
              path, key, v);
    return static_cast<std::int64_t>(v);
}

int
intAt(const JsonValue &obj, const char *path, const char *key,
      const std::string &ctx)
{
    return static_cast<int>(i64At(obj, path, key, ctx));
}

bool
boolAt(const JsonValue &obj, const char *path, const char *key,
       const std::string &ctx)
{
    const JsonValue &v = memberAt(obj, path, key, ctx);
    if (v.kind != JsonValue::kBool)
        fatal("%s: \"%s.%s\" must be a boolean", ctx.c_str(), path, key);
    return v.boolean;
}

const std::string &
stringAt(const JsonValue &obj, const char *path, const char *key,
         const std::string &ctx)
{
    const JsonValue &v = memberAt(obj, path, key, ctx);
    if (v.kind != JsonValue::kString)
        fatal("%s: \"%s.%s\" must be a string", ctx.c_str(), path, key);
    return v.str;
}

const std::vector<JsonValue> &
arrayAt(const JsonValue &obj, const char *path, const char *key,
        const std::string &ctx)
{
    const JsonValue &v = memberAt(obj, path, key, ctx);
    if (v.kind != JsonValue::kArray)
        fatal("%s: \"%s.%s\" must be an array", ctx.c_str(), path, key);
    return v.arr;
}

Pass
passFromName(const std::string &name, const std::string &ctx)
{
    for (Pass p : {Pass::kForward, Pass::kBackwardData,
                   Pass::kBackwardWeight})
        if (name == passName(p))
            return p;
    fatal("%s: unknown pass \"%s\" (want fwd/bwdD/bwdW)", ctx.c_str(),
          name.c_str());
}

// ---------------------------------------------------------------- emit
// Canonical writers: compact, fixed key order, %.17g numbers. The
// byte-identical round-trip property holds because the writer is the
// single source of formatting.

void
appendGemmPlan(std::string &out, const GemmPlan &p)
{
    out += "{\"name\":";
    out += jsonString(p.gemm.name);
    out += ",\"m\":";
    out += std::to_string(p.gemm.m);
    out += ",\"k\":";
    out += std::to_string(p.gemm.k);
    out += ",\"n\":";
    out += std::to_string(p.gemm.n);
    out += ",\"pass\":";
    out += jsonString(passName(p.gemm.pass));
    out += ",\"fcLayer\":";
    out += std::to_string(p.gemm.fcLayer);
    out += ",\"dataflow\":";
    out += jsonString(dataflowName(p.dataflow));
    out += ",\"sliceCount\":";
    out += std::to_string(p.sliceCount);
    out += ",\"estTime\":";
    out += jsonNumber(p.estTime);
    out += "}";
}

GemmPlan
gemmPlanFromValue(const JsonValue &v, const std::string &ctx)
{
    GemmPlan p;
    p.gemm.name = stringAt(v, "pass", "name", ctx);
    p.gemm.m = i64At(v, "pass", "m", ctx);
    p.gemm.k = i64At(v, "pass", "k", ctx);
    p.gemm.n = i64At(v, "pass", "n", ctx);
    p.gemm.pass = passFromName(stringAt(v, "pass", "pass", ctx), ctx);
    p.gemm.fcLayer = intAt(v, "pass", "fcLayer", ctx);
    p.dataflow = dataflowFromName(stringAt(v, "pass", "dataflow", ctx),
                                  ctx);
    p.sliceCount = intAt(v, "pass", "sliceCount", ctx);
    p.estTime = numberAt(v, "pass", "estTime", ctx);
    return p;
}

void
appendAutotuneResult(std::string &out, const AutotuneResult &r)
{
    out += "{\"rows\":";
    out += std::to_string(r.rows);
    out += ",\"cols\":";
    out += std::to_string(r.cols);
    out += ",\"blockFcTime\":";
    out += jsonNumber(r.blockFcTime);
    out += ",\"layers\":[";
    for (size_t i = 0; i < r.layers.size(); ++i) {
        const FcLayerPlan &layer = r.layers[i];
        if (i != 0)
            out += ",";
        out += "{\"fcLayer\":";
        out += std::to_string(layer.fcLayer);
        out += ",\"stationary\":";
        out += jsonString(stationaryName(layer.stationary));
        out += ",\"passes\":[";
        for (size_t j = 0; j < layer.passes.size(); ++j) {
            if (j != 0)
                out += ",";
            appendGemmPlan(out, layer.passes[j]);
        }
        out += "]}";
    }
    out += "]}";
}

AutotuneResult
autotuneResultFromValue(const JsonValue &v, const std::string &ctx)
{
    AutotuneResult r;
    r.rows = intAt(v, "tp", "rows", ctx);
    r.cols = intAt(v, "tp", "cols", ctx);
    r.blockFcTime = numberAt(v, "tp", "blockFcTime", ctx);
    for (const JsonValue &lv : arrayAt(v, "tp", "layers", ctx)) {
        FcLayerPlan layer;
        layer.fcLayer = intAt(lv, "layer", "fcLayer", ctx);
        layer.stationary = stationaryFromName(
            stringAt(lv, "layer", "stationary", ctx), ctx);
        for (const JsonValue &pv : arrayAt(lv, "layer", "passes", ctx))
            layer.passes.push_back(gemmPlanFromValue(pv, ctx));
        r.layers.push_back(std::move(layer));
    }
    return r;
}

void
appendAxes(std::string &out, const PipelineAxes &axes)
{
    out += "{\"tpRows\":";
    out += std::to_string(axes.tpRows);
    out += ",\"tpCols\":";
    out += std::to_string(axes.tpCols);
    out += ",\"pp\":";
    out += std::to_string(axes.pp);
    out += ",\"dp\":";
    out += std::to_string(axes.dp);
    out += ",\"microBatches\":";
    out += std::to_string(axes.microBatches);
    out += ",\"chunks\":";
    out += std::to_string(axes.chunks);
    out += ",\"schedule\":";
    out += jsonString(pipelineScheduleName(axes.schedule));
    out += ",\"recompute\":";
    out += axes.recompute ? "true" : "false";
    out += "}";
}

PipelineAxes
axesFromValue(const JsonValue &v, const std::string &ctx)
{
    PipelineAxes axes;
    axes.tpRows = intAt(v, "axes", "tpRows", ctx);
    axes.tpCols = intAt(v, "axes", "tpCols", ctx);
    axes.pp = intAt(v, "axes", "pp", ctx);
    axes.dp = intAt(v, "axes", "dp", ctx);
    axes.microBatches = intAt(v, "axes", "microBatches", ctx);
    axes.chunks = intAt(v, "axes", "chunks", ctx);
    axes.schedule = pipelineScheduleFromName(
        stringAt(v, "axes", "schedule", ctx), ctx);
    axes.recompute = boolAt(v, "axes", "recompute", ctx);
    return axes;
}

} // namespace

std::string
enginePlanToJson(const EnginePlan &plan)
{
    std::string out;
    out.reserve(4096);
    out += "{\"cluster\":{\"dp\":";
    out += std::to_string(plan.cluster.dp);
    out += ",\"pp\":";
    out += std::to_string(plan.cluster.pp);
    out += ",\"tpRows\":";
    out += std::to_string(plan.cluster.tpRows);
    out += ",\"tpCols\":";
    out += std::to_string(plan.cluster.tpCols);
    out += ",\"oneD\":";
    out += plan.cluster.oneD ? "true" : "false";
    out += "},\"pickedBy\":";
    out += jsonString(plan.pickedBy);
    out += ",\"tp\":";
    appendAutotuneResult(out, plan.tp);
    if (plan.hasRobust) {
        out += ",\"robust\":{\"objective\":";
        out += jsonNumber(plan.robustObjective);
        out += ",\"pickIndex\":";
        out += std::to_string(plan.robustPickIndex);
        out += "}";
    }
    if (plan.hasRecovery) {
        out += ",\"recovery\":{\"checkpointInterval\":";
        out += jsonNumber(plan.checkpointInterval);
        out += ",\"goodput\":";
        out += jsonNumber(plan.goodput);
        out += ",\"effectiveStepTime\":";
        out += jsonNumber(plan.effectiveStepTime);
        out += "}";
    }
    if (plan.hasPipeline) {
        out += ",\"pipeline\":{\"axes\":";
        appendAxes(out, plan.axes);
        out += ",\"estTotal\":";
        out += jsonNumber(plan.pipelineEstTotal);
        out += ",\"simTotal\":";
        out += jsonNumber(plan.pipelineSimTotal);
        out += ",\"stageMemoryBytes\":";
        out += std::to_string(plan.stageMemoryBytes);
        out += ",\"peakStash\":";
        out += std::to_string(plan.peakStash);
        out += "}";
    }
    out += "}";
    return out;
}

EnginePlan
enginePlanFromJson(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "EnginePlan", context);
    if (root.kind != JsonValue::kObject)
        fatal("EnginePlan: %s: top-level value must be an object",
              context.c_str());
    EnginePlan plan;
    const JsonValue &cluster = memberAt(root, "plan", "cluster", context);
    plan.cluster.dp = intAt(cluster, "cluster", "dp", context);
    plan.cluster.pp = intAt(cluster, "cluster", "pp", context);
    plan.cluster.tpRows = intAt(cluster, "cluster", "tpRows", context);
    plan.cluster.tpCols = intAt(cluster, "cluster", "tpCols", context);
    plan.cluster.oneD = boolAt(cluster, "cluster", "oneD", context);
    plan.pickedBy = stringAt(root, "plan", "pickedBy", context);
    plan.tp = autotuneResultFromValue(
        memberAt(root, "plan", "tp", context), context);
    if (const JsonValue *robust = root.find("robust")) {
        plan.hasRobust = true;
        plan.robustObjective =
            numberAt(*robust, "robust", "objective", context);
        plan.robustPickIndex =
            intAt(*robust, "robust", "pickIndex", context);
    }
    if (const JsonValue *rec = root.find("recovery")) {
        plan.hasRecovery = true;
        plan.checkpointInterval =
            numberAt(*rec, "recovery", "checkpointInterval", context);
        plan.goodput = numberAt(*rec, "recovery", "goodput", context);
        plan.effectiveStepTime =
            numberAt(*rec, "recovery", "effectiveStepTime", context);
    }
    if (const JsonValue *pipe = root.find("pipeline")) {
        plan.hasPipeline = true;
        plan.axes = axesFromValue(
            memberAt(*pipe, "pipeline", "axes", context), context);
        plan.pipelineEstTotal =
            numberAt(*pipe, "pipeline", "estTotal", context);
        plan.pipelineSimTotal =
            numberAt(*pipe, "pipeline", "simTotal", context);
        plan.stageMemoryBytes =
            i64At(*pipe, "pipeline", "stageMemoryBytes", context);
        plan.peakStash = intAt(*pipe, "pipeline", "peakStash", context);
    }
    return plan;
}

std::string
shortlistToJson(const std::vector<AutotuneResult> &shortlist)
{
    std::string out;
    out.reserve(4096);
    out += "[";
    for (size_t i = 0; i < shortlist.size(); ++i) {
        if (i != 0)
            out += ",";
        appendAutotuneResult(out, shortlist[i]);
    }
    out += "]";
    return out;
}

std::vector<AutotuneResult>
shortlistFromJson(const std::string &text, const std::string &context)
{
    const JsonValue root = parseJson(text, "Shortlist", context);
    if (root.kind != JsonValue::kArray)
        fatal("Shortlist: %s: top-level value must be an array",
              context.c_str());
    if (root.arr.empty())
        fatal("Shortlist: %s: the array is empty (a shortlist holds at "
              "least one plan)", context.c_str());
    std::vector<AutotuneResult> shortlist;
    shortlist.reserve(root.arr.size());
    for (const JsonValue &v : root.arr)
        shortlist.push_back(autotuneResultFromValue(v, context));
    return shortlist;
}

namespace {

void
rejectUnknownKeys(const JsonValue &obj, const char *path,
                  std::initializer_list<const char *> allowed,
                  const std::string &ctx)
{
    for (const auto &[key, value] : obj.obj) {
        bool known = false;
        for (const char *a : allowed)
            if (key == a) {
                known = true;
                break;
            }
        if (!known)
            fatal("%s: unknown key \"%s.%s\"", ctx.c_str(), path,
                  key.c_str());
    }
}

TransformerConfig
modelFromValue(const JsonValue &v, const std::string &ctx)
{
    if (v.kind == JsonValue::kString) {
        if (v.str == "gpt3")
            return gpt3Config();
        if (v.str == "megatron-nlg")
            return megatronNlgConfig();
        fatal("%s: unknown model preset \"%s\" "
              "(want gpt3/megatron-nlg or an object)",
              ctx.c_str(), v.str.c_str());
    }
    if (v.kind != JsonValue::kObject)
        fatal("%s: \"model\" must be a preset name or an object",
              ctx.c_str());
    rejectUnknownKeys(v, "model",
                      {"name", "layers", "hiddenDim", "heads", "ffnDim",
                       "vocab"},
                      ctx);
    TransformerConfig model;
    model.name = stringAt(v, "model", "name", ctx);
    model.layers = i64At(v, "model", "layers", ctx);
    model.hiddenDim = i64At(v, "model", "hiddenDim", ctx);
    model.heads = i64At(v, "model", "heads", ctx);
    model.ffnDim = i64At(v, "model", "ffnDim", ctx);
    if (v.find("vocab") != nullptr)
        model.vocab = i64At(v, "model", "vocab", ctx);
    const std::pair<const char *, std::int64_t> sizes[] = {
        {"layers", model.layers}, {"hiddenDim", model.hiddenDim},
        {"heads", model.heads},   {"ffnDim", model.ffnDim},
        {"vocab", model.vocab}};
    for (const auto &[key, size] : sizes)
        if (size <= 0)
            fatal("%s: \"model.%s\" must be positive (got %lld)",
                  ctx.c_str(), key, static_cast<long long>(size));
    // headDim() divides by heads.
    if (model.hiddenDim % model.heads != 0)
        fatal("%s: \"model.heads\" (%lld) must divide "
              "\"model.hiddenDim\" (%lld)", ctx.c_str(),
              static_cast<long long>(model.heads),
              static_cast<long long>(model.hiddenDim));
    return model;
}

} // namespace

PlanQuery
planQueryFromValue(const JsonValue &root, const ChipConfig &chip,
                   const std::string &context)
{
    if (root.kind != JsonValue::kObject)
        fatal("PlanQuery: %s: top-level value must be an object",
              context.c_str());
    rejectUnknownKeys(root, "query",
                      {"id", "model", "train", "chips", "algo",
                       "optimizeDataflow", "robust", "recovery",
                       "pipeline"},
                      context);
    PlanQuery q;
    q.chip = chip;
    q.model = modelFromValue(
        memberAt(root, "query", "model", context), context);
    if (root.find("chips") != nullptr)
        q.chips = intAt(root, "query", "chips", context);
    if (q.chips <= 0)
        fatal("PlanQuery: %s: \"chips\" must be positive (got %d)",
              context.c_str(), q.chips);
    if (const JsonValue *train = root.find("train")) {
        rejectUnknownKeys(*train, "train", {"batch", "seqLen"}, context);
        q.train.batch = i64At(*train, "train", "batch", context);
        if (train->find("seqLen") != nullptr)
            q.train.seqLen = i64At(*train, "train", "seqLen", context);
    } else {
        q.train = TrainingConfig::weakScaling(q.chips);
    }
    if (root.find("algo") != nullptr)
        q.algo = algorithmFromName(stringAt(root, "query", "algo", context),
                                   context);
    if (root.find("optimizeDataflow") != nullptr)
        q.optimizeDataflow =
            boolAt(root, "query", "optimizeDataflow", context);

    if (const JsonValue *robust = root.find("robust")) {
        rejectUnknownKeys(*robust, "robust",
                          {"topK", "numScenarios", "seed",
                           "linkDegradeFactor", "faultsPerScenario",
                           "stragglerProb", "stragglerFactor",
                           "maxLaunchJitter", "quantile",
                           "maxGemmsPerEval"},
                          context);
        q.runRobust = true;
        if (robust->find("topK") != nullptr)
            q.robust.topK = intAt(*robust, "robust", "topK", context);
        if (robust->find("numScenarios") != nullptr)
            q.robust.numScenarios =
                intAt(*robust, "robust", "numScenarios", context);
        if (robust->find("seed") != nullptr)
            q.robust.seed = static_cast<std::uint64_t>(
                i64At(*robust, "robust", "seed", context));
        if (robust->find("linkDegradeFactor") != nullptr)
            q.robust.linkDegradeFactor =
                numberAt(*robust, "robust", "linkDegradeFactor", context);
        if (robust->find("faultsPerScenario") != nullptr)
            q.robust.faultsPerScenario =
                intAt(*robust, "robust", "faultsPerScenario", context);
        if (robust->find("stragglerProb") != nullptr)
            q.robust.stragglerProb =
                numberAt(*robust, "robust", "stragglerProb", context);
        if (robust->find("stragglerFactor") != nullptr)
            q.robust.stragglerFactor =
                numberAt(*robust, "robust", "stragglerFactor", context);
        if (robust->find("maxLaunchJitter") != nullptr)
            q.robust.maxLaunchJitter =
                numberAt(*robust, "robust", "maxLaunchJitter", context);
        if (robust->find("quantile") != nullptr)
            q.robust.quantile =
                numberAt(*robust, "robust", "quantile", context);
        if (robust->find("maxGemmsPerEval") != nullptr)
            q.robust.maxGemmsPerEval =
                intAt(*robust, "robust", "maxGemmsPerEval", context);
    }

    if (const JsonValue *rec = root.find("recovery")) {
        rejectUnknownKeys(*rec, "recovery",
                          {"chipMtbf", "checkpointBytesPerChip",
                           "detectionLatency", "restartTime", "topK"},
                          context);
        q.runRecovery = true;
        q.recovery.chipMtbf =
            numberAt(*rec, "recovery", "chipMtbf", context);
        q.recovery.checkpointBytesPerChip =
            i64At(*rec, "recovery", "checkpointBytesPerChip", context);
        if (rec->find("detectionLatency") != nullptr)
            q.recovery.detectionLatency =
                numberAt(*rec, "recovery", "detectionLatency", context);
        if (rec->find("restartTime") != nullptr)
            q.recovery.restartTime =
                numberAt(*rec, "recovery", "restartTime", context);
        if (rec->find("topK") != nullptr)
            q.recovery.topK = intAt(*rec, "recovery", "topK", context);
    }

    if (const JsonValue *pipe = root.find("pipeline")) {
        rejectUnknownKeys(*pipe, "pipeline",
                          {"schedule", "chunks", "maxMicroBatches",
                           "topK", "recompute", "dpOverlap"},
                          context);
        q.runPipeline = true;
        if (pipe->find("schedule") != nullptr)
            q.pipeline.schedule = pipelineScheduleFromName(
                stringAt(*pipe, "pipeline", "schedule", context), context);
        if (pipe->find("chunks") != nullptr)
            q.pipeline.chunks =
                intAt(*pipe, "pipeline", "chunks", context);
        if (pipe->find("maxMicroBatches") != nullptr)
            q.pipeline.maxMicroBatches =
                intAt(*pipe, "pipeline", "maxMicroBatches", context);
        if (pipe->find("topK") != nullptr)
            q.pipeline.topK = intAt(*pipe, "pipeline", "topK", context);
        if (pipe->find("recompute") != nullptr)
            q.pipeline.recompute =
                boolAt(*pipe, "pipeline", "recompute", context);
        if (pipe->find("dpOverlap") != nullptr)
            q.pipeline.dpOverlap =
                numberAt(*pipe, "pipeline", "dpOverlap", context);
    }
    return q;
}

PlanQuery
planQueryFromJson(const std::string &text, const ChipConfig &chip,
                  const std::string &context)
{
    const JsonValue root = parseJson(text, "PlanQuery", context);
    return planQueryFromValue(root, chip, context);
}

} // namespace meshslice
