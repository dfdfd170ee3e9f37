#include "tuner/autotuner.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/math.hpp"
#include "util/parallel.hpp"

namespace meshslice {

const char *
stationaryName(Stationary st)
{
    switch (st) {
      case Stationary::kY:
        return "Y-stn";
      case Stationary::kX:
        return "X-stn";
      case Stationary::kW:
        return "W-stn";
    }
    return "?";
}

Stationary
stationaryFromName(std::string_view name, const std::string &context)
{
    for (Stationary st : {Stationary::kY, Stationary::kX, Stationary::kW})
        if (name == stationaryName(st))
            return st;
    fatal("%s: unknown stationary \"%.*s\" (want Y-stn/X-stn/W-stn)",
          context.c_str(), static_cast<int>(name.size()), name.data());
}

std::vector<GemmPlan>
AutotuneResult::allPlans() const
{
    std::vector<GemmPlan> out;
    for (const FcLayerPlan &layer : layers)
        out.insert(out.end(), layer.passes.begin(), layer.passes.end());
    return out;
}

Stationary
chooseStationary(std::int64_t m, std::int64_t k, std::int64_t n)
{
    const std::int64_t y = m * n; // output
    const std::int64_t x = m * k; // input
    const std::int64_t w = k * n; // weight
    if (y >= x && y >= w)
        return Stationary::kY; // ties go to the transpose-free default
    if (x >= w)
        return Stationary::kX;
    return Stationary::kW;
}

std::vector<GemmPlan>
dataflowsForLayer(Stationary st, const FcGemm &fwd)
{
    const std::int64_t m = fwd.m;   // tokens
    const std::int64_t kin = fwd.k; // input features
    const std::int64_t nout = fwd.n;

    auto plan = [&fwd](const char *suffix, Pass pass, Dataflow df,
                       std::int64_t pm, std::int64_t pk, std::int64_t pn) {
        GemmPlan p;
        p.gemm = fwd;
        p.gemm.name =
            fwd.name.substr(0, fwd.name.find('.')) + "." + suffix;
        p.gemm.pass = pass;
        p.gemm.m = pm;
        p.gemm.k = pk;
        p.gemm.n = pn;
        p.dataflow = df;
        return p;
    };

    switch (st) {
      case Stationary::kY:
        // Y = OS(X, W); X' = LS(Y', W); W' = RS(X, Y').
        return {
            plan("fwd", Pass::kForward, Dataflow::kOS, m, kin, nout),
            plan("bwdD", Pass::kBackwardData, Dataflow::kLS, m, nout, kin),
            plan("bwdW", Pass::kBackwardWeight, Dataflow::kRS, kin, m,
                 nout),
        };
      case Stationary::kX:
        // Y = LS(X, W^T); X' = OS(Y', W^T); W'^T = RS(Y', X).
        return {
            plan("fwd", Pass::kForward, Dataflow::kLS, m, kin, nout),
            plan("bwdD", Pass::kBackwardData, Dataflow::kOS, m, nout, kin),
            plan("bwdW", Pass::kBackwardWeight, Dataflow::kRS, nout, m,
                 kin),
        };
      case Stationary::kW:
        // Y = RS(X^T, W); X'^T = LS(W, Y'); W' = OS(X^T, Y').
        return {
            plan("fwd", Pass::kForward, Dataflow::kRS, m, kin, nout),
            plan("bwdD", Pass::kBackwardData, Dataflow::kLS, kin, nout, m),
            plan("bwdW", Pass::kBackwardWeight, Dataflow::kOS, kin, m,
                 nout),
        };
    }
    panic("dataflowsForLayer: bad stationary");
}

Gemm2DSpec
makeSpec(const FcGemm &gemm, Dataflow df, int rows, int cols,
         int slice_count, int bytes_per_element)
{
    Gemm2DSpec spec;
    spec.m = gemm.m;
    spec.k = gemm.k;
    spec.n = gemm.n;
    spec.dataflow = df;
    spec.rows = rows;
    spec.cols = cols;
    spec.sliceCount = slice_count;
    spec.bytesPerElement = bytes_per_element;
    return spec;
}

DistinctGemmSpecs
distinctGemmSpecs(const AutotuneResult &plan,
                  const std::vector<GemmPlan> &gemms, int bytes_per_element)
{
    DistinctGemmSpecs out;
    out.slot.reserve(gemms.size());
    for (const GemmPlan &g : gemms) {
        const Gemm2DSpec spec =
            makeSpec(g.gemm, g.dataflow, plan.rows, plan.cols,
                     g.sliceCount, bytes_per_element);
        const auto it = std::find(out.specs.begin(), out.specs.end(), spec);
        out.slot.push_back(static_cast<size_t>(it - out.specs.begin()));
        if (it == out.specs.end())
            out.specs.push_back(spec);
    }
    return out;
}

bool
shapeFeasible(std::int64_t m, std::int64_t k, std::int64_t n, int rows,
              int cols)
{
    for (std::int64_t dim : {m, k, n})
        if (dim % rows != 0 || dim % cols != 0)
            return false;
    return true;
}

bool
shapeFeasible(const std::vector<FcGemm> &gemms, int rows, int cols)
{
    return std::all_of(gemms.begin(), gemms.end(), [&](const FcGemm &g) {
        return shapeFeasible(g.m, g.k, g.n, rows, cols);
    });
}

AutotuneResult
LlmAutotuner::tune(const TransformerConfig &model,
                   const TrainingConfig &train, int chips,
                   bool optimize_dataflow) const
{
    return tuneForAlgorithm(Algorithm::kMeshSlice, model, train, chips,
                            optimize_dataflow);
}

namespace {

/** Phase 1: dataflow and sharding per FC layer. */
std::vector<FcLayerPlan>
buildPhase1(Algorithm algo, const TransformerConfig &model,
            const TrainingConfig &train, bool optimize_dataflow)
{
    std::vector<FcLayerPlan> layers;
    for (const FcGemm &gemm : blockFcGemms(model, train)) {
        if (gemm.pass != Pass::kForward)
            continue;
        FcLayerPlan layer;
        layer.fcLayer = gemm.fcLayer;
        layer.stationary = optimize_dataflow
                               ? chooseStationary(gemm.m, gemm.k, gemm.n)
                               : Stationary::kY;
        layer.passes = dataflowsForLayer(layer.stationary, gemm);
        // An algorithm that cannot run every pass's dataflow (it runs
        // OS only) runs every pass output-stationary with its
        // Y-stationary computational shape.
        const auto runs = [algo](const GemmPlan &p) {
            return supportsDataflow(algo, p.dataflow);
        };
        if (!std::all_of(layer.passes.begin(), layer.passes.end(), runs)) {
            layer.passes = dataflowsForLayer(Stationary::kY, gemm);
            for (GemmPlan &p : layer.passes)
                p.dataflow = Dataflow::kOS;
        }
        layers.push_back(std::move(layer));
    }
    return layers;
}

} // namespace

AutotuneResult
LlmAutotuner::tuneForAlgorithm(Algorithm algo,
                               const TransformerConfig &model,
                               const TrainingConfig &train, int chips,
                               bool optimize_dataflow) const
{
    return rankShapes(algo, model, train, chips, 1, optimize_dataflow)
        .front();
}

AutotuneResult
LlmAutotuner::planAtShape(Algorithm algo, const TransformerConfig &model,
                          const TrainingConfig &train, int rows, int cols,
                          bool optimize_dataflow, int force_s) const
{
    AutotuneResult out;
    out.rows = rows;
    out.cols = cols;
    out.layers = buildPhase1(algo, model, train, optimize_dataflow);
    out.blockFcTime = 0.0;
    for (FcLayerPlan &layer : out.layers) {
        for (GemmPlan &plan : layer.passes) {
            if (!shapeFeasible(plan.gemm.m, plan.gemm.k, plan.gemm.n, rows,
                               cols))
                panic("planAtShape: %dx%d does not divide GeMM %s", rows,
                      cols, plan.gemm.name.c_str());
            Gemm2DSpec spec = makeSpec(plan.gemm, plan.dataflow, rows,
                                       cols);
            if (force_s > 0) {
                spec.sliceCount = force_s;
                plan.sliceCount = force_s;
                plan.estTime = cost_.estimateGemmTime(algo, spec);
            } else {
                auto [s, t] = cost_.tuneSliceCount(algo, spec);
                plan.sliceCount = s;
                plan.estTime = t;
            }
            out.blockFcTime += plan.estTime;
        }
    }
    return out;
}

namespace {

/** One phase-2 candidate's tuned plan, without the layers deep copy. */
struct ShapeEval
{
    int rows = 0;
    int cols = 0;
    Time blockFcTime = 1e300;
    /** (sliceCount, estTime) per GeMM, in allPlans() order. */
    std::vector<std::pair<int, Time>> perGemm;
};

/**
 * One phase-2 JSONL record per candidate mesh shape. Shapes pruned by
 * the divisibility pre-check carry `"feasible":false` and no time;
 * evaluated shapes report the summed per-block FC time (`null` when
 * no slice count fit in memory at that shape).
 */
void
traceShapeCandidate(Algorithm algo, int chips, int rows, int cols,
                    bool feasible, Time block_fc)
{
    const bool timed = feasible && block_fc < 1e300;
    SearchTrace::global().record(strprintf(
        "{\"phase\":\"shape\",\"algo\":%s,\"chips\":%d,\"rows\":%d,"
        "\"cols\":%d,\"feasible\":%s,\"block_fc_s\":%s}",
        jsonString(algorithmName(algo)).c_str(), chips, rows, cols,
        feasible ? "true" : "false",
        timed ? jsonNumber(block_fc).c_str() : "null"));
}

} // namespace

std::vector<AutotuneResult>
LlmAutotuner::rankShapes(Algorithm algo, const TransformerConfig &model,
                         const TrainingConfig &train, int chips, int k,
                         bool optimize_dataflow) const
{
    if (k <= 0)
        fatal("LlmAutotuner::rankShapes: k must be positive (got %d)", k);
    const std::vector<FcLayerPlan> layers =
        buildPhase1(algo, model, train, optimize_dataflow);

    // Feasibility pre-check (cheap, serial): collect the candidate
    // mesh shapes. Phase 1 permutes each layer's dimensions, so the
    // block's GeMMs decide divisibility for the planned passes.
    const std::vector<FcGemm> gemms = blockFcGemms(model, train);
    std::vector<std::pair<int, int>> shapes;
    for (auto [rows64, cols64] : meshShapesOf(chips)) {
        const int rows = static_cast<int>(rows64);
        const int cols = static_cast<int>(cols64);
        if (!supportsMesh(algo, rows, cols))
            continue;
        if (shapeFeasible(gemms, rows, cols))
            shapes.emplace_back(rows, cols);
        else if (SearchTrace::global().enabled())
            traceShapeCandidate(algo, chips, rows, cols,
                                /*feasible=*/false, 1e300);
    }
    if (shapes.empty())
        fatal("LlmAutotuner: no %s mesh shape of %d chips divides every "
              "FC GeMM of %s (batch %lld, seqLen %lld)",
              algorithmName(algo), chips, model.name.c_str(),
              static_cast<long long>(train.batch),
              static_cast<long long>(train.seqLen));

    // Evaluate candidates in parallel. Each evaluation only records
    // the tuned (S, time) pairs — the layers vector is copied only for
    // the returned entries. Trace records ("slice" lines of the inner
    // search plus the "shape" line) are buffered per candidate and
    // flushed in serial index order, so the trace file is
    // byte-identical to a MESHSLICE_THREADS=1 run.
    const bool tracing = SearchTrace::global().enabled();
    std::vector<SearchTraceCapture> captures(tracing ? shapes.size() : 0);
    std::vector<ShapeEval> evals(shapes.size());
    parallelFor(static_cast<std::int64_t>(shapes.size()), 1,
                [&](std::int64_t begin, std::int64_t end) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
            ShapeEval ev;
            ev.rows = shapes[static_cast<size_t>(idx)].first;
            ev.cols = shapes[static_cast<size_t>(idx)].second;
            ev.blockFcTime = 0.0;
            std::optional<SearchTraceCapture::Scope> scope;
            if (tracing)
                scope.emplace(captures[static_cast<size_t>(idx)]);
            for (const FcLayerPlan &layer : layers) {
                for (const GemmPlan &plan : layer.passes) {
                    const Gemm2DSpec spec = makeSpec(
                        plan.gemm, plan.dataflow, ev.rows, ev.cols);
                    auto [s, t] = cost_.tuneSliceCount(algo, spec);
                    ev.perGemm.emplace_back(s, t);
                    ev.blockFcTime += t; // 1e300 == out of memory
                }
            }
            if (tracing)
                traceShapeCandidate(algo, chips, ev.rows, ev.cols,
                                    /*feasible=*/true, ev.blockFcTime);
            evals[static_cast<size_t>(idx)] = std::move(ev);
        }
    });
    for (SearchTraceCapture &cap : captures)
        cap.flushToGlobal();

    // meshShapesOf yields increasing rows; the stable sort on time
    // keeps the lowest-rows candidate first on ties, so the ranking is
    // bit-identical for any MESHSLICE_THREADS.
    std::stable_sort(evals.begin(), evals.end(),
                     [](const ShapeEval &a, const ShapeEval &b) {
                         return a.blockFcTime < b.blockFcTime;
                     });

    std::vector<AutotuneResult> out;
    for (const ShapeEval &ev : evals) {
        if (static_cast<int>(out.size()) >= k)
            break;
        if (ev.blockFcTime >= 1e300)
            continue; // no slice count fit in memory at this shape
        AutotuneResult res;
        res.rows = ev.rows;
        res.cols = ev.cols;
        res.blockFcTime = ev.blockFcTime;
        res.layers = layers;
        size_t g = 0;
        for (FcLayerPlan &layer : res.layers)
            for (GemmPlan &plan : layer.passes) {
                plan.sliceCount = ev.perGemm[g].first;
                plan.estTime = ev.perGemm[g].second;
                ++g;
            }
        out.push_back(std::move(res));
    }
    if (out.empty())
        fatal("LlmAutotuner: no slice count fits %s (batch %lld, seqLen "
              "%lld) in HBM at any %s mesh shape of %d chips",
              model.name.c_str(), static_cast<long long>(train.batch),
              static_cast<long long>(train.seqLen), algorithmName(algo),
              chips);
    return out;
}

} // namespace meshslice
