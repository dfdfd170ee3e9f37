#include "tuner/explain.hpp"

#include <algorithm>

#include "core/fault_study.hpp"
#include "tuner/search_trace.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"

namespace meshslice {

void
mergeExplain(ExplainRecord &into, const ExplainRecord &add)
{
    into.span += add.span;
    for (int c = 0; c < kSpanCategoryCount; ++c)
        into.byCategory[c] += add.byCategory[c];
    into.whatifCompute2x += add.whatifCompute2x;
    into.whatifLink2x += add.whatifLink2x;
    into.nodeCount += add.nodeCount;
    into.attributionError =
        std::max(into.attributionError, add.attributionError);
    into.hotSpans.insert(into.hotSpans.end(), add.hotSpans.begin(),
                         add.hotSpans.end());
    std::stable_sort(into.hotSpans.begin(), into.hotSpans.end(),
                     [](const HotSpan &a, const HotSpan &b) {
                         return a.duration > b.duration;
                     });
    if (into.hotSpans.size() > 5)
        into.hotSpans.resize(5);
}

ExplainRecord
explainPlanGemms(const ChipConfig &chip, Algorithm algo,
                 const AutotuneResult &plan,
                 const std::vector<GemmPlan> &gemms, Time *sim_time)
{
    // One run per distinct spec; repeats fold their first occurrence's
    // analysis again, in GeMM order.
    const DistinctGemmSpecs distinct =
        distinctGemmSpecs(plan, gemms, chip.bytesPerElement);
    std::vector<Time> times;
    std::vector<ExplainRecord> recs(distinct.specs.size());
    for (size_t d = 0; d < distinct.specs.size(); ++d)
        times.push_back(runGemmUnderScenario(chip, algo, distinct.specs[d],
                                             nullptr, nullptr, &recs[d])
                            .time);
    ExplainRecord agg;
    Time total = 0.0;
    for (size_t d : distinct.slot) {
        total += times[d];
        mergeExplain(agg, recs[d]);
    }
    if (sim_time != nullptr)
        *sim_time = total;
    return agg;
}

std::string
explainRecordJson(const char *context, Algorithm algo, int chips, int rank,
                  int rows, int cols, Time sim_time,
                  const ExplainRecord &rec)
{
    std::string categories = "{";
    for (int c = 0; c < kSpanCategoryCount; ++c) {
        if (c > 0)
            categories += ",";
        categories += strprintf(
            "\"%s\":%s",
            spanCategoryName(static_cast<SpanCategory>(c)),
            jsonNumber(rec.byCategory[c]).c_str());
    }
    categories += "}";

    std::string hot = "[";
    for (size_t i = 0; i < rec.hotSpans.size(); ++i) {
        const HotSpan &h = rec.hotSpans[i];
        if (i > 0)
            hot += ",";
        hot += strprintf("{\"name\":%s,\"chip\":%d,\"dur_s\":%s,"
                         "\"slack_s\":%s}",
                         jsonString(h.name).c_str(), h.chip,
                         jsonNumber(h.duration).c_str(),
                         jsonNumber(h.slack).c_str());
    }
    hot += "]";

    return strprintf(
        "{\"phase\":\"explain\",\"context\":%s,\"algo\":%s,"
        "\"chips\":%d,\"rank\":%d,\"rows\":%d,\"cols\":%d,"
        "\"sim_s\":%s,\"span_s\":%s,\"categories\":%s,\"hot\":%s,"
        "\"whatif_compute2x_s\":%s,\"whatif_link2x_s\":%s,"
        "\"nodes\":%d,\"attr_err_s\":%s}",
        jsonString(context).c_str(),
        jsonString(algorithmName(algo)).c_str(), chips, rank, rows, cols,
        jsonNumber(sim_time).c_str(), jsonNumber(rec.span).c_str(),
        categories.c_str(), hot.c_str(),
        jsonNumber(rec.whatifCompute2x).c_str(),
        jsonNumber(rec.whatifLink2x).c_str(), rec.nodeCount,
        jsonNumber(rec.attributionError).c_str());
}

std::vector<CandidateExplain>
explainShortlist(const LlmAutotuner &tuner, Algorithm algo,
                 const TransformerConfig &model, const TrainingConfig &train,
                 int chips, int k, bool optimize_dataflow, int max_gemms)
{
    const std::vector<AutotuneResult> shortlist =
        tuner.rankShapes(algo, model, train, chips, k, optimize_dataflow);
    const ChipConfig &chip = tuner.cost().chip();

    std::vector<CandidateExplain> out;
    out.reserve(shortlist.size());
    for (size_t ci = 0; ci < shortlist.size(); ++ci) {
        CandidateExplain cand;
        cand.rank = static_cast<int>(ci);
        cand.plan = shortlist[ci];
        std::vector<GemmPlan> gemms = cand.plan.allPlans();
        if (max_gemms > 0 &&
            static_cast<int>(gemms.size()) > max_gemms)
            gemms.resize(static_cast<size_t>(max_gemms));
        cand.explain = explainPlanGemms(chip, algo, cand.plan, gemms,
                                        &cand.simTime);
        if (SearchTrace::global().enabled())
            SearchTrace::global().record(explainRecordJson(
                "shape", algo, chips, cand.rank, cand.plan.rows,
                cand.plan.cols, cand.simTime, cand.explain));
        out.push_back(std::move(cand));
    }
    return out;
}

} // namespace meshslice
