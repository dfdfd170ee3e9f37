/**
 * @file
 * Line-delimited JSON plan server over the PlanEngine.
 *
 * Usage:
 *   plan_server [queries.ndjson] [--cache FILE] [--threads N]
 *
 * Each non-empty input line (from the file, or stdin when no file is
 * given) is one JSON query — see `planQueryFromJson` for the schema.
 * All queries are served concurrently through `PlanEngine::planMany`
 * and the responses print to stdout *in input order* (deterministic
 * regardless of thread count), one JSON object per line:
 *
 *   {"index":0,"id":"q0","source":"cold","digest":"...","plan":{...}}
 *
 * `--cache FILE` warm-starts the engine from a persisted plan cache
 * (if the file exists) and writes the cache back on exit, so a
 * restarted server serves repeat queries as cache hits. `--threads N`
 * (1..512, the `MESHSLICE_THREADS` cap) resizes the global pool
 * (default: MESHSLICE_THREADS / hardware).
 *
 * With no input file and no piped stdin the server runs a built-in
 * demo: a cold query, an identical repeat (cache hit) and a
 * fault-profile variant (incremental re-tune), printing the served
 * sources and the engine's cache counters.
 */
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "bench/common.hpp"
#include "engine/plan_engine.hpp"
#include "engine/plan_json.hpp"
#include "util/json.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

using namespace meshslice;

namespace {

/** The demo workload: small enough to tune in well under a second. */
TransformerConfig
demoModel()
{
    TransformerConfig model;
    model.name = "demo-1b";
    model.layers = 4;
    model.hiddenDim = 2048;
    model.heads = 16;
    model.ffnDim = 8192;
    return model;
}

PlanQuery
demoQuery(std::uint64_t fault_seed)
{
    PlanQuery q;
    q.model = demoModel();
    q.chips = 16;
    q.train = TrainingConfig::weakScaling(q.chips);
    q.chip = tpuV4Config();
    q.runRobust = true;
    q.robust.topK = 2;
    q.robust.numScenarios = 2;
    q.robust.maxGemmsPerEval = 2;
    q.robust.seed = fault_seed;
    q.runRecovery = true;
    q.recovery.chipMtbf = 30.0 * 24 * 3600;
    q.recovery.checkpointBytesPerChip = GiB(1.0);
    q.recovery.topK = 2;
    return q;
}

int
runDemo(PlanEngine &engine)
{
    std::cout << "plan_server demo (no query file; see --help)\n"
              << "phases:";
    for (const std::string &name : PlanEngine::phaseNames())
        std::cout << " " << name;
    std::cout << "\n\n";

    struct Step
    {
        const char *what;
        PlanQuery query;
    };
    const std::vector<Step> steps = {
        {"cold tune", demoQuery(7)},
        {"identical repeat", demoQuery(7)},
        {"fault-profile variant", demoQuery(8)},
    };
    for (const Step &step : steps) {
        const PlanResult r = engine.plan(step.query);
        std::cout << step.what << ": source=" << planSourceName(r.source)
                  << " digest=" << r.key.digest() << " mesh="
                  << r.plan.tp.rows << "x" << r.plan.tp.cols
                  << " pickedBy=" << r.plan.pickedBy << "\n";
    }
    std::cout << "\ncache counters:\n";
    for (const char *name :
         {"engine/cache/hit", "engine/cache/miss", "engine/cache/insert",
          "engine/cache/base_hit", "engine/serve/computed"})
        std::cout << "  " << name << " = "
                  << static_cast<long>(engine.stats().counter(name))
                  << "\n";
    return 0;
}

/** Largest `--threads`, the same cap `MESHSLICE_THREADS` has. */
constexpr std::int64_t kMaxThreads = 512;

std::string
usageText(const char *argv0)
{
    return strprintf(
        "usage: %s [queries.ndjson] [--cache FILE] [--threads N]\n"
        "  reads one JSON query per line (stdin when no file is piped),\n"
        "  writes one JSON response per line in input order.\n"
        "  --threads N sizes the pool, 1 <= N <= %lld.\n"
        "  With no file and a terminal stdin, runs a built-in demo.",
        argv0, static_cast<long long>(kMaxThreads));
}

[[noreturn]] void
usage(const char *argv0)
{
    std::cerr << usageText(argv0) << "\n";
    exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string input_path;
    std::string cache_path;
    int threads = 0; // 0 = keep the default pool
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc)
                fatal("plan_server: %s needs a value", flag);
            return argv[++i];
        };
        if (arg == "--cache")
            cache_path = value("--cache");
        else if (arg == "--threads") {
            const std::string text = value("--threads");
            const auto v = parsePositiveInt(text.c_str(), kMaxThreads);
            if (!v)
                fatal("plan_server: --threads must be an integer in "
                      "1..%lld, got '%s'\n%s",
                      static_cast<long long>(kMaxThreads), text.c_str(),
                      usageText(argv[0]).c_str());
            threads = static_cast<int>(*v);
        } else if (arg == "--help" || arg == "-h")
            usage(argv[0]);
        else if (!arg.empty() && arg[0] == '-')
            usage(argv[0]);
        else if (input_path.empty())
            input_path = arg;
        else
            usage(argv[0]);
    }
    if (threads > 0)
        ThreadPool::setGlobalThreads(threads);

    PlanEngine::Options options;
    options.persistPath = cache_path;
    PlanEngine engine(options);

    if (input_path.empty() && isatty(STDIN_FILENO)) {
        const int rc = runDemo(engine);
        if (!cache_path.empty())
            engine.persist();
        return rc;
    }

    std::ifstream file;
    std::istream *in = &std::cin;
    if (!input_path.empty()) {
        file.open(input_path);
        if (!file.is_open())
            fatal("plan_server: cannot open %s", input_path.c_str());
        in = &file;
    }
    const std::string source =
        input_path.empty() ? "<stdin>" : input_path;

    const ChipConfig chip = tpuV4Config();
    std::vector<PlanQuery> queries;
    std::vector<std::string> ids;
    std::string line;
    size_t lineno = 0;
    while (std::getline(*in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        const std::string ctx = strprintf("%s:%zu", source.c_str(),
                                          lineno);
        const JsonValue root = parseJson(line, "PlanQuery", ctx);
        std::string id;
        if (const JsonValue *idv = root.find("id")) {
            if (idv->kind != JsonValue::kString)
                fatal("PlanQuery: %s: \"id\" must be a string",
                      ctx.c_str());
            id = idv->str;
        }
        queries.push_back(planQueryFromValue(root, chip, ctx));
        ids.push_back(id);
    }

    const std::vector<PlanResult> results = engine.planMany(queries);
    for (size_t i = 0; i < results.size(); ++i) {
        const PlanResult &r = results[i];
        std::cout << "{\"index\":" << i;
        if (!ids[i].empty())
            std::cout << ",\"id\":" << jsonString(ids[i]);
        std::cout << ",\"source\":" << jsonString(planSourceName(r.source))
                  << ",\"digest\":" << jsonString(r.key.digest())
                  << ",\"plan\":" << r.planJson << "}\n";
    }
    if (!cache_path.empty())
        engine.persist();
    return 0;
}
