#!/usr/bin/env bash
# Runs the observability report (and, when given, the robustness,
# recovery, pipeline, explain, micro-kernel, one-sided, elastic and
# plan-server reports) in a scratch directory
# and validates every JSON artifact they produce with
# `python3 -m json.tool`, plus per-line checks of the JSONL search
# traces. A missing-but-expected artifact is a failure — including a
# BENCH_kernels.json without its sim_throughput section. Reports run
# in `--smoke` mode (shrunken sweeps, same JSON schema) to keep the
# tier-1 `check_json` ctest and the `check-json` build target fast.
#
# Usage: check_json.sh <report binary>... [chips]
#
# Each report binary is recognised by its file name, in any order:
# observability_report (required), robustness_report, recovery_report,
# pipeline_report, explain_report, micro_kernels, onesided_report,
# elastic_report and plan_server_report. An argument that is not an
# executable file is the chip count (default 16).
set -euo pipefail

declare -A bin=()
chips=16
for arg in "$@"; do
    if [ -f "$arg" ] && [ -x "$arg" ]; then
        name=$(basename "$arg")
        case $name in
            observability_report | robustness_report | recovery_report | \
            pipeline_report | explain_report | micro_kernels | \
            onesided_report | elastic_report | plan_server_report)
                bin[$name]=$(readlink -f "$arg") ;;
            *)
                echo "check_json.sh: unknown report binary: $arg" >&2
                exit 2 ;;
        esac
    else
        chips=$arg
    fi
done
have() { [ -n "${bin[$1]:-}" ]; }
if ! have observability_report; then
    echo "check_json.sh: no observability_report binary given" >&2
    exit 2
fi
python3=${PYTHON3:-python3}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir"

"${bin[observability_report]}" "$chips" --smoke > report.out

status=0
check_file() {
    local f=$1
    if [ ! -f "$f" ]; then
        echo "FAIL $f was not produced"
        status=1
    elif "$python3" -m json.tool "$f" > /dev/null; then
        echo "ok   $f"
    else
        echo "FAIL $f is not valid JSON"
        status=1
    fi
}

# JSONL: every non-empty line must be its own JSON document.
check_jsonl() {
    local f=$1
    if [ ! -f "$f" ]; then
        echo "FAIL $f was not produced"
        status=1
        return
    fi
    if "$python3" - "$f" <<'EOF'
import json, sys

path = sys.argv[1]
lines = 0
with open(path) as fh:
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            json.loads(line)
        except json.JSONDecodeError as exc:
            sys.exit("%s:%d: %s" % (path, lineno, exc))
        lines += 1
if lines == 0:
    sys.exit("%s: no records" % path)
EOF
    then
        echo "ok   $f"
    else
        echo "FAIL $f"
        status=1
    fi
}

for f in BENCH_observability.json observability_trace.json \
         observability_stats.json; do
    check_file "$f"
done
check_jsonl tuner_search.jsonl

if have robustness_report; then
    "${bin[robustness_report]}" "$chips" --smoke > robust_report.out
    for f in BENCH_robustness.json robustness_scenario.json; do
        check_file "$f"
    done
    check_jsonl robust_search.jsonl
fi

if have recovery_report; then
    "${bin[recovery_report]}" "$chips" --smoke > recovery_report.out
    for f in BENCH_recovery.json recovery_scenario.json; do
        check_file "$f"
    done
    check_jsonl recovery_search.jsonl
    # The recovery report embeds its own acceptance checks (goodput
    # monotone in MTBF, the Young-Daly optimum within the sweep's
    # resolution, the simulated re-shard matching its model, the kill
    # retried, the fault-free replay bit-identical); every one must
    # hold.
    if "$python3" - BENCH_recovery.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = {}
for path in ("goodput_sweep.monotone_nonincreasing",
             "young_daly_check.within_resolution",
             "plan_reshard_matches_model", "kill_retry.retried",
             "kill_retry.fault_free_bit_identical"):
    node = doc
    for key in path.split("."):
        node = node.get(key) if isinstance(node, dict) else None
    checks[path] = node
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_recovery.json checks failed: %s" % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_recovery.json checks"
    else
        echo "FAIL BENCH_recovery.json checks"
        status=1
    fi
fi

if have pipeline_report; then
    # The pipeline report sizes its own clusters (GPT-3 vs Megatron-NLG
    # need different factorizations), so it runs at its built-in default
    # chip count rather than the shared positional one.
    "${bin[pipeline_report]}" --smoke > pipeline_report.out
    check_file BENCH_pipeline.json
    check_jsonl pipeline_search.jsonl
    # The report embeds its own acceptance cross-checks; surface them.
    if "$python3" - BENCH_pipeline.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = doc.get("cross_checks", {})
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_pipeline.json cross-checks failed: %s" % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_pipeline.json cross-checks"
    else
        echo "FAIL BENCH_pipeline.json cross-checks"
        status=1
    fi
fi

if have explain_report; then
    "${bin[explain_report]}" "$chips" --smoke > explain_report.out
    check_file BENCH_explain.json
    check_file explain_trace.json
    check_jsonl explain_search.jsonl
    # The profiler report embeds its own acceptance cross-checks
    # (attribution identity, what-if validation, bit-identical-off,
    # disabled overhead); every one must hold.
    if "$python3" - BENCH_explain.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = doc.get("cross_checks", {})
if not checks:
    sys.exit("BENCH_explain.json: missing cross_checks section")
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_explain.json cross-checks failed: %s" % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_explain.json cross-checks"
    else
        echo "FAIL BENCH_explain.json cross-checks"
        status=1
    fi
fi

if have micro_kernels; then
    # The micro-kernel bench's positional argument is the GeMM dim,
    # not a chip count; --smoke picks its own sizes.
    "${bin[micro_kernels]}" --smoke > micro_kernels.out
    check_file BENCH_kernels.json
    # The sim_throughput section (parallel-simulation PR) must be
    # present, with the bench's own determinism check true.
    if "$python3" - BENCH_kernels.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
sim = doc.get("sim_throughput")
if sim is None:
    sys.exit("BENCH_kernels.json: missing sim_throughput section")
for key in ("batched", "candidates"):
    if key not in sim:
        sys.exit("BENCH_kernels.json: sim_throughput missing %r" % key)
checks = {
    "picks_identical": sim["candidates"].get("picks_identical"),
}
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_kernels.json sim_throughput checks failed: %s"
             % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_kernels.json sim_throughput"
    else
        echo "FAIL BENCH_kernels.json sim_throughput"
        status=1
    fi
fi

if have onesided_report; then
    "${bin[onesided_report]}" "$chips" --smoke > onesided_report.out
    check_file BENCH_onesided.json
    check_jsonl onesided_search.jsonl
    # The one-sided report embeds its own acceptance cross-checks
    # (functional identity, fault-free parity, straggler dominance,
    # kill bounded by one detection, robust pick flip); every one must
    # hold.
    if "$python3" - BENCH_onesided.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = doc.get("cross_checks", {})
if not checks:
    sys.exit("BENCH_onesided.json: missing cross_checks section")
for key in ("functional_identity", "faultfree_parity",
            "straggler_dominance", "kill_bounded_by_one_detection",
            "robust_pick_flip"):
    if key not in checks:
        sys.exit("BENCH_onesided.json: cross_checks missing %r" % key)
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_onesided.json cross-checks failed: %s" % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_onesided.json cross-checks"
    else
        echo "FAIL BENCH_onesided.json cross-checks"
        status=1
    fi
fi

if have elastic_report; then
    "${bin[elastic_report]}" "$chips" --smoke > elastic_report.out
    for f in BENCH_elastic.json elastic_scenario.json \
             elastic_stats.json; do
        check_file "$f"
    done
    check_jsonl elastic_trace.jsonl
    # The elastic report embeds its own acceptance cross-checks
    # (fault-free bit-identity with the plain step loop, measured
    # goodput within the analytic model-error band, goodput monotone
    # in MTBF, bit-exact functional state, byte-identical seeded
    # replay); every one must hold.
    if "$python3" - BENCH_elastic.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = doc.get("cross_checks", {})
if not checks:
    sys.exit("BENCH_elastic.json: missing cross_checks section")
for key in ("faultfree_bit_identity", "goodput_within_band",
            "goodput_monotone_mtbf", "functional_identity",
            "replay_bit_identical"):
    if key not in checks:
        sys.exit("BENCH_elastic.json: cross_checks missing %r" % key)
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_elastic.json cross-checks failed: %s" % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_elastic.json cross-checks"
    else
        echo "FAIL BENCH_elastic.json cross-checks"
        status=1
    fi
fi

if have plan_server_report; then
    "${bin[plan_server_report]}" "$chips" --smoke > plan_server_report.out
    for f in BENCH_planserver.json plan_server_cache.json; do
        check_file "$f"
    done
    # The plan-serving report embeds its own acceptance cross-checks
    # (warm hits byte-identical to the cold serve, incremental re-tune
    # bit-identical to the cold full tune, thread-count invariance, the
    # promised >= 5x warm speedup, persistence round-trip); every one
    # must hold.
    if "$python3" - BENCH_planserver.json <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    doc = json.load(fh)
checks = doc.get("cross_checks", {})
if not checks:
    sys.exit("BENCH_planserver.json: missing cross_checks section")
for key in ("warm_hit_identical", "incremental_equals_full",
            "thread_invariant", "warm_speedup_5x", "persist_roundtrip"):
    if key not in checks:
        sys.exit("BENCH_planserver.json: cross_checks missing %r" % key)
bad = [k for k, v in checks.items() if v is not True]
if bad:
    sys.exit("BENCH_planserver.json cross-checks failed: %s"
             % ", ".join(bad))
EOF
    then
        echo "ok   BENCH_planserver.json cross-checks"
    else
        echo "FAIL BENCH_planserver.json cross-checks"
        status=1
    fi
fi

exit $status
