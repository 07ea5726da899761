"""hstrata benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload enum|formula|cli|all --seed N \
        --seconds S --trace 0|1

Workloads (see benchmarks/README.md for why each exists):
  enum     tally_dimensions on five shapes by both routes, plus run_verify(9)
  formula  stratum_poly, closed_form_coeffs, stratum_series, series_pipeline_check
  cli      about a hundred `python -m hstrata ...` commands, one at a time

The op list of a workload is one pass.  Each pass runs in a fresh worker
interpreter, and passes repeat while another fits in --seconds (at least
one).  Every op's answer is checked after the timed region.  With --trace 0
the run reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced passes and reports the per-layer metrics, including the
tracing overhead.  Human-readable lines come first; the last line of
standard output is the result as one JSON object.

The program under test is the checkout's own src/ tree, never an installed
copy.  The run exits 2 without a result if that tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import inputs
import worker
from tracing import SPAN_NAMES

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
CLI_SUBCOMMANDS = ("dim", "count", "verify", "asymptotics", "lookup", "coeffs")

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.yielded" if name == "enumeration.cauchon_diagrams" else f"{name}.calls"] = "count"
    units.update({
        "enumeration.lookup.traces_per_call": "traces/call",
        "enumeration.tally_cache.hits": "count",
        "enumeration.tally_cache.misses": "count",
        "exactlinalg.kernel_dim.max_order": "count",
        "cli.startup_ms": "ms",
        **{f"cli.{sub}.p50_ms": "ms" for sub in CLI_SUBCOMMANDS},
        "cli.count_enum_miss_ms": "ms",
        "cli.count_enum_hit_ms": "ms",
        "enum.diagrams_per_s": "diagrams/s",
        "formula.shared_m_share": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead_share": "ratio",
        "trace.self_sum_share": "ratio",
    })
    for workload in ("enum", "formula"):
        for cls in sorted({op["cls"] for op in inputs.make_ops(workload, 0)}):
            units[f"{workload}.{cls}_ms"] = "ms"
    return units


def environment() -> dict[str, str]:
    """The fixed environment of every process the benchmark starts.

    PYTHON* variables are dropped so the user's settings (PYTHONDONTWRITEBYTECODE,
    PYTHONOPTIMIZE, PYTHONSTARTUP, ...) cannot change what is measured, and
    HSTRATA_CACHE_DIR is dropped so tallies are computed, not read from a
    cache a previous run filled.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON") and k != "HSTRATA_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def measure_setup(env: dict) -> tuple[list[dict], str]:
    """Fresh interpreters importing hstrata.cli: wall and start-up times.

    One untimed import first compiles the bytecode, so every timed probe
    imports already-compiled modules, as a user's second invocation does.
    Start-up is launch until hstrata.cli is imported, as the probe sees it.
    """
    probe = "import time; import hstrata.cli, hstrata; print(time.time(), hstrata.__version__)"
    cmd = [sys.executable, "-c", probe]
    first = worker.run_process(cmd, 60, env=env, cwd=ROOT)
    if first.returncode != 0:
        raise RuntimeError(f"cannot import hstrata from {ROOT / 'src'}:\n{first.stderr}")
    probes = []
    with worker.SpeedSampler() as sampler:
        for _ in range(SETUP_PROBES):
            launched = time.time()
            timing, (done, error) = worker.timed(lambda: worker.run_process(cmd, 60, env=env, cwd=ROOT), sampler)
            if error:
                raise RuntimeError(f"import probe failed:\n{error}")
            startup_s = float(done.stdout.split()[0]) - launched
            probes.append({**timing, "norm_startup_s": startup_s * timing["norm_s"] / timing["s"]})
    return probes, first.stdout.split()[1]


def run_pass(workload: str, ops: list, trace: bool, index: int, env: dict, deadline: float) -> dict:
    tag = f"{workload}-{os.getpid()}-{index}"
    span_dir = OUT / "spans" / workload / f"pass{index}"
    request = {
        "workload": workload,
        "ops": ops,
        "trace": trace,
        "root": str(ROOT),
        "span_dir": str(span_dir),
        "cache_dir": str(OUT / "cache" / tag),
    }
    req_path = OUT / "requests" / f"{tag}.json"
    req_path.parent.mkdir(parents=True, exist_ok=True)
    req_path.write_text(json.dumps(request))
    timeout = max(10.0, deadline - time.monotonic())
    try:
        done = worker.run_process([sys.executable, str(BENCH_DIR / "worker.py"), str(req_path)], timeout, env=env, cwd=ROOT)
    finally:
        req_path.unlink()
    if done.returncode != 0:
        raise RuntimeError(f"{workload} worker failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().split("\n")[-1])
    result["traced"] = trace
    result["raw_s"] = sum(r["s"] for r in result["records"])
    result["norm_s"] = sum(r["norm_s"] for r in result["records"])
    return result


def median_or_zero(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def class_medians(records: list[dict], key: str = "norm_s") -> dict[str, float]:
    """Median latency of each op class, in ms."""
    by_cls: dict[str, list[float]] = {}
    for r in records:
        by_cls.setdefault(r["cls"], []).append(1000 * r[key])
    return {cls: statistics.median(samples) for cls, samples in sorted(by_cls.items())}


def required_diagrams(op: dict) -> int:
    """Cauchon diagrams an enum op must visit, from its input alone."""
    if op["kind"] == "tally":
        return inputs.poly_bernoulli(op["m"], op["n"])
    return checks.verify_diagrams(op["cells"])


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not (ROOT / "src" / "hstrata" / "__init__.py").is_file():
        raise FileNotFoundError(f"no hstrata source tree at {ROOT / 'src'}")
    started = time.monotonic()
    deadline = started + WORKER_TIMEOUT_S
    env = environment()
    OUT.mkdir(exist_ok=True)
    if trace:
        shutil.rmtree(OUT / "spans" / workload, ignore_errors=True)

    probes, version = measure_setup(env)
    ops = inputs.make_ops(workload, seed)

    # Passes repeat while another fits in `seconds` of scaled op time, so the
    # number of passes does not follow the host's speed; a traced run needs
    # at least one pass of each kind.
    passes = []
    measured = 0.0
    first_pass = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(workload, ops, traced, len(passes), env, deadline)
        passes.append(result)
        measured += result["norm_s"]
        have_both = not trace or len(passes) >= 2
        next_end = time.monotonic() + (time.monotonic() - first_pass) / len(passes)
        if have_both and (measured + measured / len(passes) > seconds or next_end > deadline):
            break

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    plain_records = [r for p in plain for r in p["records"]]
    all_records = [r for p in passes for r in p["records"]]
    failures = [r for r in all_records if r["error"] or r.get("problems")]

    def end_to_end_metrics(key: str) -> dict:
        # Percentiles are taken per pass, then the median over passes, so
        # they do not depend on how many passes fitted in the run.
        per_pass = [[r[key] for r in p["records"]] for p in plain]
        return {
            "setup_s": statistics.median(p[key] for p in probes),
            "ops_per_s": len(plain_records) / sum(r[key] for r in plain_records),
            "op_p50_ms": 1000 * statistics.median(statistics.median(op_s) for op_s in per_pass),
            "op_p90_ms": 1000 * statistics.median(
                statistics.quantiles(op_s, n=10, method="inclusive")[-1] for op_s in per_pass
            ),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in plain),
        }

    end_to_end = end_to_end_metrics("norm_s")
    layer = per_layer(workload, ops, plain, traced_passes, probes) if trace else {}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "op_samples": len(plain_records),
        "p90_samples_above_per_pass": len(ops) - 1 - int(0.9 * (len(ops) - 1)),
        "attempted": len(all_records),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(all_records),
        "failures": [{"cls": r["cls"], "why": r["error"] or r["problems"]} for r in failures][:20],
        "op_class_ms": class_medians(plain_records),
        "op_class_raw_ms": class_medians(plain_records, "s"),
        "end_to_end": end_to_end,
        "end_to_end_raw": end_to_end_metrics("s"),
        "per_layer": layer,
        "wall_s": time.monotonic() - started,
        "passes_detail": [
            {"traced": p["traced"], "raw_s": p["raw_s"], "norm_s": p["norm_s"],
             "ops": [{k: r[k] for k in ("cls", "s", "norm_s", "ref_s")} for r in p["records"]]}
            for p in passes
        ],
        "meta": {
            "commit": git_commit(),
            "hstrata_version": version,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
    }


def per_layer(workload: str, ops: list, plain: list, traced: list, probes: list) -> dict:
    """Per-layer metrics; self times are scaled like the op times of their pass."""
    values = dict.fromkeys(per_layer_units(), 0.0)
    summaries = [t["trace"] for t in traced]
    speed = [t["norm_s"] / t["raw_s"] for t in traced]
    for name in SPAN_NAMES:
        values[f"{name}.self_s"] = statistics.median(s["self_s"][name] * f for s, f in zip(summaries, speed))
        if name == "enumeration.cauchon_diagrams":
            values[f"{name}.yielded"] = statistics.median(s["yielded"] for s in summaries)
        else:
            values[f"{name}.calls"] = statistics.median(s["calls"][name] for s in summaries)
    lookups = sum(s["lookups"] for s in summaries)
    values["enumeration.lookup.traces_per_call"] = sum(s["lookup_traces"] for s in summaries) / lookups if lookups else 0.0
    values["exactlinalg.kernel_dim.max_order"] = max(s["max_kernel_order"] for s in summaries)
    values["cli.startup_ms"] = 1000 * statistics.median(p["norm_startup_s"] for p in probes)

    records = [r for p in plain for r in p["records"]]
    if workload == "cli":
        cache = [r for p in traced + plain for r in p["records"] if r["cache"]]
        values["enumeration.tally_cache.hits"] = sum(r["cache"] == "hit" for r in cache) / len(traced + plain)
        values["enumeration.tally_cache.misses"] = sum(r["cache"] == "miss" for r in cache) / len(traced + plain)
        for sub in CLI_SUBCOMMANDS:
            values[f"cli.{sub}.p50_ms"] = median_or_zero([1000 * r["norm_s"] for r in records if r["sub"] == sub])
        for state in ("miss", "hit"):
            values[f"cli.count_enum_{state}_ms"] = median_or_zero([1000 * r["norm_s"] for r in records if r["cache"] == state])
    else:
        for cls, ms in class_medians(records).items():
            values[f"{workload}.{cls}_ms"] = ms
    if workload == "enum":
        values["enum.diagrams_per_s"] = sum(map(required_diagrams, ops)) * len(plain) / sum(r["norm_s"] for r in records)
    if workload == "formula":
        seen, shared, polys = set(), 0, 0
        for op in ops:
            if op["kind"] == "stratum_poly":
                polys += 1
                shared += op["m"] in seen
                seen.add(op["m"])
        values["formula.shared_m_share"] = shared / polys

    plain_s = statistics.median(p["norm_s"] for p in plain)
    traced_s = statistics.median(t["norm_s"] for t in traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_share"] = (traced_s - plain_s) / plain_s
    values["trace.self_sum_share"] = max(sum(t["trace"]["self_s"].values()) / t["raw_s"] for t in traced)
    return values


def print_report(res: dict) -> None:
    w = res["workload"]
    meta = res["meta"]
    print(
        f"# {w}: seed {res['seed']}, {res['passes']} passes of {res['ops_per_pass']} ops, "
        f"{res['op_samples']} timed ops ({res['p90_samples_above_per_pass']} above p90 in a pass), {res['wall_s']:.1f} s wall; "
        f"commit {meta['commit'][:12]}, hstrata {meta['hstrata_version']}, Python {meta['python']}, nproc {meta['nproc']}"
    )
    print(f"{w} fail_ratio {res['failed']}/{res['attempted']} = {res['fail_ratio']:.4f} failed/attempted")
    for f in res["failures"]:
        print(f"{w} FAILED {f['cls']}: {f['why']}")
    if res["trace"]:
        units = per_layer_units()
        for name, value in res["per_layer"].items():
            print(f"{w} {name} {value:.6g} {units[name]}")
    else:
        for name, value in res["end_to_end"].items():
            print(f"{w} {name} {value:.6g} {END_TO_END_UNITS[name]}")


def result_line(res: dict) -> dict:
    units = per_layer_units() if res["trace"] else END_TO_END_UNITS
    values = res["per_layer"] if res["trace"] else res["end_to_end"]
    return {
        "correct": res["failed"] == 0 and (not res["trace"] or values["trace.self_sum_share"] <= 1.0),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*inputs.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    # Every process of the run shares one CPU: the speed sampler then
    # measures the CPU the timed work runs on, and takes turns with it
    # instead of competing for a sibling core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workloads = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    lines = []
    try:
        for workload in workloads:
            res = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print_report(res)
            out = OUT / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(res, indent=1))
            lines.append((workload, result_line(res)))
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(lines) == 1:
        final = lines[0][1]
    else:
        final = {
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {f"{w}.{k}": v for w, line in lines for k, v in line["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
