"""One pass of a workload's op list, in a fresh interpreter.

Usage: python worker.py REQUEST_JSON

The request names the workload, its ops, the checkout root, whether to
trace, and where to put spans and cache directories.  The ops run one at a
time (a closed loop with one client); each is timed alone.  After the timed
region the worker records its peak RSS, writes its spans, then checks every
answer.  The last line of standard output is the pass result as JSON.

A fresh interpreter per pass keeps the program's own caches (the
lru_cache on stratum_poly and stirling2) cold at the start of every pass.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import checks
import inputs
from tracing import Tracer, merge

CLI_TIMEOUT_S = 60

# The host's speed swings by up to 2x within seconds (other tenants), so
# timings are scaled to a nominal speed: multiplied by REF_NOMINAL_S over the
# mean time of a small reference task sampled around them (and, inside the
# in-process workers, every SAMPLE_PERIOD_S while they run).  The task is the
# benchmark's own Cauchon enumeration and pipe walk on the 2x3 grid
# (inputs.py): it allocates and iterates like the program does and shares no
# code with it.  REF_NOMINAL_S is its time on a quiet 2-CPU box, so scaled
# times read as seconds there.
REF_NOMINAL_S = 0.0004
SAMPLE_PERIOD_S = 0.03


def _reference_task() -> None:
    for cells in inputs.cauchon_cells(2, 3):
        inputs.walk_permutation(inputs.to_text(cells, 3))


def reference_s() -> float:
    """Time of the reference task, run once untimed first so that what the
    timed work left in the caches does not count."""
    _reference_task()
    t0 = perf_counter()
    _reference_task()
    return perf_counter() - t0


class SpeedSampler:
    """Samples reference_s() on a SIGALRM interval timer.

    The sampling time is kept apart, so an op's own time can exclude it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        self.samples.append(reference_s())
        self.spent_s += perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def sampling(req: dict):
    """A SpeedSampler for an untraced pass.  A traced pass uses only the
    samples around each op, because the sampler's signal handler would run
    inside the spans and count as the traced functions' own time."""
    return nullcontext() if req["trace"] else SpeedSampler()


def timed(fn, sampler: SpeedSampler | None = None) -> tuple[dict, object]:
    """Run fn once; its time, the reference samples around it, and its result.

    Returns ({"s", "norm_s", "ref_s"}, (result, error text or None)).
    """
    refs = [reference_s() for _ in range(3)]
    first, spent = (len(sampler.samples), sampler.spent_s) if sampler else (0, 0.0)
    t0 = perf_counter()
    try:
        outcome = (fn(), None)
    except Exception:  # the op failed; the pass goes on
        outcome = (None, traceback.format_exc(limit=3))
    s = perf_counter() - t0
    if sampler:
        s -= sampler.spent_s - spent
        refs += sampler.samples[first:]
    refs += [reference_s() for _ in range(3)]
    ref_s = sum(refs) / len(refs)
    return {"s": s, "norm_s": s * REF_NOMINAL_S / ref_s, "ref_s": ref_s}, outcome


def run_process(cmd: list[str], timeout: float, input: str | None = None, **kwargs) -> subprocess.CompletedProcess:
    """subprocess.run in its own session, so a timeout kills the whole group."""
    with subprocess.Popen(
        cmd, start_new_session=True, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, **kwargs
    ) as proc:
        try:
            out, err = proc.communicate(input, timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
        return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def _in_process_call(hstrata, op: dict):
    """Look the entry point up at call time, so traced wrappers are used."""
    kind = op["kind"]
    if kind == "tally":
        return hstrata.enumeration.tally_dimensions(op["m"], op["n"], op["method"])
    if kind == "verify":
        return hstrata.cli.run_verify(op["cells"])
    if kind == "stratum_poly":
        return hstrata.genfunc.stratum_poly(op["m"], op["n"])
    if kind == "closed_form_coeffs":
        return hstrata.genfunc.closed_form_coeffs(op["m"], op["d"])
    if kind == "stratum_series":
        return hstrata.genfunc.stratum_series(op["order"], op["order"])
    if kind == "series_pipeline_check":
        return hstrata.genfunc.series_pipeline_check(op["order"], op["order"])
    raise ValueError(f"unknown op kind {kind!r}")


def run_in_process(req: dict) -> dict:
    import hstrata
    import hstrata.cli

    src = Path(req["root"]) / "src"
    if Path(hstrata.__file__).resolve().parent.parent != src.resolve():
        raise RuntimeError(f"imported hstrata from {hstrata.__file__}, not from {src}")
    tracer = Tracer() if req["trace"] else None
    if tracer:
        tracer.install()

    records, answers = [], []
    with sampling(req) as sampler:
        for op in req["ops"]:
            timing, (answer, error) = timed(lambda: _in_process_call(hstrata, op), sampler)
            records.append({"cls": op["cls"], **timing, "error": error})
            answers.append(answer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    trace = None
    if tracer:
        trace = tracer.summary()
        tracer.write(Path(req["span_dir"]) / "spans")
    for op, rec, answer in zip(req["ops"], records, answers):
        if rec["error"] is None:
            rec["problems"] = _checked(lambda: checks.check_in_process(op, answer, hstrata))
    return {"peak_rss_mb": peak_rss_mb, "records": records, "trace": trace}


def run_cli(req: dict) -> dict:
    root = Path(req["root"])
    cache_root = Path(req["cache_dir"])
    span_dir = Path(req["span_dir"])
    shim = Path(__file__).resolve().parent / "shim.py"
    records, outputs = [], []
    try:
        with sampling(req) as sampler:
            for i, op in enumerate(req["ops"]):
                argv = list(op["argv"])
                cache_state = None
                if "cache" in op:
                    cache = cache_root / op["cache"]
                    # hit or miss, judged from outside: is anything cached yet?
                    cache_state = "hit" if cache.is_dir() and any(cache.iterdir()) else "miss"
                    argv += ["--cache-dir", str(cache)]
                if req["trace"]:
                    cmd = [sys.executable, str(shim), str(span_dir / f"cmd{i:03d}"), "--", *argv]
                else:
                    cmd = [sys.executable, "-m", "hstrata", *argv]
                timing, (done, error) = timed(lambda: run_process(cmd, CLI_TIMEOUT_S, input=op["stdin"], cwd=root), sampler)
                records.append({"cls": op["cls"], "sub": argv[0], **timing, "cache": cache_state, "error": error,
                                "exit": done.returncode if done else None})
                outputs.append(done.stdout if done else "")
        # Largest RSS of any command run so far; nothing else has been started.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        shutil.rmtree(cache_root, ignore_errors=True)

    trace = None
    if req["trace"]:
        trace = merge([json.loads(p.read_text()) for p in sorted(span_dir.glob("cmd*.summary.json"))])
    for op, rec, out in zip(req["ops"], records, outputs):
        if rec["error"] is None:
            rec["problems"] = _checked(lambda: checks.check_cli(op, rec["exit"], out))
    return {"peak_rss_mb": peak_rss_mb, "records": records, "trace": trace}


def _checked(check) -> list[str]:
    try:
        return check()
    except Exception:  # an answer the check cannot even parse is wrong
        return [traceback.format_exc(limit=3)]


def main() -> None:
    req = json.loads(Path(sys.argv[1]).read_text())
    result = run_cli(req) if req["workload"] == "cli" else run_in_process(req)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
