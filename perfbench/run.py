"""Run one cliffcat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; cliffcat is imported from ``src/`` next to this
directory.  One client runs one op at a time in this process (a closed
loop), in whole rounds of the workload's ``round_ops`` ops, until the ops'
own time reaches ``--seconds``.  Each op's output is checked and
digested after its timer stops.  Caches are neither cleared nor warmed
between ops: the run pays the lazy fills a fresh cliffcat process pays.
Every reported time, and the op time that ends a run, is scaled to a
nominal machine speed by a reference loop timed between ops (speed.py);
the report line also carries the unscaled figures.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs the
same command with ``--trace 0`` in a child process, then repeats exactly the
child's ops here with every layer wrapped (see tracing.py), and reports the
per-layer metrics.  The traced ops must reproduce the child's digest.

stdout ends with a ``perfbench-report`` line (env, src_lines, digest,
failures) and then one JSON line: correct, attempted, failed, metrics.  The
same data, plus the first ops' spans, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REPORT_TAG = "perfbench-report "
SETUP_PROBES = 21
REF_EVERY_S = 0.25  # op time between two runs of the reference loop

# Bypass predictions, checked by every traced run: the traced functions
# each workload calls.  Every other traced function must show 0 calls on
# that workload, and the listed counts must be nonzero (see README.md).
_ASSOC_CALLS = {
    "kzero.mult", "kzero.mult_mono", "kzero.higher_mult", "kzero.m_slices",
    "laurent.arith", "laurent.specialize_h",
}
CALLED = {
    "assoc-n5": _ASSOC_CALLS,
    "assoc-n10": _ASSOC_CALLS,
    "lift-n4": {
        "catun.lift_word", "catun.rho",
        "complexes.tensor_f2", "complexes.lift_to_box",
        "complexes.delta_square", "complexes.verify_mc",
        "bimodule.tensor_T", "bimodule.act_element",
        "bimodule.right_act_chainmap", "bimodule.t_pair",
        "boxalgebra.normal_form", "boxalgebra.hom_basis", "boxalgebra.diff",
        "quiver.box_arrow_targets", "gf2.solve", "ralgebra.mult_r",
        "ralgebra.mult_rr", "kzero.m_slices",
    },
    "box-sweep-n3": {
        "boxalgebra.build_all", "boxalgebra.normal_form",
        "boxalgebra.cohomology_dims", "boxalgebra.diff", "boxalgebra.h_map",
        "quiver.box_arrow_targets", "gf2.rank", "ralgebra.mult_rr",
    },
}
_ASSOC_COUNTS = ["kzero.m_slices.useful_ratio", "kzero.pair_data.currsize"]
COUNTED = {
    "assoc-n5": _ASSOC_COUNTS,
    "assoc-n10": _ASSOC_COUNTS,
    "lift-n4": [
        "catun.rho.summands_out", "catun.rho.delta_out", "boxalgebra.classes",
        "gf2.solve.rows", "bimodule.t_pair.currsize", "ralgebra.forced_pairs.currsize",
    ],
    "box-sweep-n3": ["boxalgebra.classes", "gf2.rank.rows", "ralgebra.forced_pairs.currsize"],
}


def bypass_problems(workload, metrics):
    """Where the traced metrics contradict the workload's predictions."""
    problems = []
    for name in tracing.SPANS:
        calls = metrics[f"{name}.calls"][0]
        if name in CALLED[workload] and not calls:
            problems.append(f"predicted nonzero, measured 0: {name}.calls")
        if name not in CALLED[workload] and calls:
            problems.append(f"predicted 0, measured {calls}: {name}.calls")
    for name in COUNTED[workload]:
        if not metrics[name][0]:
            problems.append(f"predicted nonzero, measured 0: {name}")
    return problems


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# measurement


def measure_setup(modules):
    """Median launch-to-ready time of fresh processes importing ``modules``.

    The reference loop runs before the first probe and after each one; a
    probe's time is scaled by the two loop times around it (see speed.py).
    This process and the probes share one CPU meanwhile, so that loop and
    probe see the same core's speed.  Returns the median scaled and the
    median raw time.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        times, refs = probe_setup(modules)
    finally:
        os.sched_setaffinity(0, cpus)
    scaled = [t * speed.scale(refs[i:i + 2]) for i, t in enumerate(times)]
    return statistics.median(scaled), statistics.median(times)


def probe_setup(modules):
    """Raw probe times, and the reference loop times around them."""
    times = []
    refs = [speed.measure()]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), *modules],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        times.append(elapsed)
        refs.append(speed.measure())
    return times, refs


def run_ops(wl, seconds=None, n_ops=None, tracer=None):
    """Run ``n_ops`` ops, or whole rounds of ``wl.round_ops`` ops until ``seconds``.

    Without ``n_ops``, the run ends after the first whole round at which
    the scaled op time has reached ``seconds``.

    The reference loop of speed.py runs before the first op, after every
    ``REF_EVERY_S`` of op time and after the last op.  Each op's time is
    scaled by the mean of the two loop times around it: the machine's
    speed can change within a second, so a wider window tracks it worse.
    """
    latencies = []
    refs = [speed.measure()]
    marks = [0]  # number of ops run when each reference was measured
    errors = []
    failed = 0
    digest = hashlib.sha256()
    clock = time.perf_counter
    busy = 0.0  # scaled op time so far, by the latest reference
    since_ref = 0.0
    while (len(latencies) < n_ops) if n_ops is not None else (
        busy < seconds or len(latencies) % wl.round_ops
    ):
        inp = wl.next_input()
        if tracer is not None:
            tracer.start_op(len(latencies))
        t0 = clock()
        try:
            out = wl.op(inp)
            error = None
        except Exception as exc:  # a failed op is counted; the run goes on
            error = f"op raised {type(exc).__name__}: {exc}"
        dt = clock() - t0
        if tracer is not None:
            tracer.stop_op()
        latencies.append(dt)
        busy += dt * speed.scale(refs[-1:])
        since_ref += dt
        if since_ref >= REF_EVERY_S:
            refs.append(speed.measure())
            marks.append(len(latencies))
            since_ref = 0.0
        if error is None:
            try:
                error = wl.check(inp, out)
                digest.update(wl.digest(out).encode())
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failed += 1
            digest.update(f"failed op {len(latencies) - 1}".encode())
            if len(errors) < 5:
                errors.append(error)
    if marks[-1] != len(latencies):
        refs.append(speed.measure())
        marks.append(len(latencies))
    scaled = []
    for k in range(len(marks) - 1):
        factor = speed.scale(refs[k:k + 2])
        scaled += [dt * factor for dt in latencies[marks[k]:marks[k + 1]]]
    return {
        "latencies": scaled,
        "raw_latencies": latencies,
        "ref_ms_p50": statistics.median(refs) * 1e3,
        "failed": failed,
        "errors": errors,
        "digest": digest.hexdigest(),
    }


def environment():
    sources = sorted((SRC / "cliffcat").rglob("*.py"))
    blob = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        blob.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": blob.hexdigest(),
    }
    return env, lines


# ---------------------------------------------------------------------------
# the two kinds of run


def load(workload, seed):
    """Import the workload's cliffcat modules, then build its inputs."""
    modules, make = workloads.WORKLOADS[workload]
    for name in modules:
        importlib.import_module(name)
    return make(seed)


def timings(latencies, failed):
    """Passed ops per second of op time, and the p50 and p90 latency in ms."""
    pct = statistics.quantiles(latencies, n=100, method="inclusive")
    return (len(latencies) - failed) / sum(latencies), pct[49] * 1e3, pct[89] * 1e3


def untraced(args):
    setup_s, raw_setup_s = measure_setup(workloads.WORKLOADS[args.workload][0])
    wl = load(args.workload, args.seed)
    tracing.assert_unwrapped()
    res = run_ops(wl, seconds=args.seconds)
    rate, p50, p90 = timings(res["latencies"], res["failed"])
    metrics = {
        "ops_per_s": (rate, "1/s"),
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw_rate, raw_p50, raw_p90 = timings(res["raw_latencies"], res["failed"])
    report = {
        "ops": len(res["latencies"]),
        "failed": res["failed"],
        "fail_ratio": res["failed"] / len(res["latencies"]),
        "digest": res["digest"],
        "errors": res["errors"],
        "ops_per_s": rate,
        "unscaled": {
            "ops_per_s": raw_rate,
            "op_ms_p50": raw_p50,
            "op_ms_p90": raw_p90,
            "setup_s": raw_setup_s,
            "ref_ms_p50": res["ref_ms_p50"],
        },
    }
    tracing.assert_unwrapped()
    return report, metrics, []


def traced(args):
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", "0"],
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    lines = child.stdout.splitlines()
    if child.returncode != 0 or len(lines) < 2 or not lines[-2].startswith(REPORT_TAG):
        raise RuntimeError(f"untraced child run failed:\n{child.stderr[-2000:]}")
    base = json.loads(lines[-2][len(REPORT_TAG):])
    wl = load(args.workload, args.seed)
    tracer = tracing.Tracer()
    tracer.install()
    res = run_ops(wl, n_ops=base["ops"], tracer=tracer)
    metrics = tracer.metrics()
    traced_rate = timings(res["latencies"], res["failed"])[0]
    overhead = base["ops_per_s"] / traced_rate if traced_rate else 0.0
    metrics["trace_overhead"] = (overhead, "ratio")
    problems = []
    if res["digest"] != base["digest"]:
        problems.append("traced digest differs from the untraced run of the same seed")
    problems += bypass_problems(args.workload, metrics)
    problems += [f"not found in cliffcat: {t}" for t in tracer.missing]
    report = {
        "ops": base["ops"],
        "failed": res["failed"],
        "fail_ratio": res["failed"] / base["ops"],
        "digest": res["digest"],
        "untraced_digest": base["digest"],
        "errors": res["errors"],
        "untraced": base,
        "spans": tracer.spans,
    }
    return report, metrics, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cliffcat" / "__init__.py").is_file():
        print(f"perfbench: no cliffcat package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env, src_lines = environment()
    report, metrics, problems = (traced if args.trace else untraced)(args)
    correct = report["failed"] == 0 and not problems
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "src_lines": src_lines,
        "correct": correct,
        "problems": problems,
        **report,
    }
    result = {
        "correct": correct,
        "attempted": report["ops"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"report": report, "result": result}, indent=1) + "\n")
    report.pop("spans", None)
    summary = {k: v for k, v in report.items() if k != "untraced"}
    print(REPORT_TAG + json.dumps(summary, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
