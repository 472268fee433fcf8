"""keplerreg benchmark: one workload per invocation, one JSON line at the end.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload propagate-regularized --seed 1 \
        --seconds 10 --trace 0

One process, one thread (BLAS pools pinned to 1) on the quieter of the
allowed CPUs, closed loop with one client: the benchmark writes its inputs
from ``--seed``, then calls ``keplerreg.cli.main`` in-process once per
scenario or suite, one call after another, in a fixed number of passes
over the whole input set (``--seconds`` over the workload's nominal pass
time).  Each pass follows a set-up (import, inputs, warm-up call), and
outputs are checked outside the timed region.

Times are reported normalised to a reference host speed: a fixed probe
runs before the first call and after every call, and each call's time is
scaled by the probe's reference time over its mean time around the call.
On a shared host whose speed swings by up to 2x for minutes at a time,
this keeps the figures of two runs comparable; the raw wall times are
printed too.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports per-layer metrics from the traced
ones, plus the tracing overhead; spans are written to
``.perfbench/spans-<workload>.npz``.  Metric definitions, tolerances and
the expected layer-to-end-to-end effects are in ``perfbench/spec.json``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import platform
import re
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import tracing
import workloads

CHECKOUT = Path.cwd()
SRC = CHECKOUT / "src"
SETUP_REPS = 5
MIN_PASSES = 3

# Time probe() takes on a quiet 2-vCPU host (Python 3.11, numpy 2.4); a
# normalised time reads as the time on a host running at that speed.
PROBE_REF_S = 1.7e-3
_PROBE_Q = np.ones(3)
_PROBE_X = np.random.default_rng(0).standard_normal((500, 6))


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def pin_to_quietest_cpu() -> int | None:
    """Pin the process to the allowed CPU on which a short numpy probe runs
    fastest, and return it (None when there is no choice or no permission).

    On a shared host the vCPUs see different load from other tenants, and
    numpy-heavy passes slow down most on the busier one; on a shared 2-vCPU
    host propagate-direct ran 25-35% slower on the busier vCPU or unpinned.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    best = dict.fromkeys(cpus, float("inf"))
    q = np.ones(3)
    try:
        for _ in range(3):
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = perf_counter()
                for _ in range(2000):
                    q = q - 1e-9 * q / float(q @ q) ** 1.5
                best[cpu] = min(best[cpu], perf_counter() - start)
        quietest = min(best, key=best.get)
        os.sched_setaffinity(0, {quietest})
    except OSError:
        return None
    return quietest


def probe() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's:
    scalar numpy arithmetic in a Python loop, then array expressions on a
    500 x 6 array."""
    start = perf_counter()
    q, total = _PROBE_Q, 0.0
    for i in range(150):
        q = q - 1e-9 * q / float(q @ q) ** 1.5
        total += float(np.linalg.norm(q)) * i
    for _ in range(20):
        total += float(np.sum(np.sin(_PROBE_X * _PROBE_X) @ _PROBE_X[:1].T))
    return perf_counter() - start


def normalised(elapsed, probe_before, probe_after):
    """``elapsed`` at reference host speed, from the probes around it."""
    return elapsed * PROBE_REF_S / (0.5 * (probe_before + probe_after))


def _import_program():
    """Import keplerreg.cli from the checkout's own source tree."""
    for name in [m for m in sys.modules if m == "keplerreg" or m.startswith("keplerreg.")]:
        del sys.modules[name]
    cli = importlib.import_module("keplerreg.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        _fail(f"keplerreg was imported from {cli.__file__}, not from {SRC}")
    return cli


def _call(cli, op, tracer=None):
    """One timed CLI call; returns (exit code, stdout, seconds).

    An exception escaping the program counts as a failed call (exit code
    -1) with its traceback on stderr, so the run still reports.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = tracer.call(op.ident, cli.main, op.argv) if tracer else cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception:
            code = -1
            sys.__stderr__.write(f"perfbench: {op.ident} raised\n{traceback.format_exc()}")
        elapsed = perf_counter() - start
    return code, out.getvalue(), elapsed


def _write_inputs(ops) -> None:
    for op in ops:
        for path, text in op.files.items():
            path.write_text(text)


def set_up(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import the program, write the inputs and make the warm-up call;
    returns the set-up's normalised seconds, the CLI module and the inputs."""
    before = probe()
    start = perf_counter()
    cli = _import_program()
    ops = workloads.build(workload, seed, workdir, tiny)
    _write_inputs(ops)
    warm = workloads.warmup(workload, seed, workdir)
    _write_inputs([warm])
    code, _, _ = _call(cli, warm)
    if code != 0:
        _fail(f"warm-up call {warm.argv} exited {code}")
    elapsed = perf_counter() - start
    return normalised(elapsed, before, probe()), cli, ops


class Checker:
    """Judges each pass; a pass whose outputs repeat the first one's byte
    for byte inherits its verdict."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.seen: dict[str, tuple[int, str, int]] = {}
        program = importlib.import_module("keplerreg")
        self._propagate = program.regularized_propagate
        self._point = program.PhasePoint

    def _reference(self, q, p, t):
        end = self._propagate(self._point(q, p), t)
        return end.q, end.p

    def failed_units(self, op, code: int, out: str) -> int:
        if op.out_path is not None:
            out = op.out_path.read_text() if code == 0 else ""
        key = (code, out)
        if op.ident in self.seen and self.seen[op.ident][:2] == key:
            return self.seen[op.ident][2]
        if op.suite is not None:
            failed = checks.check_verify(op, code, out)
        elif code != 0:
            failed = op.rows
        elif self.workload == "propagate-regularized":
            failed = checks.check_regularized(op, out)
        else:
            failed = checks.check_direct(op, out, self._reference)
        self.seen.setdefault(op.ident, (code, out, failed))
        return failed


def run_pass(cli, ops, tracer=None) -> dict:
    """One pass over ``ops``: each call's wall and normalised seconds,
    its exit code and output, and the range of spans it recorded."""
    gc.collect()
    mark = tracer.mark() if tracer else 0
    probes = [probe()]
    results = []
    for op in ops:
        results.append(_call(cli, op, tracer))
        probes.append(probe())
    calls = np.array([t for _, _, t in results])
    norm = normalised(calls, np.array(probes[:-1]), np.array(probes[1:]))
    spans = (mark, tracer.mark() if tracer else 0)
    return {"calls": calls, "norm": norm, "probes": probes, "spans": spans,
            "outputs": [(code, out) for code, out, _ in results]}


def check_pass(checker, ops, p) -> dict:
    """Judge a pass's outputs, after its clock has stopped."""
    p["failed"] = sum(checker.failed_units(op, code, out)
                      for op, (code, out) in zip(ops, p.pop("outputs")))
    return p


def pass_count(workload: str, seconds: float) -> int:
    """Passes a run makes: fixed by --seconds and the workload's nominal
    pass time, so that two commits take their medians over as many."""
    return max(MIN_PASSES, round(seconds / workloads.NOMINAL_PASS_S[workload]))


def run_untraced(workload: str, seed: int, workdir: Path, tiny: bool, seconds: float):
    """A set-up and a pass in turn, after enough extra set-ups for
    SETUP_REPS samples.

    Spreading the set-ups over the run means a burst of load from other
    tenants moves a few set-up samples rather than all of them.
    """
    count = pass_count(workload, seconds)
    setup_times = [set_up(workload, seed, workdir, tiny)[0]
                   for _ in range(max(0, SETUP_REPS - count))]
    checker = Checker(workload)
    passes = []
    for _ in range(count):
        elapsed, cli, ops = set_up(workload, seed, workdir, tiny)
        setup_times.append(elapsed)
        passes.append(check_pass(checker, ops, run_pass(cli, ops)))
    return setup_times, passes, ops


def run_traced(cli, ops, checker, count: int, tracer):
    """Traced and untraced passes in turn, traced first, ``count`` of each
    (at least two, to compare their counts): per-layer numbers come from
    the traced ones, and the overhead from both, under the same load."""
    untraced, traced = [], []
    for _ in range(max(2, count)):
        tracer.install()
        try:
            p = run_pass(cli, ops, tracer)
        finally:
            tracer.uninstall()
        traced.append(check_pass(checker, ops, p))
        untraced.append(check_pass(checker, ops, run_pass(cli, ops)))
    return untraced, traced


def pass_seconds(passes, key: str = "norm") -> float:
    """Median over the passes of the pass's summed call times."""
    return statistics.median(float(p[key].sum()) for p in passes)


def end_to_end(setup_times, passes) -> dict[str, tuple[float, str]]:
    """The gated metrics.  The call percentiles are Harrell-Davis estimates
    over every call of every pass: verify-maps has 26 suites of very
    different cost, and a plain order statistic there jumps between them.
    Peak RSS is read before scipy.stats is imported for them."""
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    from scipy.stats.mstats import hdquantiles

    p50, p90 = hdquantiles(np.concatenate([p["norm"] for p in passes]), prob=[0.5, 0.9])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "pass_norm_s": (pass_seconds(passes), "s"),
        "call_norm_ms_p50": (1e3 * float(p50), "ms"),
        "call_norm_ms_p90": (1e3 * float(p90), "ms"),
    }


def derived(passes, rows_per_pass: int) -> dict[str, tuple[float, str]]:
    """Figures printed by name but not gated: throughput, which is
    rows_per_pass over pass_norm_s, and the raw wall times."""
    probes = np.concatenate([p["probes"] for p in passes])
    return {
        "rows_per_s": (rows_per_pass / pass_seconds(passes), "1/s"),
        "pass_wall_s": (pass_seconds(passes, "calls"), "s"),
        "host_slowdown": (float(np.median(probes)) / PROBE_REF_S, "x"),
    }


def _metric_name(suite: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "", suite.replace("(n+1)", "_n1"))


def leapfrog_steps(ops) -> int:
    """Steps kepler_integrate takes for every row of the direct scenarios,
    counted from each span and dt by the integrator's own rule."""
    steps = 0
    for op in ops:
        times = [float(t) for t in op.times]
        for prev, t in zip(times, times[1:]):
            span = t - prev
            full = int(np.floor(span / workloads.DIRECT_DT + 1e-12))
            remainder = span - full * workloads.DIRECT_DT
            steps += full + (remainder >= 1e-12 * workloads.DIRECT_DT)
    return steps


def per_layer(tracer, untraced, traced, ops, workload: str):
    """Per-layer metrics from the traced passes, and the per-pass counts
    that must repeat exactly.  Span times are normalised by the pass's
    median probe time."""
    name_index = {name: i for i, name in enumerate(tracer.names)}
    rows = sum(op.rows for op in ops)
    per_pass_counts, per_pass_times = [], []
    durations: dict[str, list[np.ndarray]] = {name: [] for name in tracer.names}
    for p in traced:
        lo, hi = p["spans"]
        spans = tracer.arrays(lo, hi)
        names = spans["name"]
        speed = PROBE_REF_S / float(np.median(p["probes"]))
        dur = speed * (spans["end"] - spans["start"])
        self_t = speed * tracing.self_times(spans, lo)
        counts = {name: int(np.count_nonzero(names == i)) for name, i in name_index.items()}
        inverse = names == name_index["ligonschaaf.ls_inverse"]
        parent = spans["parent"] - lo
        angle = names == name_index["ligonschaaf.angle_equation"]
        nested = angle & (parent >= 0)
        nested[nested] = inverse[parent[nested]]
        counts["angle_in_inverse"] = int(np.count_nonzero(nested))
        owners = np.array(tracer.owners + [""])[spans["owner"]]
        suite_of = np.array([o.split("@")[0] for o in owners])
        jac = names == name_index["harness.jacobian"]
        run = names == name_index["harness.run_suite"]
        times = {}
        for suite in workloads.MAP_SUITES:
            counts[f"jacobian@{suite}"] = int(np.count_nonzero(jac & (suite_of == suite)))
            times[f"suite@{suite}"] = float(dur[run & (suite_of == suite)].sum())
        module_of = np.array([n.split(".")[0] for n in tracer.names])[names]
        for module in tracing.MODULES:
            times[f"self@{module}"] = float(self_t[module_of == module].sum())
        kepler = names == name_index["dynamics.kepler_integrate"]
        times["kepler_integrate"] = float(dur[kepler].sum())
        per_pass_counts.append(counts)
        per_pass_times.append(times)
        for name, i in name_index.items():
            durations[name].append(dur[names == i])

    counts = per_pass_counts[0]
    metrics: dict[str, tuple[float, str]] = {}
    for name in tracer.names:
        if name == tracing.ROOT:
            continue
        calls = np.concatenate(durations[name])
        metrics[f"{name}.us"] = (1e6 * float(np.median(calls)) if calls.size else 0.0, "us")
        metrics[f"{name}.calls"] = (counts[name], "count")

    def pass_median(key):
        return statistics.median(t[key] for t in per_pass_times)

    inverses = counts["ligonschaaf.ls_inverse"]
    metrics["ligonschaaf.angle_equation.calls_per_inverse"] = (
        counts["angle_in_inverse"] / inverses if inverses else 0.0, "count")
    metrics["cli.self_us_per_row"] = (1e6 * pass_median("self@cli") / rows, "us")
    steps = leapfrog_steps(ops) if workload == "propagate-direct" else 0
    metrics["dynamics.leapfrog_steps"] = (steps, "count")
    metrics["dynamics.kepler_integrate.us_per_step"] = (
        1e6 * pass_median("kepler_integrate") / steps if steps else 0.0, "us")
    for suite in workloads.MAP_SUITES:
        metrics[f"harness.suite_s.{_metric_name(suite)}"] = (pass_median(f"suite@{suite}"), "s")
    for suite in ("stereo-canonical", "moser-symplectic", "ls-symplectic"):
        metrics[f"harness.jacobian.calls.{suite}"] = (counts[f"jacobian@{suite}"], "count")
    for module in tracing.MODULES:
        metrics[f"{module}.self_s"] = (pass_median(f"self@{module}"), "s")
    plain = pass_seconds(untraced)
    with_spans = pass_seconds(traced)
    metrics["trace.overhead_s"] = (with_spans - plain, "s")
    metrics["trace.overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")
    return metrics, per_pass_counts


def environment() -> str:
    import scipy

    return (
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"scipy {scipy.__version__}, nproc {os.cpu_count()}, "
        f"OMP/OPENBLAS/MKL threads {os.environ['OPENBLAS_NUM_THREADS']}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke run")
    args = parser.parse_args(argv)
    args.seed %= 2**31  # numpy seeds and the harness's seed offsets need 0 <= seed < 2^32
    if not (SRC / "keplerreg" / "__init__.py").is_file():
        _fail(f"no keplerreg source tree at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import scipy.integrate  # noqa: F401  keplerreg imports it; kept out of setup_s

    cpu = pin_to_quietest_cpu()
    state = CHECKOUT / ".perfbench"
    workdir = state / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        info = {}
        if args.trace:
            _, cli, ops = set_up(args.workload, args.seed, workdir, args.tiny)
            tracer = tracing.Tracer()
            count = pass_count(args.workload, args.seconds) // 2
            untraced, traced = run_traced(cli, ops, Checker(args.workload), count, tracer)
            tracer.write(state / f"spans-{args.workload}.npz")
            passes = untraced + traced
            metrics, counts = per_layer(tracer, untraced, traced, ops, args.workload)
            repeatable = all(c == counts[0] for c in counts)
            if not repeatable:
                sys.stderr.write("perfbench: span counts differ between passes of one seed\n")
        else:
            setup_times, passes, ops = run_untraced(
                args.workload, args.seed, workdir, args.tiny, args.seconds)
            metrics = end_to_end(setup_times, passes)
            repeatable = True
            info = derived(passes, sum(op.rows for op in ops))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(op.rows for op in ops) * len(passes)
    failed = sum(p["failed"] for p in passes)
    calls = sum(len(p["calls"]) for p in passes)
    print(f"# {args.workload} seed {args.seed}: {len(passes)} passes, {calls} calls, "
          f"{attempted} operations; pinned to CPU {cpu}; {environment()}")
    print(f"failed_frac = {failed / attempted:.6g} (ratio, {failed} of {attempted})")
    for name, (value, unit) in {**metrics, **info}.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = failed == 0 and repeatable
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
