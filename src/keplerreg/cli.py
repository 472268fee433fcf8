"""Command-line front end.

Three subcommands: ``map`` applies the regularization maps to single
points, ``propagate`` runs scenarios to CSV trajectory files (direct
leapfrog or regularized Delaunay propagation), and ``verify`` runs the
named property suites.  All numbers serialize with 17 significant digits
so files round-trip doubles exactly, and identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 numeric
or domain failure during propagation.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import DomainError, PhasePoint, SphereCotangentPoint, kepler_energy
from .dynamics import CollisionApproachError, _leapfrog_span, _regularized_rows, delaunay_energy
from .harness import SUITE_NAMES, UnknownSuiteError, run_suite
from .kernels import _check_rows, _delaunay_energy, _integral_rows, _upper_pairs, _wedge_entries
from .ligonschaaf import PunctureError, ls_inverse, ls_map
from .moser import moser_fibration, moser_map, moser_map_inverse

__all__ = ["main", "build_parser", "Scenario", "parse_scenario"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vector(vec: np.ndarray) -> str:
    return ",".join(_fmt(float(c)) for c in vec)


def _parse_vector(text: str, name: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise DomainError(f"{name} must be comma-separated decimals, got {text!r}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (1 = bad input)."""

    def error(self, message: str):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Scenarios


@dataclass(frozen=True, eq=False)
class Scenario:
    """A propagation request parsed from a flat key/value scenario file."""

    n: int
    q: np.ndarray
    p: np.ndarray
    t_end: float
    mode: str
    dt: float | None = None
    output_times: np.ndarray | None = None
    output_count: int = 100
    _times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mode not in ("direct", "regularized"):
            raise DomainError(f"mode must be direct or regularized, got {self.mode!r}")
        if self.q.size != self.n or self.p.size != self.n:
            raise DomainError("q and p must have length n")
        _check_rows(self.q, self.p, "qp")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise DomainError("t_end must be positive and finite")
        if self.dt is not None and not math.isfinite(self.dt):
            raise DomainError("dt must be finite")
        if self.mode == "direct" and (self.dt is None or not self.dt > 0.0):
            raise DomainError("direct mode requires dt > 0")
        times = self.output_times
        if times is not None:
            if times.size == 0:
                raise DomainError("output_times must be nonempty when given")
            if np.any(times < 0.0) or np.any(np.diff(times) <= 0.0):
                raise DomainError("output_times must be nonnegative and strictly increasing")
            if not np.all(times <= self.t_end):
                raise DomainError("output_times must not exceed t_end")
        if self.output_count < 2:
            raise DomainError("output_count must be >= 2")
        if times is None:
            times = np.linspace(0.0, self.t_end, self.output_count)
            if np.any(np.diff(times) <= 0.0):
                raise DomainError(
                    f"t_end is too small for {self.output_count} distinct output times"
                )
            times.setflags(write=False)
        object.__setattr__(self, "_times", times)

    def times(self) -> np.ndarray:
        """The output times: ``output_times``, or else ``output_count``
        evenly spaced times from 0 to t_end, built once."""
        return self._times


_SCENARIO_KEYS = ("n", "q", "p", "t_end", "mode", "dt", "output_times", "output_count")


def parse_scenario(text: str) -> Scenario:
    """Parse the flat scenario format: one ``key = value`` pair per line.

    Keys: n, q, p, t_end, mode, dt (direct mode), output_times (optional
    comma-separated list, at most t_end) and output_count (grid size when
    output_times is absent, default 100).  Blank lines and ``#`` comments
    are ignored; an unknown or repeated key is an error.
    """
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"scenario line {lineno} is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise DomainError(f"scenario line {lineno} has unknown key {key!r}")
        if key in fields:
            raise DomainError(f"scenario line {lineno} repeats key {key!r}")
        fields[key] = value
    try:
        n = int(fields["n"])
        q = _parse_vector(fields["q"], "q")
        p = _parse_vector(fields["p"], "p")
        t_end = float(fields["t_end"])
        mode = fields["mode"]
    except KeyError as exc:
        raise DomainError(f"scenario is missing required key {exc.args[0]!r}") from exc
    dt = float(fields["dt"]) if "dt" in fields else None
    output_times = (
        _parse_vector(fields["output_times"], "output_times")
        if "output_times" in fields
        else None
    )
    output_count = int(fields.get("output_count", "100"))
    return Scenario(
        n=n,
        q=q,
        p=p,
        t_end=t_end,
        mode=mode,
        dt=dt,
        output_times=output_times,
        output_count=output_count,
    )


# ---------------------------------------------------------------------------
# map subcommand


def _sphere_record(sp: SphereCotangentPoint) -> list[str]:
    return [
        f"u = {_fmt_vector(sp.u)}",
        f"v = {_fmt_vector(sp.v)}",
        f"unit_defect = {_fmt(abs(float(sp.u @ sp.u) - 1.0))}",
        f"tangency_defect = {_fmt(abs(float(sp.u @ sp.v)))}",
        f"covector_norm = {_fmt(sp.covector_norm)}",
        f"delaunay_energy = {_fmt(delaunay_energy(sp))}",
        f"at_puncture = {'true' if sp.at_puncture else 'false'}",
    ]


def _cmd_map(args, out) -> int:
    lines: list[str] = []
    try:
        if args.which in ("moser", "fibration", "ls"):
            if args.q is None or args.p is None:
                raise DomainError(f"--which {args.which} requires --q and --p")
            point = PhasePoint(_parse_vector(args.q, "q"), _parse_vector(args.p, "p"))
            lines.append(f"which = {args.which}")
            lines.append(f"q = {_fmt_vector(point.q)}")
            lines.append(f"p = {_fmt_vector(point.p)}")
            if args.which == "moser":
                sp = moser_map(point)
            elif args.which == "fibration":
                sp = moser_fibration(point)
            else:
                sp = ls_map(point)
            lines.append(f"H = {_fmt(kepler_energy(point))}")
            lines.extend(_sphere_record(sp))
        else:
            if args.u is None or args.v is None:
                raise DomainError(f"--which {args.which} requires --u and --v")
            sp = SphereCotangentPoint(_parse_vector(args.u, "u"), _parse_vector(args.v, "v"))
            lines.append(f"which = {args.which}")
            lines.append(f"u = {_fmt_vector(sp.u)}")
            lines.append(f"v = {_fmt_vector(sp.v)}")
            lines.append(f"delaunay_energy = {_fmt(delaunay_energy(sp))}")
            point = moser_map_inverse(sp) if args.which == "moser-inverse" else ls_inverse(sp)
            lines.append(f"q = {_fmt_vector(point.q)}")
            lines.append(f"p = {_fmt_vector(point.p)}")
            lines.append(f"H = {_fmt(kepler_energy(point))}")
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# propagate subcommand


def _momentum_columns(n: int) -> list[str]:
    return [f"L{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]


def _csv_header(n: int) -> str:
    cols = ["t"]
    cols += [f"q{i + 1}" for i in range(n)]
    cols += [f"p{i + 1}" for i in range(n)]
    cols += ["H"]
    cols += _momentum_columns(n)
    cols += [f"K{i + 1}" for i in range(n)]
    cols += ["Knorm", "flag"]
    return ",".join(cols)


def _csv_rows(t, q, p, integrals, collision) -> list[str]:
    """One CSV row per entry of t, in header order, from the first-integral
    rows (H, L_ij, K); a row marked in ``collision`` prints empty q and p
    cells and the flag ``collision``.

    Every cell is ``'%.17g'`` of its double.  Regularized rows keep H, L_ij
    and K to rounding, so those cells often repeat bit for bit; when at most
    half of them are distinct bit patterns, each pattern is converted once
    and the rows are built from those strings, which gives the same bytes."""
    n = q.shape[1]
    lenz = integrals[:, -n:]
    tail = np.column_stack([integrals, np.sqrt(np.vecdot(lenz, lenz))])
    # Bit patterns, not values: -0.0 == 0.0 prints differently.
    bits = tail.view(np.int64)
    ordered = np.sort(bits, axis=None)
    distinct = 1 + np.count_nonzero(ordered[1:] != ordered[:-1])
    if 2 * distinct <= bits.size:
        patterns, inverse = np.unique(bits, return_inverse=True)
        text = np.array(["%.17g" % x for x in patterns.view(float).tolist()], dtype=object)
        cells = text[inverse.reshape(bits.shape)]
        table = np.concatenate([np.column_stack([t, q, p]).astype(object), cells], 1)
        cell = "%s"
    else:
        table = np.column_stack([t, q, p, tail])
        cell = "%.17g"
    tail_cells = [cell] * tail.shape[1]
    phase = ",".join(["%.17g"] * (1 + 2 * n) + tail_cells + [""])
    # "%.0s" prints nothing, which keeps a collision row's q and p cells empty.
    hit = ",".join(["%.17g"] + ["%.0s"] * (2 * n) + tail_cells + ["collision"])
    rows = zip(table.tolist(), collision.tolist())
    return [(hit if c else phase) % tuple(row) for row, c in rows]


def _sphere_integrals(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The first-integral rows (H, L_ij, K) of sphere rows (m, n+1), where q
    and p are undefined: the Delaunay energy and u ^ v, whose last column is
    K / sqrt(-2H)."""
    energy = _delaunay_energy(v)
    n = u.shape[1] - 1
    lenz = _wedge_entries(u, v, np.arange(n), np.full(n, n)) * np.sqrt(-2.0 * energy)[:, None]
    return np.concatenate([energy[:, None], _wedge_entries(u, v, *_upper_pairs(n)), lenz], -1)


def _propagate_regularized(scenario: Scenario) -> list[str]:
    """All rows of one scenario as one batch: one flow, one inverse, one row evaluation."""
    start = PhasePoint(scenario.q, scenario.p)
    times = scenario.times()
    moving = times != 0.0
    u, v, q_t, p_t, hit = _regularized_rows(ls_map(start), times[moving])
    q, p = np.tile(start.q, (times.size, 1)), np.tile(start.p, (times.size, 1))
    q[moving], p[moving] = q_t, p_t
    collision = np.zeros(times.size, dtype=bool)
    collision[moving] = hit
    integrals = _integral_rows(q, p)
    if hit.any():
        integrals[collision] = _sphere_integrals(u[hit], v[hit])
    return _csv_rows(times, q, p, integrals, collision)


def _propagate_direct(scenario: Scenario) -> list[str]:
    """The leapfrog state at each output time, stepped from the one before."""
    times = scenario.times()
    q, p = scenario.q.tolist(), scenario.p.tolist()
    rows, now = [], 0.0
    for t in times.tolist():
        if t != 0.0:
            try:
                _, states = _leapfrog_span(q, p, t - now, scenario.dt)
            except CollisionApproachError as exc:
                raise CollisionApproachError(now + exc.t) from None
            (q, p), now = states[-1], t
            if not all(map(math.isfinite, q + p)):
                _check_rows(np.array(q), np.array(p), "qp")  # raises, naming q or p
        rows.append(q + p)
    q, p = np.hsplit(np.array(rows), 2)
    # A finite state can still overflow H, K or |K|; such a row is an error, not inf/nan cells.
    with np.errstate(all="ignore"):
        integrals = _integral_rows(q, p)
        lenz = integrals[:, -scenario.n:]
        finite = np.isfinite(integrals).all(axis=1) & np.isfinite(np.vecdot(lenz, lenz))
    if not finite.all():
        t_bad = times[np.argmin(finite)]
        raise DomainError(f"first integrals are not finite at t = {_fmt(t_bad)}")
    return _csv_rows(times, q, p, integrals, np.zeros(times.size, dtype=bool))


def _cmd_propagate(args, out) -> int:
    paths = [Path(p) for p in args.scenario]
    if len(paths) > 1 and args.out is not None:
        sys.stderr.write("error: use --out-dir with multiple scenarios\n")
        return EXIT_INVALID
    for path in paths:
        try:
            scenario = parse_scenario(path.read_text())
        except (OSError, DomainError, ValueError) as exc:
            sys.stderr.write(f"error: invalid scenario {path}: {exc}\n")
            return EXIT_INVALID
        try:
            if scenario.mode == "regularized":
                rows = _propagate_regularized(scenario)
            else:
                rows = _propagate_direct(scenario)
        except (CollisionApproachError, DomainError, PunctureError) as exc:
            sys.stderr.write(f"error: propagation failed for {path}: {exc}\n")
            return EXIT_NUMERIC
        text = "\n".join([_csv_header(scenario.n)] + rows) + "\n"
        if args.out_dir is not None:
            target = Path(args.out_dir) / (path.stem + ".csv")
            target.parent.mkdir(parents=True, exist_ok=True)
        elif args.out is not None:
            target = Path(args.out)
        else:
            out.write(text)
            continue
        target.write_text(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand


def _cmd_verify(args, out) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    lines = []
    all_passed = True
    for name in names:
        try:
            report = run_suite(name, args.n, args.samples, args.seed)
        except UnknownSuiteError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return EXIT_INVALID
        except DomainError as exc:
            # the suite's own samples left a map's domain: a failed check, not bad input
            sys.stderr.write(f"error: suite {name} raised: {exc}\n")
            lines.append(f"{name},{args.samples},inf,fail")
            all_passed = False
            continue
        lines.append(report.line())
        all_passed &= report.passed
    text = "\n".join(lines) + "\n"
    out.write(text)
    if args.out is not None:
        Path(args.out).write_text(text)
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="keplerreg",
        description="Regularized Kepler dynamics: maps, propagation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="apply a regularization map to one point")
    p_map.add_argument(
        "--which",
        required=True,
        choices=["moser", "moser-inverse", "fibration", "ls", "ls-inverse"],
    )
    p_map.add_argument("--q", help="position, comma-separated")
    p_map.add_argument("--p", help="momentum, comma-separated")
    p_map.add_argument("--u", help="sphere base point, comma-separated")
    p_map.add_argument("--v", help="sphere covector, comma-separated")

    p_prop = sub.add_parser("propagate", help="propagate scenario files to CSV")
    p_prop.add_argument("scenario", nargs="+", help="scenario file(s)")
    p_prop.add_argument("--out", help="output CSV path (single scenario)")
    p_prop.add_argument("--out-dir", help="output directory (batch mode)")

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.add_argument("--suite", required=True, help="suite name or 'all'")
    p_ver.add_argument("--n", type=int, default=2)
    p_ver.add_argument("--samples", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", help="also write the report to this file")

    return parser


_VECTOR_FLAGS = ("--q", "--p", "--u", "--v")


def _merge_vector_flags(argv: list[str]) -> list[str]:
    """Join vector flags with their values so negative components are not
    mistaken for option names by argparse."""
    merged: list[str] = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VECTOR_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: argparse keeps no state between parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    args = _parser().parse_args(_merge_vector_flags(argv))
    try:
        if args.command == "map":
            return _cmd_map(args, sys.stdout)
        if args.command == "propagate":
            return _cmd_propagate(args, sys.stdout)
        if args.command == "verify":
            return _cmd_verify(args, sys.stdout)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    return EXIT_INVALID  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
