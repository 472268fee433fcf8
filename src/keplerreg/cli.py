"""Command-line front end.

Three subcommands: ``map`` applies the regularization maps to single
points, ``propagate`` runs scenarios to CSV trajectory files (direct
leapfrog or regularized Delaunay propagation), and ``verify`` runs the
named property suites.  All numbers serialize with 17 significant digits
so files round-trip doubles exactly, and identical invocations produce
byte-identical output.  ``verify`` imports the harness when it runs, and
``map`` loads the module of the map it applies, so a ``propagate`` or
``map --which ls`` process never loads the harness or the Moser maps.

Exit codes: 0 success, 1 invalid input, 2 verification failure, 3 numeric
or domain failure during propagation.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import os
import stat
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .core import DomainError, PhasePoint, SphereCotangentPoint, kepler_energy
from .dynamics import CollisionApproachError, _leapfrog_span, _regularized_rows, delaunay_energy
from .kernels import _check_rows, _integral_pairs, _integral_rows, _sphere_integral_rows
from .ligonschaaf import ls_map

__all__ = ["main", "build_parser", "Scenario", "parse_scenario"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VERIFY_FAILED = 2
EXIT_NUMERIC = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_vector(vec: np.ndarray) -> str:
    return ",".join(_fmt(float(c)) for c in vec)


def _parse_value(text: str, name: str, read, what: str):
    """read(text); a bad value raises DomainError naming its key and quoting it."""
    try:
        return read(text)
    except ValueError as exc:
        raise DomainError(f"{name} must be {what}, got {text!r}") from exc


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
        if self.mode not in _MODES:
            raise DomainError(f"mode must be {' or '.join(_MODES)}, got {self.mode!r}")
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
            if not np.isfinite(times).all():
                raise DomainError("output_times must have finite entries")
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


# Each scenario key, its reader and what it reads, in the order the keys are read:
# the first bad value or missing required key (a field of Scenario with no default) wins.
_VECTOR = (lambda text: np.array([float(x) for x in text.split(",")]), "comma-separated decimals")
_SCENARIO_KEYS = {
    "n": (int, "an integer"),
    "q": _VECTOR,
    "p": _VECTOR,
    "t_end": (float, "a decimal"),
    "mode": (str, "text"),
    "dt": (float, "a decimal"),
    "output_times": _VECTOR,
    "output_count": (int, "an integer"),
}


def parse_scenario(text: str) -> Scenario:
    """Parse the flat scenario format: one ``key = value`` pair per line.

    Keys: n, q, p, t_end, mode, dt (direct mode), output_times (optional
    comma-separated list, at most t_end) and output_count (grid size when
    output_times is absent, default 100).  Blank lines and ``#`` comments
    are ignored; an unknown or repeated key is an error.
    """
    given: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"scenario line {lineno} is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise DomainError(f"scenario line {lineno} has unknown key {key!r}")
        if key in given:
            raise DomainError(f"scenario line {lineno} repeats key {key!r}")
        given[key] = value
    required = {f.name for f in fields(Scenario) if f.init and f.default is MISSING}
    values = {}
    for key, reader in _SCENARIO_KEYS.items():
        if key in given:
            values[key] = _parse_value(given[key], key, *reader)
        elif key in required:
            raise DomainError(f"scenario is missing required key {key!r}")
    return Scenario(**values)


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


# Each --which choice: the input pair it reads, and the module and name of its map.
_MAPS = {
    "moser": ("qp", "moser", "moser_map"),
    "moser-inverse": ("uv", "moser", "moser_map_inverse"),
    "fibration": ("qp", "moser", "moser_fibration"),
    "ls": ("qp", "ligonschaaf", "ls_map"),
    "ls-inverse": ("uv", "ligonschaaf", "ls_inverse"),
}


def _cmd_map(args, out) -> int:
    pair, module, name = _MAPS[args.which]
    texts = [getattr(args, key) for key in pair]
    if None in texts:
        raise DomainError(f"--which {args.which} requires --{pair[0]} and --{pair[1]}")
    kind = PhasePoint if pair == "qp" else SphereCotangentPoint
    point = kind(*(_parse_value(text, key, *_VECTOR) for text, key in zip(texts, pair)))
    lines = [f"which = {args.which}"]
    lines += [f"{key} = {_fmt_vector(getattr(point, key))}" for key in pair]
    if pair == "uv":
        lines.append(f"delaunay_energy = {_fmt(delaunay_energy(point))}")
    # Looked up when called, so a process loads only the module of its map.
    image = getattr(importlib.import_module(f".{module}", __package__), name)(point)
    if pair == "qp":
        lines.append(f"H = {_fmt(kepler_energy(point))}")
        lines.extend(_sphere_record(image))
    else:
        lines.append(f"q = {_fmt_vector(image.q)}")
        lines.append(f"p = {_fmt_vector(image.p)}")
        lines.append(f"H = {_fmt(kepler_energy(image))}")
    out.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# propagate subcommand


def _csv_header(n: int) -> str:
    pairs = zip(*(index.tolist() for index in _integral_pairs(n)))
    momenta = [f"K{i + 1}" if j == n else f"L{i + 1}{j + 1}" for i, j in pairs]
    phase = [f"{x}{i + 1}" for x in "qp" for i in range(n)]
    return ",".join(["t", *phase, "H", *momenta, "Knorm", "flag"])


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
    # join(cells) is the text of one row's integral cells.
    if 2 * distinct <= bits.size:
        patterns, inverse = np.unique(bits, return_inverse=True)
        text = np.array(["%.17g" % x for x in patterns.view(float).tolist()], dtype=object)
        tails, join = text[inverse.reshape(bits.shape)].tolist(), ",".join
    else:
        tails, join = map(tuple, tail.tolist()), ",".join(["%.17g"] * tail.shape[1]).__mod__
    phase = ",".join(["%.17g"] * (1 + 2 * n) + ["%s", ""])
    hit = ",".join(["%.17g"] + [""] * (2 * n) + ["%s", "collision"])
    rows = zip(np.column_stack([t, q, p]).tolist(), tails, collision.tolist())
    return [hit % (r[0], join(cells)) if c else phase % (*r, join(cells)) for r, cells, c in rows]


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
        integrals[collision] = _sphere_integral_rows(u[hit], v[hit])
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


# Each scenario mode and the function that propagates it.
_MODES = {"direct": _propagate_direct, "regularized": _propagate_regularized}


def _write_output(target: Path, text: str, make_dir: bool = False) -> None:
    """Write text to target, making its directory first if make_dir; a target
    that cannot be written is invalid input (exit 1), not a traceback.

    An existing file is written in place and then cut to length: truncating
    it on open makes ext4 (auto_da_alloc) start its writeback, several times
    the cost of the write.  A target that is not a regular file (/dev/null)
    is not cut.  A write that stops partway can leave the old file's tail
    after the new text."""
    try:
        if make_dir:
            target.parent.mkdir(parents=True, exist_ok=True)
        with open(os.open(target, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
            f.write(text.encode())
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as exc:
        raise ValueError(f"cannot write {exc.filename or target}: {exc.strerror}") from None


def _cmd_propagate(args, out) -> int:
    paths = [Path(p) for p in args.scenario]
    if args.out is not None and args.out_dir is not None:
        raise ValueError("use --out or --out-dir, not both")
    if len(paths) > 1 and args.out is not None:
        raise ValueError("use --out-dir with multiple scenarios")
    targets = [None if args.out is None else Path(args.out)] * len(paths)
    if args.out_dir is not None:
        targets = [Path(args.out_dir) / (path.stem + ".csv") for path in paths]
        writers: dict[Path, Path] = {}
        for path, target in zip(paths, targets):
            if writers.setdefault(target, path) is not path:
                raise ValueError(f"{writers[target]} and {path} would both write {target}")
    for path, target in zip(paths, targets):
        try:
            scenario = parse_scenario(path.read_text())
        except (OSError, ValueError) as exc:
            raise ValueError(f"invalid scenario {path}: {exc}") from None
        try:
            rows = _MODES[scenario.mode](scenario)
        except (CollisionApproachError, DomainError) as exc:
            sys.stderr.write(f"error: propagation failed for {path}: {exc}\n")
            return EXIT_NUMERIC
        text = "\n".join([_csv_header(scenario.n)] + rows) + "\n"
        if target is None:
            out.write(text)
        else:
            _write_output(target, text, make_dir=args.out_dir is not None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify subcommand


def _cmd_verify(args, out) -> int:
    from .harness import SUITE_NAMES, run_suite

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = [run_suite(name, args.n, args.samples, args.seed) for name in names]
    for report in reports:
        if not report.passed:
            sys.stderr.write(f"error: suite {report.name} failed: {report.failures[0].where}\n")
    text = "".join(report.line() + "\n" for report in reports)
    out.write(text)
    if args.out is not None:
        _write_output(Path(args.out), text)
    return EXIT_OK if all(report.passed for report in reports) else EXIT_VERIFY_FAILED


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="keplerreg",
        description="Regularized Kepler dynamics: maps, propagation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="apply a regularization map to one point")
    p_map.set_defaults(run=_cmd_map)
    p_map.add_argument("--which", required=True, choices=list(_MAPS))
    p_map.add_argument("--q", help="position, comma-separated")
    p_map.add_argument("--p", help="momentum, comma-separated")
    p_map.add_argument("--u", help="sphere base point, comma-separated")
    p_map.add_argument("--v", help="sphere covector, comma-separated")

    p_prop = sub.add_parser("propagate", help="propagate scenario files to CSV")
    p_prop.set_defaults(run=_cmd_propagate)
    p_prop.add_argument("scenario", nargs="+", help="scenario file(s)")
    p_prop.add_argument("--out", help="output CSV path (single scenario)")
    p_prop.add_argument("--out-dir", help="output directory (batch mode)")

    p_ver = sub.add_parser("verify", help="run verification suites")
    p_ver.set_defaults(run=_cmd_verify)
    p_ver.add_argument("--suite", required=True, help="suite name or 'all'")
    p_ver.add_argument(
        "--n", type=int, default=2, help="dimension, at least 1 (at n = 1, ls-equivariance, "
        "so(n+1)-brackets and lenz-brackets report exactly 0 and check nothing, and "
        "ls-roundtrip exceeds its absolute bound at seeds 19 and 54; above n = 41, "
        "moser-symplectic and ls-symplectic give up drawing 500 samples at seed 42)"
    )
    p_ver.add_argument("--samples", type=int, default=500)
    p_ver.add_argument("--seed", type=int, default=42)
    p_ver.add_argument("--out", help="also write the report to this file")

    return parser


_VECTOR_FLAGS = ("--q", "--p", "--u", "--v")


def _merge_vector_flags(argv: list[str]) -> list[str]:
    """Join vector flags with their values so negative components are not
    mistaken for option names by argparse."""
    merged: list[str] = []
    tokens = iter(argv)
    for token in tokens:
        value = next(tokens, None) if token in _VECTOR_FLAGS else None
        merged.append(token if value is None else f"{token}={value}")
    return merged


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: argparse keeps no state between parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = list(argv if argv is not None else sys.argv[1:])
    args = _parser().parse_args(_merge_vector_flags(argv))
    try:
        return args.run(args, sys.stdout)
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
