"""The CSV row formatter prints every cell as '%.17g' of its double.  When at
most half of the first-integral cells (H, L_ij, K, |K|) are distinct bit
patterns it converts each pattern once; these tests hold both sides of that
choice to the per-cell rows, on the cells where formatting is delicate."""

import numpy as np
import pytest

from keplerreg.cli import _csv_rows

_TEN_POWERS = [10.0**k for k in (-300, -17, -5, -1, 0, 1, 15, 16, 17, 21, 300)]
# Cells where '%.17g' changes sign, digit count, exponent or notation.
_SPECIAL = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,  # the largest subnormal
    np.inf,
    -np.inf,
    *_TEN_POWERS,
    *np.nextafter(_TEN_POWERS, 0.0).tolist(),
    *np.nextafter(_TEN_POWERS, np.inf).tolist(),
]
# |K| = sqrt(K.K) must not overflow, so the Lenz columns draw from these.
_SMALL = [0.0, -0.0, 5e-324, -5e-324, 0.5, -0.25, 0.1, np.nextafter(0.1, 1.0)]


def per_cell_rows(t, q, p, integrals, collision) -> list[str]:
    """The reference: each row converted cell by cell, with the |K| column
    computed as the formatter computes it."""
    n = q.shape[1]
    lenz = integrals[:, -n:]
    knorm = np.sqrt(np.vecdot(lenz, lenz))
    rows = []
    for k, hit in enumerate(collision.tolist()):
        phase = [""] * (2 * n) if hit else ["%.17g" % x for x in [*q[k], *p[k]]]
        tail = ["%.17g" % x for x in [*integrals[k], knorm[k]]]
        rows.append(",".join(["%.17g" % t[k], *phase, *tail, "collision" if hit else ""]))
    return rows


def _table(n: int, m: int, repeats: bool, seed: int):
    """(t, q, p, integrals, collision) of m >= 40 rows at dimension n.  With
    ``repeats`` every integral cell comes from a short list; without, every
    cell but a few special ones is distinct.  Both hold the special cells,
    +0.0 and -0.0 in one column, and collision rows with NaN q and p."""
    rng = np.random.default_rng(seed)
    width = 1 + n * (n - 1) // 2 + n
    t = np.linspace(0.0, 7.0, m)
    q, p = rng.standard_normal((2, m, n))
    q[: len(_SPECIAL), 0] = _SPECIAL
    if repeats:
        integrals = rng.choice(_SPECIAL, size=(m, width))
        integrals[:, -n:] = rng.choice(_SMALL, size=(m, n))
    else:
        integrals = rng.standard_normal((m, width)) * 10.0 ** rng.integers(-200, 200, (m, width))
        integrals[:, -n:] = rng.standard_normal((m, n))
        integrals[: len(_SPECIAL), 0] = _SPECIAL
        integrals[:4, -1] = [0.0, -0.0, 5e-324, -5e-324]
    zero_column = 0 if n == 1 else 1
    integrals[0::3, zero_column], integrals[1::3, zero_column] = -0.0, 0.0
    collision = np.zeros(m, dtype=bool)
    collision[[1, m // 2, m - 1]] = True
    q[collision], p[collision] = np.nan, np.nan
    return t, q, p, integrals, collision


@pytest.fixture
def unique_calls(monkeypatch):
    """The calls of np.unique, which the formatter makes on its distinct path alone."""
    calls = []
    real = np.unique

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("repeats", [True, False])
def test_rows_equal_per_cell_conversion(repeats, n, unique_calls):
    table = _table(n, 60, repeats, seed=10 * n + repeats)
    rows = _csv_rows(*table)
    assert len(unique_calls) == repeats
    assert rows == per_cell_rows(*table)
    zero_column = 1 + 2 * n + (0 if n == 1 else 1)
    assert {"0", "-0"} <= {row.split(",")[zero_column] for row in rows}


# n = 1 and four rows: the cells H, K1 and |K1| = |K1|, twelve in all.
@pytest.mark.parametrize(
    "energy, lenz, distinct",
    [
        ([-0.5, -0.5, -0.5, -0.5], [0.5, 0.5, 0.5, 0.5], 2),
        # 0.0 and -0.0 are two patterns; |K1| of -0.5 is the pattern of 0.5
        ([0.0, -0.0, 1.0, 2.0], [0.5, 0.5, -0.5, -0.5], 6),
        ([0.0, -0.0, 1.0, 2.0], [0.5, 0.5, -0.5, 0.25], 7),
        ([1.0, 2.0, 3.0, 4.0], [-0.1, -0.2, -0.3, -0.4], 12),
    ],
)
def test_distinct_path_runs_when_at_most_half_the_cells_are_distinct(
    energy, lenz, distinct, unique_calls
):
    t, q, p = np.arange(4.0), np.ones((4, 1)), np.ones((4, 1))
    integrals = np.column_stack([energy, lenz])
    cells = np.column_stack([integrals, np.abs(lenz)])
    assert len(set(cells.view(np.int64).ravel().tolist())) == distinct
    collision = np.zeros(4, dtype=bool)
    rows = _csv_rows(t, q, p, integrals, collision)
    assert len(unique_calls) == (2 * distinct <= 12)
    assert rows == per_cell_rows(t, q, p, integrals, collision)
