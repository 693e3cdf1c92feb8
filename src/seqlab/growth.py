"""Growth diagnostics for fast-growing integer sequences.

Three pieces: the exact conjectured growth parameters for the avoider
counts, an empirical fit of those parameters from data, and Richardson
extrapolation of the limiting constant. Terms can have thousands of digits.
The fit takes ``math.log`` of each exact term, which accepts an int of any
size and agrees with the correctly rounded logarithm to within 1 ulp on the
fit's inputs, and solves its normal equations exactly. The constant is
normalized exactly in integers, rounded once and extrapolated in ``decimal``
at a precision sized from the ladder; it drops to machine floats only at the
very end.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import NamedTuple, Sequence

from .recurrences import InsufficientTermsError


class GrowthParams(NamedTuple):
    """Growth model a(n) ~ C * mu^n / n^alpha with exact parameters (an immutable named tuple)."""

    mu: int
    alpha: Fraction


def conjectured_params(d: int, r: int) -> GrowthParams:
    """Exact conjectured growth parameters for the avoider counts:
    mu = binom(d+r-2, d-2) * (d-1)^r and alpha = ((d-1)^2 - 1) / 2.

    For r = 1 this reduces to mu = (d-1)^2, the classical permutation
    regime; for d = 2 it gives (1, 0), matching the constant sequence.
    """
    if d < 2 or r < 1:
        raise ValueError("need d >= 2 and r >= 1")
    mu = comb(d + r - 2, d - 2) * (d - 1) ** r
    alpha = Fraction((d - 1) ** 2 - 1, 2)
    return GrowthParams(mu=mu, alpha=alpha)


def _scaled(x: float | int) -> int:
    """``x * 2**1074``, exactly."""
    num, den = x.as_integer_ratio()
    return num << 1075 - den.bit_length()


def empirical_growth(terms: Sequence[int]) -> tuple[float, float]:
    """Fit log a(n) ~ n*log(mu) - alpha*log(n) + const by least squares and
    return (mu_hat, alpha_hat).

    Only the trailing half of the indices enters the fit, to suppress
    transients; index 0 never does (log 0). Needs at least 16 positive
    terms.
    """
    terms = list(terms)
    if len(terms) < 16:
        raise InsufficientTermsError(f"need at least 16 terms, got {len(terms)}")
    if any(t <= 0 for t in terms):
        raise ValueError("terms must be positive")
    top = len(terms) - 1
    ns = range(max(1, round(top / 2)), top + 1)
    # normal equations [A^T A | A^T y] of the design rows (n, -log n, 1),
    # solved exactly by Gauss-Jordan (A^T A is positive definite: no pivoting).
    # Every float is a multiple of 2^-1074, so the rows scaled by 2^1074 are
    # exact ints; the sums stay ints and the common scale cancels in the solve.
    rows = [[_scaled(v) for v in (n, -math.log(n), 1, math.log(terms[n]))] for n in ns]
    m = [[Fraction(sum(r[i] * r[j] for r in rows)) for j in range(4)] for i in range(3)]
    for i in range(3):
        m[i] = [v / m[i][i] for v in m[i]]
        for k in range(3):
            if k != i:
                m[k] = [a - m[k][i] * b for a, b in zip(m[k], m[i])]
    return math.exp(m[0][3]), float(m[1][3])


class ConstantEstimate(NamedTuple):
    """Richardson ladder for the limit of c_n = a(n) * n^alpha / mu^n.

    ``rows`` holds (n, c_n, level-1 .. level-k) with None where a level
    would need indices beyond the data; ``estimates[k]`` is the level-k
    value at the last index that supports it (level 0 is the raw tail
    value). The ladder assumes the corrections to c_n expand in integer
    powers of 1/n; that is a working assumption of this tool, not an
    established property of the data, and the report says so. Immutable,
    as a named tuple."""

    stride: int
    levels: int
    rows: tuple[tuple, ...]
    estimates: tuple[float, ...]

    def report(self, max_rows: int | None = None) -> str:
        headers = ["n", "c_n"] + [f"level{k}" for k in range(1, self.levels + 1)]
        if max_rows is not None and max_rows < 0:
            raise ValueError(f"row count must be non-negative, got {max_rows}")
        keep = len(self.rows) if max_rows is None else min(max_rows, len(self.rows))
        shown = self.rows[len(self.rows) - keep :]
        body = []
        for row in shown:
            cells = [str(row[0])] + [
                "" if v is None else f"{v:.9g}" for v in row[1:]
            ]
            body.append(cells)
        widths = [
            max(len(h), *(len(line[i]) for line in body)) if body else len(h)
            for i, h in enumerate(headers)
        ]
        lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
        for cells in body:
            lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
        lines.append(
            "estimates by level: "
            + ", ".join(f"{v:.9g}" for v in self.estimates)
        )
        lines.append(
            "note: extrapolation assumes corrections in integer powers of "
            "1/n (working assumption, not established)"
        )
        return "\n".join(lines)


def estimate_constant(
    terms: Sequence[int],
    params: GrowthParams,
    levels: int = 3,
    stride: int = 8,
) -> ConstantEstimate:
    """Estimate C in a(n) ~ C * mu^n / n^alpha.

    With alpha = p/q in lowest terms, c_n^q = a(n)^q n^p / mu^(qn) is an
    exact rational, rounded once; c_n is its q-th root. Level k combines c
    at n, n+s, ..., n+k*s (s = stride) to cancel the first k inverse-power
    corrections, by Neville's rule for equally spaced points:
    L_k(n) = ((n + k*s) L_{k-1}(n+s) - n L_{k-1}(n)) / (k*s), L_0 = c.
    Exact terms at every index are available, so there is no need for index
    doubling. A step multiplies an error by less than 2*top/s, so the ladder
    runs in ``Decimal`` at a float's 53 bits, 11 spare bits and that growth
    per level; only ``rows`` and ``estimates`` hold floats.
    """
    terms = list(terms)
    if any(t <= 0 for t in terms):
        raise ValueError("terms must be positive")
    if levels < 1 or stride < 1:
        raise ValueError("levels and stride must be positive")
    top = len(terms) - 1
    if top - 1 < levels * stride:
        raise InsufficientTermsError(
            f"need terms up to index {levels * stride + 1} for {levels} "
            f"levels at stride {stride}; got up to {top}"
        )
    bits = 64 + levels * (2 * top // stride).bit_length()
    p, q = params.alpha.numerator, params.alpha.denominator
    with localcontext(Context(prec=math.ceil(bits * math.log10(2)))):
        c, mu_q, mu_power = [], params.mu**q, 1
        for n, t in enumerate(terms[1:], 1):
            mu_power *= mu_q
            num, den = t**q * n ** max(p, 0), mu_power * n ** max(-p, 0)
            shift = max(0, bits + den.bit_length() - num.bit_length())
            c_q = Decimal((num << shift) // den) / (1 << shift)
            c.append(c_q.sqrt() if q == 2 else c_q ** (Decimal(1) / q))
        ladder = [c]
        for k in range(1, levels + 1):
            prev, span = ladder[-1], k * stride
            ladder.append([
                ((n + span) * prev[n - 1 + stride] - n * prev[n - 1]) / span
                for n in range(1, len(prev) - stride + 1)
            ])
    rows = tuple(
        (n, *(float(level[n - 1]) if n <= len(level) else None for level in ladder))
        for n in range(1, top + 1)
    )
    estimates = tuple(float(level[-1]) for level in ladder)
    if not all(math.isfinite(v) for v in estimates):
        raise ArithmeticError("normalization produced non-finite estimates")
    return ConstantEstimate(stride=stride, levels=levels, rows=rows, estimates=estimates)
