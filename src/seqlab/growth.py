"""Growth diagnostics for fast-growing integer sequences.

Three pieces: the exact conjectured growth parameters for the avoider
counts, an empirical fit of those parameters from data, and Richardson
extrapolation of the limiting constant. Terms can have thousands of digits,
so every normalization goes through the standard library's ``decimal``
logarithms at a precision sized from the terms' magnitude, and drops to
machine floats only at the very end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import comb
from typing import Any, Sequence

from .recurrences import InsufficientTermsError


@dataclass(frozen=True)
class GrowthParams:
    """Growth model a(n) ~ C * mu^n / n^alpha with exact parameters."""

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


def _log_precision(terms: Sequence[int]):
    """Decimal context for the logs of ``terms`` and all computed from them:
    ``|log a| < a.bit_length()`` bounds the integer part of each log, and 84
    spare bits carry the fraction past a float's 53 and past the Richardson
    ladder's amplification (about 2^18 at stride 8, level 3). The bits are
    carried as the significant digits that cover them."""
    bits = max(t.bit_length() for t in terms).bit_length() + 84
    return localcontext(Context(prec=math.ceil(bits * math.log10(2))))


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
    with _log_precision(terms):
        logs = [float(Decimal(terms[n]).ln()) for n in ns]
    # normal equations [A^T A | A^T y] of the design rows (n, -log n, 1),
    # solved exactly by Gauss-Jordan (A^T A is positive definite: no pivoting).
    # Every float is a multiple of 2^-1074, so the rows scaled by 2^1074 are
    # exact ints; the sums stay ints and the common scale cancels in the solve.
    rows = [[_scaled(v) for v in (n, -math.log(n), 1, y)] for n, y in zip(ns, logs)]
    m = [[Fraction(sum(r[i] * r[j] for r in rows)) for j in range(4)] for i in range(3)]
    for i in range(3):
        m[i] = [v / m[i][i] for v in m[i]]
        for k in range(3):
            if k != i:
                m[k] = [a - m[k][i] * b for a, b in zip(m[k], m[i])]
    return math.exp(m[0][3]), float(m[1][3])


def richardson_extrapolate(samples: Sequence[tuple[int, Any]]) -> Any:
    """Limit at infinity of a function C + a1/x + ... + ak/x^k from samples
    at k+1 distinct positive points: exact on ``Fraction`` samples, rounded
    at the current ``decimal`` context on ``Decimal`` ones.

    This is Lagrange evaluation at 1/x = 0; with k+1 points it cancels the
    first k correction terms exactly.
    """
    total = 0
    for j, (xj, value) in enumerate(samples):
        weight = Fraction(1)
        for l, (xl, _) in enumerate(samples):
            if l == j:
                continue
            if xl == xj:
                raise ValueError("sample points must be distinct")
            weight *= Fraction(xj, xj - xl)
        total += value * weight.numerator / weight.denominator
    return total


@dataclass(frozen=True)
class ConstantEstimate:
    """Richardson ladder for the limit of c_n = a(n) * n^alpha / mu^n.

    ``rows`` holds (n, c_n, level-1 .. level-k) with None where a level
    would need indices beyond the data; ``estimates[k]`` is the level-k
    value at the last index that supports it (level 0 is the raw tail
    value). The ladder assumes the corrections to c_n expand in integer
    powers of 1/n; that is a working assumption of this tool, not an
    established property of the data, and the report says so.
    """

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

    The normalized sequence c_n is computed in log space; level k then
    combines c at indices n, n+stride, ..., n+k*stride to cancel the first k
    inverse-power corrections (consecutive-index elimination -- exact terms
    at every index are available, so there is no need for index doubling).
    c_n and the ladder stay in ``Decimal`` at the precision sized from the
    terms; only ``rows`` and ``estimates`` hold floats.
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
    rows = []
    with _log_precision(terms):
        log_mu = Decimal(params.mu).ln()
        alpha = Decimal(params.alpha.numerator) / params.alpha.denominator
        c = {
            n: (Decimal(t).ln() + alpha * Decimal(n).ln() - n * log_mu).exp()
            for n, t in enumerate(terms[1:], 1)
        }
        for n in range(1, top + 1):
            row: list = [n, float(c[n])]
            for k in range(1, levels + 1):
                if n + k * stride <= top:
                    pts = [(n + j * stride, c[n + j * stride]) for j in range(k + 1)]
                    row.append(float(richardson_extrapolate(pts)))
                else:
                    row.append(None)
            rows.append(tuple(row))
    estimates = [rows[top - k * stride - 1][1 + k] for k in range(levels + 1)]
    if not all(math.isfinite(v) for v in estimates):
        raise ArithmeticError("normalization produced non-finite estimates")
    return ConstantEstimate(
        stride=stride, levels=levels, rows=tuple(rows), estimates=tuple(estimates)
    )
