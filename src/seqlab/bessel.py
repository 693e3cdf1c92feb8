"""Modified-Bessel series and the determinant cross-check against the
counting engine.

For permutations (one copy of each letter), the generating function of the
counts divided by n!^2 equals a k x k determinant of modified Bessel series
(Gessel's identity): sum_n u_k(n)/n!^2 * x^(2n) = det(I_(|i-j|)(2x)). A
series truncated after degree ``trunc`` is the list of its ``trunc + 1``
exponential coefficients ``m! * [x^m]``, which are integers for every series
here, so the determinant is exact integer arithmetic and the check is an
identity test, not a numeric comparison. The count side is one resumed pass
over the layers: each index's count resumes from the previous index's
layer, so every layer is advanced once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Sequence

from .tableaux import Checkpoint, avoiders_count


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two series of one truncation, truncated likewise: in
    exponential coefficients, the binomial convolution ``sum_i C(m, i) *
    a[i] * b[m - i]``."""
    size = len(a)
    if len(b) != size:
        raise ValueError("series truncation mismatch")
    out = [0] * size
    for i, x in enumerate(a):
        if not x:
            continue
        for j in range(size - i):
            y = b[j]
            if y:
                out[i + j] += comb(i + j, i) * x * y
    return out


def bessel_I_2x(nu: int, trunc: int) -> list[int]:
    """Series of the modified Bessel function I_nu at argument 2x, as its
    ``trunc + 1`` exponential coefficients: x^(2j+nu) has the ordinary
    coefficient 1/(j! * (j+nu)!), so the exponential one C(2j+nu, j).

    Orders above the truncation give the zero series.
    """
    if nu < 0 or trunc < 0:
        raise ValueError("Bessel order and truncation degree must be nonnegative")
    coeffs = [0] * (trunc + 1)
    for m in range(nu, trunc + 1, 2):
        coeffs[m] = comb(m, (m - nu) // 2)
    return coeffs


def series_det(matrix: Sequence[Sequence[list[int]]]) -> list[int]:
    """Determinant of a square matrix of series of one length, in
    exponential coefficients.

    Expansion by minors with memoization on column subsets: O(2^k) series
    products, fine for k up to ~8. Elimination-style algorithms would divide
    by series with zero constant term, which is why minors are used.
    """
    k = len(matrix)
    if k == 0 or any(len(row) != k for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    size = len(matrix[0][0])
    if any(len(entry) != size for row in matrix for entry in row):
        raise ValueError("all entries must share one truncation")
    memo = {0: [1] + [0] * (size - 1)}

    def expand(mask: int) -> list[int]:
        cached = memo.get(mask)
        if cached is not None:
            return cached
        row = k - bin(mask).count("1")
        acc = [0] * size
        add = True
        for col in range(k):
            bit = 1 << col
            if mask & bit:
                term = _series_mul(matrix[row][col], expand(mask & ~bit))
                if add:
                    acc = [a + t for a, t in zip(acc, term)]
                else:
                    acc = [a - t for a, t in zip(acc, term)]
                add = not add
        memo[mask] = acc
        return acc

    return expand((1 << k) - 1)


def bessel_determinant(k: int, trunc: int) -> list[Fraction]:
    """det(I_(|i-j|)(2x)) for i, j = 1..k to degree ``trunc``, as ``Fraction`` coefficients."""
    if k < 1:
        raise ValueError("k must be positive")
    matrix = [[bessel_I_2x(abs(i - j), trunc) for j in range(k)] for i in range(k)]
    return [Fraction(c, factorial(m)) for m, c in enumerate(series_det(matrix))]


@dataclass(frozen=True)
class GesselCheck:
    """Outcome of comparing n!^2 times the determinant coefficients against
    the counting engine, index by index."""

    k: int
    n_max: int
    failures: tuple[tuple[int, Fraction, int], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def report(self) -> str:
        lines = [f"Bessel determinant identity: k={self.k}, n up to {self.n_max}"]
        for n, det_side, count_side in self.failures:
            lines.append(
                f"  n={n}: determinant gives {det_side}, count gives {count_side}"
            )
        if self.failures:
            lines.append(
                f"FAIL ({len(self.failures)} of {self.n_max + 1} indices disagree)"
            )
        else:
            lines.append(f"PASS (all {self.n_max + 1} indices agree)")
        return "\n".join(lines)


def gessel_check(k: int, n_max: int) -> GesselCheck:
    """True result iff n!^2 * [x^(2n)] det(I_(|i-j|)(2x)) equals the count of
    permutations of n with no increasing subsequence longer than k, i.e.
    avoiders_count(k+1, 1, n), for every n up to n_max.

    The counts are one resumed pass: one ``avoiders_count`` per index, each
    resuming from the checkpoint the one before moved on to layer n - 1, so
    layers 1..n_max are advanced once each, and each index's last table is
    weighted and compared on its own."""
    if k < 1 or n_max < 0:
        raise ValueError("need k >= 1 and n_max >= 0")
    det = bessel_determinant(k, 2 * n_max)
    layer = Checkpoint(k + 1, 1)
    failures = []
    for n in range(n_max + 1):
        det_side = factorial(n) ** 2 * det[2 * n]
        count_side = avoiders_count(k + 1, 1, n, layer)
        if det_side != count_side:
            failures.append((n, det_side, count_side))
    return GesselCheck(k=k, n_max=n_max, failures=tuple(failures))
