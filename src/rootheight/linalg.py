"""Small exact linear-algebra helpers: an LU solver over the rationals, whose
pivots give determinants, and characteristic polynomials from traces."""

from __future__ import annotations

from fractions import Fraction

from .errors import MethodMismatch, SingularSystem
from .exactalg import Polynomial


def det(rows):
    """Determinant over the rationals, read off the pivots of ``FractionLU``;
    0 for a singular matrix."""
    try:
        return FractionLU(rows).det
    except SingularSystem:
        return 0


class FractionLU:
    """LU factorization with row pivoting over exact rationals.

    Factor once, then solve many right-hand sides in O(n^2) each.  ``det`` is
    read off the pivots: the sign of the row permutation times the product of
    the diagonal.  A singular matrix raises ``SingularSystem``.
    """

    def __init__(self, rows):
        n = len(rows)
        a = [[Fraction(x) for x in row] for row in rows]
        perm = list(range(n))
        det = Fraction(1)
        for col in range(n):
            piv = None
            for r in range(col, n):
                if a[r][col]:
                    piv = r
                    break
            if piv is None:
                raise SingularSystem(f"singular matrix at column {col}")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                perm[col], perm[piv] = perm[piv], perm[col]
                det = -det
            pv = a[col][col]
            det *= pv
            for r in range(col + 1, n):
                f = a[r][col]
                if not f:
                    continue
                f = f / pv
                a[r][col] = f
                arow = a[r]
                prow = a[col]
                for c2 in range(col + 1, n):
                    if prow[c2]:
                        arow[c2] = arow[c2] - f * prow[c2]
        self.n = n
        self.lu = a
        self.perm = perm
        self.det = det

    def solve(self, rhs):
        n = self.n
        y = [rhs[self.perm[i]] for i in range(n)]
        lu = self.lu
        for i in range(1, n):
            row = lu[i]
            s = y[i]
            for j in range(i):
                if row[j] and y[j]:
                    s = s - row[j] * y[j]
            y[i] = s
        x = [Fraction(0)] * n
        for i in range(n - 1, -1, -1):
            row = lu[i]
            s = y[i]
            for j in range(i + 1, n):
                if row[j] and x[j]:
                    s = s - row[j] * x[j]
            x[i] = s / row[i]
        return x


def charpoly_int(traces):
    """Monic characteristic polynomial det(qI - M) of an n x n integer
    matrix from the traces of its powers M**0 .. M**n (so traces[0] = n),
    by Newton's identities with exact integer divisions."""
    n = traces[0]
    coeffs_desc = [1]
    for k in range(1, n + 1):
        s = sum(c * traces[k - j] for j, c in enumerate(coeffs_desc))
        q, r = divmod(-s, k)
        if r:
            raise MethodMismatch(f"Newton's identities: {-s} not divisible by {k}")
        coeffs_desc.append(q)
    return Polynomial(tuple(reversed(coeffs_desc)))
