"""Root-system engine: Cartan matrices, the positive roots counted by
height, exponents, the Coxeter element and its characteristic polynomial,
the derived arithmetic functions, and a brute-force Weyl-group oracle.

Built instances are immutable and freely shareable across workers; building
itself is single-threaded per instance.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from math import gcd

from .errors import GroupTooLarge, InvalidRank, MethodMismatch
from .exactalg import Polynomial
from .linalg import charpoly_int
from .numth import (class_sums, class_transform, cyclotomic_poly, divisors, mobius,
                    ramanujan_sums)

FAMILIES = "ABCDEFG"

DEFAULT_BFS_CAP = 1152

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


class RootSystemId(namedtuple("RootSystemId", "family rank")):
    __slots__ = ()

    def __str__(self):
        return f"{self.family}{self.rank}"


def validate_id(rsid):
    fam, n = rsid.family, rsid.rank
    if fam in _MIN_RANK:
        if n < _MIN_RANK[fam]:
            raise InvalidRank(f"{fam} needs rank >= {_MIN_RANK[fam]}, got {n}")
    elif fam == "E":
        if n not in (6, 7, 8):
            raise InvalidRank(f"E needs rank 6, 7 or 8, got {n}")
    elif fam == "F":
        if n != 4:
            raise InvalidRank(f"F needs rank 4, got {n}")
    elif fam == "G":
        if n != 2:
            raise InvalidRank(f"G needs rank 2, got {n}")
    else:
        raise InvalidRank(f"unknown family {fam!r}")


def cartan_matrix(rsid):
    """Integer Cartan matrix; row i is the pairing of all simple roots
    against the i-th simple coroot.

    Conventions: B has the short root last, C the long root last, D the fork
    at the end, E-family the standard numbering with the branch node second.
    These choices affect root coordinates only, never heights.
    """
    validate_id(rsid)
    fam, n = rsid.family, rsid.rank
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i, j):
        m[i][j] = -1
        m[j][i] = -1

    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if fam == "B":
            m[n - 1][n - 2] = -2
        elif fam == "C":
            m[n - 2][n - 1] = -2
    elif fam == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif fam == "E":
        chain = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
        for i, j in chain[: n - 2]:
            bond(i, j)
        bond(1, 3)
    elif fam == "F":
        bond(0, 1)
        bond(1, 2)
        bond(2, 3)
        m[2][1] = -2
    elif fam == "G":
        bond(0, 1)
        m[1][0] = -3
    return m


class RootSystem:
    """A built irreducible root system with all derived invariants.

    Fields follow the engine contract: ``h`` the Coxeter number,
    ``exponents`` ascending, ``b[k-1]`` the number of positive roots of
    height k, ``two_rho_pairings`` the pairings <2 rho, alpha_i^vee> of the
    sum of the positive roots with the simple coroots (2 for every i),
    ``m[k]`` the multiplicity of the k-th eigenvalue of the Coxeter element,
    ``e_of_d`` the cyclic factorization exponents, and ``p[k]`` the power
    sums of the Coxeter eigenvalues.  The roots themselves are not kept.
    Two slots cache data derived on first use: ``_coxeter`` the Coxeter
    element, ``_bq`` the height polynomial B(q) (``b_poly``) and the Munagi
    parts of q**s B(q) (filled by the identity checks).
    """

    __slots__ = ("id", "cartan", "h", "exponents", "b", "two_rho_pairings", "m",
                 "e_of_d", "p", "_coxeter", "_bq")

    def __init__(self, rsid, cartan, h, exponents, b, two_rho_pairings, m, e_of_d, p):
        self.id = rsid
        self.cartan = cartan
        self.h = h
        self.exponents = exponents
        self.b = b
        self.two_rho_pairings = two_rho_pairings
        self.m = m
        self.e_of_d = e_of_d
        self.p = p
        self._coxeter = None
        self._bq = {}

    def __repr__(self):
        return f"RootSystem({self.id}, h={self.h})"


def _columns(cartan):
    """The nonzero (j, a_ji) of each column i of a Cartan matrix (at most four:
    the diagonal and the neighbours of i).  Column i holds the pairings
    <alpha_i, alpha_j^vee> of the simple root alpha_i."""
    n = len(cartan)
    return [[(j, cartan[j][i]) for j in range(n) if cartan[j][i]] for i in range(n)]


def _reflect(p, i, cols):
    """s_i in pairing coordinates p_j = <beta, alpha_j^vee>, in place:
    s_i beta = beta - p_i alpha_i, so p loses p_i times column i of the
    Cartan matrix (and p_i flips sign).  The Coxeter orbits and the Weyl
    walk apply it; the closure inlines it on sparse dicts, dropping zeros."""
    c = p[i]
    for j, a in cols[i]:
        p[j] -= c * a


def _close_positive_roots(cartan):
    """Yield the positive roots one height level at a time, each level a list
    of roots: the simple roots closed under the s_i with
    p_i = <beta, alpha_i^vee> < 0, which raise the height by -p_i and keep
    the root positive (Humphreys, Reflection Groups and Coxeter Groups, 1.6).

    A root is the dict of its nonzero pairings j: p_j, at most about four
    in every family; the Cartan matrix is invertible, so they determine the
    root.  A non-simple positive root gamma has a p_j(gamma) > 0, and
    s_j gamma is then a lower positive root: the least such j names its one
    parent, so s_i beta is kept only when i is that j, and each root comes
    once, with no set of seen ones.  A root rises at most three levels
    (G2), so only levels k..k+3 are held."""
    cols = _columns(cartan)
    levels = {1: [dict(col) for col in cols]}
    k = 1
    while k in levels:
        level = levels.pop(k)
        for beta in level:
            for i, c in beta.items():
                if c < 0:
                    gamma = beta.copy()
                    for j, a in cols[i]:
                        gamma[j] = gamma.get(j, 0) - c * a
                        if not gamma[j]:
                            del gamma[j]
                    for j in gamma:
                        if j < i and gamma[j] > 0:
                            break
                    else:
                        levels.setdefault(k - c, []).append(gamma)
        yield level
        k += 1


def build(rsid):
    """Construct the root system, derive every stored invariant and check
    them.  The closure's levels are folded into the height counts ``b`` and
    the pairing sums ``two_rho_pairings`` as they come; no root is kept.
    A level of more than n roots is refused at once: every height count is
    at most the rank, and a closure that repeated roots would otherwise
    grow its levels exponentially before the invariants are checked."""
    cartan = cartan_matrix(rsid)
    n = rsid.rank
    b = []
    two_rho = [0] * n
    for level in _close_positive_roots(cartan):
        if len(level) > n:
            raise MethodMismatch(f"{rsid}: {len(level)} roots of height "
                                 f"{len(b) + 1} exceed the rank")
        b.append(len(level))
        for beta in level:
            for j, x in beta.items():
                two_rho[j] += x
    h = len(b) + 1

    # Exponents are the conjugate of the height-count partition.
    if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
        raise MethodMismatch(f"{rsid}: height counts are not non-increasing")
    exponents = [sum(1 for bk in b if bk >= j) for j in range(n, 0, -1)]

    m = _multiplicities(exponents, h)
    e_of_d = _moebius_exponents(m, h)
    p = _divisor_power_sums(e_of_d, h)

    rs = RootSystem(rsid, cartan, h, exponents, b, tuple(two_rho), m, e_of_d, p)
    _check_invariants(rs)
    return rs


def _multiplicities(exponents, h):
    """m(k) for k = 0..h-1: how many exponents are k modulo h."""
    count = Counter(e % h for e in exponents)
    return [count[k] for k in range(h)]


def _divisor_power_sums(e_of_d, h):
    """p(k) for k = 0..h-1: the sum of d e(d) over the divisors d of gcd(k, h)."""
    return [sum(d * e_of_d[d] for d in divisors(gcd(k, h))) for k in range(h)]


def _moebius_exponents(m, h):
    """e(d) for the divisors d of h: the Moebius inversion of m over them."""
    divs = divisors(h)
    return {d: sum(mobius(dp // d) * m[(h // dp) % h] for dp in divs if dp % d == 0)
            for d in divs}


def _check_invariants(rs):
    n, h, b, e = rs.id.rank, rs.h, rs.b, rs.exponents

    def b_at(k):
        return b[k - 1] if 1 <= k <= h - 1 else 0

    invariants = (
        (b[0] == n, "rank-many simple roots expected at height 1"),
        (sum(b) == n * h // 2, "n*h/2 positive roots expected"),
        (b[-1] == 1, "unique root of maximal height"),
        (h < 3 or b[1] == n - 1, "n-1 roots expected at height 2"),
        (all(b_at(k) + b_at(h + 1 - k) == n for k in range(1, h + 1)),
         "height counts not complementary"),
        (all(e[k] + e[n - 1 - k] == h for k in range(n)), "exponents not symmetric"),
        (rs.m[0] == 0 and sum(rs.m) == n, "multiplicities do not sum to the rank"),
        (all(b_at(k) == sum(1 for ei in e if ei >= k) for k in range(1, h)),
         "height counts not conjugate to the exponents"),
        (rs.p[0] == n, "p(0) is not the rank"),
    )
    for holds, what in invariants:
        if not holds:
            raise MethodMismatch(f"{rs.id}: {what}")


def multiplicities(rs):
    """Eigenvalue multiplicities m(k) of the Coxeter element, from the
    exponents (each exponent lies in 1..h-1)."""
    return _multiplicities(rs.exponents, rs.h)


# -- height polynomials --------------------------------------------------------


def exponent_poly(rs):
    """Sum of q**e over the exponents (multiplicities included)."""
    out = [0] * rs.h
    for e in rs.exponents:
        out[e] += 1
    return Polynomial(out)


def b_from_exponents(exponents):
    """Height generating function rebuilt from an exponent list."""
    total = Polynomial(())
    for e in exponents:
        total = total + Polynomial.geometric(e)
    return total


def b_poly(rs):
    """Height distribution polynomial, coefficient of q**(k-1) counting the
    positive roots of height k; computed three independent ways, once per
    system (kept in its ``_bq`` slot)."""
    memo = rs._bq
    if "b" not in memo:
        from_heights = Polynomial(rs.b)
        from_exps = b_from_exponents(rs.exponents)
        ratio = (exponent_poly(rs) - rs.id.rank).divexact(Polynomial((-1, 1)))
        if not (from_heights == from_exps == ratio):
            raise MethodMismatch(f"{rs.id}: height polynomial routes disagree")
        memo["b"] = from_heights
    return memo["b"]


def dynkin_polys(rs):
    """D(q) and M(q): the sum of q**(e-1) over the exponents times
    1 + q + ... + q**(h-1) (representation variant) and times
    1 + q + ... + q**(h-2) (antichain variant)."""
    spoly = sum((Polynomial.monomial(e - 1) for e in rs.exponents), Polynomial(()))
    return Polynomial.geometric(rs.h) * spoly, Polynomial.geometric(rs.h - 1) * spoly


# -- Coxeter element ---------------------------------------------------------


CoxeterElement = namedtuple("CoxeterElement", "charpoly traces")


def mat_mul(a, b):
    """Dense product of two square integer matrices (tuples of rows)."""
    n = len(a)
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
                 for i in range(n))


def coxeter_element(rs):
    """c = s_0 s_1 ... s_{n-1}, the traces of c**0 .. c**(h-1) and the exact
    characteristic polynomial.  Cached on the root system.

    c permutes the roots, so each simple root alpha_i is followed along its
    c-orbit in pairing coordinates (Steinberg, "Finite reflection groups",
    Trans. AMS 91, 1959).  One step applies s_j for j = n-1 .. 0 wherever
    p_j != 0 (s_j fixes a root with p_j = 0).  Coordinate i of the root
    in the simple-root basis changes only under s_i, by -p_i, and is the
    diagonal entry (c**t)_ii, so tr(c**t) sums it over i.  c**h = I holds
    when every alpha_i is back after h steps: the simple roots are a basis."""
    if rs._coxeter is not None:
        return rs._coxeter
    n, h = rs.id.rank, rs.h
    cols = _columns(rs.cartan)
    traces = [0] * h
    for i in range(n):
        start = [row[i] for row in rs.cartan]
        p, x = list(start), 1
        for t in range(h):
            traces[t] += x
            for j in range(n - 1, -1, -1):
                if p[j]:
                    if j == i:
                        x -= p[j]
                    _reflect(p, j, cols)
        if p != start:
            raise MethodMismatch(f"{rs.id}: Coxeter element order is not h")
    charpoly = charpoly_int(traces)

    expected = Polynomial((1,))
    for d in divisors(h):
        mult = rs.m[(h // d) % h]
        if mult:
            expected = expected * cyclotomic_poly(d) ** mult
    if charpoly != expected:
        raise MethodMismatch(f"{rs.id}: charpoly does not match eigenvalue data")

    cox = CoxeterElement(charpoly, tuple(traces))
    rs._coxeter = cox
    return cox


def factor_exponents(rs):
    """Exponents e(d) of the factorization of the Coxeter characteristic
    polynomial into binomials q**d - 1, by Moebius inversion over the
    divisor lattice.  ``coxeter_element`` has matched that polynomial with
    the product of Phi_d**m(h/d), which is the product of (q**d - 1)**e(d)
    for the inversion of the same m."""
    coxeter_element(rs)
    return _moebius_exponents(rs.m, rs.h)


def power_sums(rs):
    """Power sums p(k) of the Coxeter eigenvalues from the divisor sum over
    e(d), cross-checked against the eigenvalue sums, the class sums of the
    exponents' residue counts (which miss a node exactly when the counts
    are not gcd-determined, that is when some p(k) is irrational), and
    against the transform of m over the divisor-formula Ramanujan sums."""
    h = rs.h
    out = _divisor_power_sums(rs.e_of_d, h)
    sums, missed = class_sums(_multiplicities(rs.exponents, h), h)
    if missed is not None:
        raise MethodMismatch(f"{rs.id}: eigenvalue sum: class transform misses m({missed})")
    for leg, got in (("eigenvalue sum", sums),
                     ("transform of m", class_transform(rs.m, h, ramanujan_sums))):
        k = next((k for k in range(h) if got[k] != out[k]), None)
        if k is not None:
            raise MethodMismatch(f"{rs.id}: p({k}) disagrees with {leg}")
    return out


# -- Weyl group oracle --------------------------------------------------------


def weyl_order(rs):
    out = 1
    for e in rs.exponents:
        out *= e + 1
    return out


def weyl_length_gf_bruteforce(rs, cap=DEFAULT_BFS_CAP):
    """Length generating function by walking the orbit of 2*rho (the sum of
    the positive roots; trivial stabilizer) one length at a time, in
    pairing coordinates lambda_i = <w(2 rho), alpha_i^vee>: s_i w is one
    longer than w exactly when lambda_i > 0, and then i is a descent of
    s_i w (its coordinate i is negative).  Every element but 1 has a least
    descent, so s_i w is taken from w only when i is the least descent of
    s_i w, and each element is reached once, with no set of seen ones.
    Coordinate j != i of s_i w is lambda_j - lambda_i a_ji with a_ji <= 0,
    so only a negative lambda_j with j < i can make j a smaller descent.
    A level is kept as one list per least descent j0 (list n holds 1):
    every i < j0 gives a child, and an i > j0 only if it is a neighbour of
    j0 (at most three) that makes lambda_j0 positive and leaves no negative
    lambda_j with j0 < j < i; no other index is tested.
    The start, the stored ``two_rho_pairings``, must be 2 for every i."""
    order = weyl_order(rs)
    if order > cap:
        raise GroupTooLarge(f"|W({rs.id})| = {order} exceeds cap {cap}")
    start = rs.two_rho_pairings
    if any(x != 2 for x in start):
        raise MethodMismatch(f"{rs.id}: the positive roots do not sum to 2*rho")
    cartan, cols, n = rs.cartan, _columns(rs.cartan), rs.id.rank
    upper = [[(i, row[i]) for i in range(j + 1, n) if row[i]] for j, row in enumerate(cartan)]
    upper.append([])
    level = [[] for _ in range(n)] + [[list(start)]]
    counts = []
    while any(level):
        counts.append(sum(map(len, level)))
        nxt = [[] for _ in range(n)]
        for j0, group in enumerate(level):
            for lam in group:
                for i in range(j0):
                    v = lam[:]
                    _reflect(v, i, cols)
                    nxt[i].append(v)
                for i, a in upper[j0]:
                    c = lam[i]
                    if c > 0 and lam[j0] > c * a:
                        for j in range(j0 + 1, i):
                            if lam[j] < 0 and lam[j] <= c * cartan[j][i]:
                                break
                        else:
                            v = lam[:]
                            _reflect(v, i, cols)
                            nxt[i].append(v)
        level = nxt
    if sum(counts) != order:
        raise MethodMismatch(f"{rs.id}: enumeration found {sum(counts)} of {order} elements")
    return Polynomial(counts)


def weyl_length_gf_product(rs):
    """The two product forms of the length generating function, each as the
    exponents x(d) of its binomials: the dict d -> x(d) of the product of
    (1 - q**d)**x(d), sorted by d, zeros dropped.  Over the positive roots,
    each of the b_k roots of height k gives (1 - q**(k+1))/(1 - q**k); over
    the exponents, each e gives (1 - q**(e+1)), and (1 - q)**-rank closes
    the product."""
    by_heights, by_exponents = Counter(), Counter({1: -rs.id.rank})
    for k, bk in enumerate(rs.b, start=1):
        by_heights[k + 1] += bk
        by_heights[k] -= bk
    for e in rs.exponents:
        by_exponents[e + 1] += 1
    return tuple({d: x for d, x in sorted(form.items()) if x}
                 for form in (by_heights, by_exponents))


# -- catalog -------------------------------------------------------------------


def default_catalog():
    """The default system list: A1-A10, B2-B8, C2-C8, D4-D8, E6-E8, F4, G2."""
    ids = [RootSystemId("A", n) for n in range(1, 11)]
    ids += [RootSystemId("B", n) for n in range(2, 9)]
    ids += [RootSystemId("C", n) for n in range(2, 9)]
    ids += [RootSystemId("D", n) for n in range(4, 9)]
    ids += [RootSystemId("E", n) for n in (6, 7, 8)]
    ids += [RootSystemId("F", 4), RootSystemId("G", 2)]
    return ids


def factorization_string(rs):
    """Render the Coxeter characteristic polynomial as a quotient of
    binomials q**d - 1 according to the signs of e(d)."""
    def fmt(d, e):
        base = "q-1" if d == 1 else f"q^{d}-1"
        return f"({base})" + (f"^{e}" if e > 1 else "")

    items = sorted(rs.e_of_d.items(), key=lambda kv: -kv[0])
    num = "".join(fmt(d, e) for d, e in items if e > 0)
    den = "".join(fmt(d, -e) for d, e in items if e < 0)
    return f"{num}/({den})" if den else num
