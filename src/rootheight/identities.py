"""Construction of the height generating function and exact machine
verification of the full identity catalog.

A check maps a root system to its first witness, a ``str``, or to ``None``
when it passes; ``run_check`` alone names the check, labels the system and
makes the ``IdentityReport``, and turns a raised error into the witness.
Equality of rational functions is decided over the exact coefficient field
(rationals, or the cyclotomic field of the system's Coxeter order where
roots of unity appear): a chain compares numerators over denominators equal
up to sign and cross-multiplies only between them (``_chain_check``); eq19,
eq20 and props 12, 16 and 19 compare polynomials over known denominators.
So a "pass" verdict means exact coefficient equality, never a tolerance.
Every sum over roots of unity is formed without a loop of field products:
where the summands are the Galois conjugates of one field element (props 4,
14, 15 and 18), the sum is its trace, an integer sum over the Ramanujan sums
and one denominator; every sum over all h-th roots in props 1, 2, 3, 6, 9
and eq13 has weights that depend only on gcd(k, h) and groups into
Ramanujan sums of the divisor orders (``numth.class_sums``).  Checks are
pure and independent; a runner may execute them concurrently and sort the
reports afterwards.

Checks share memo tables across systems: each divisor-sum term's numerator
lifted to its sum's denominator (``_lifted``, by a cofactor shared on the
order's field context), the building blocks keyed on a divisor d (or on h
and d), the interpolants of props 14 and 18 (with prop14's pole-sum vector
check) and the witnesses of prop6 and prop15, which read only h.  Sharing is
sound because every memoised function is pure and keyed on integers or
coefficient tuples, never on a root system; ``run_check`` adds the calling
system's label.  What a system's own fields determine, B(q) and the Munagi
parts of B(q) and qB(q), is built once per system and kept on it.

Each divisor-sum expansion is built once: prop2's four expansions of
Phi_d'/Phi_d per divisor d, at q and at 1/q (``_phi_log_forms``), which the
Cohen tails of props 5, 6 and 9 share, and prop7's Moebius tail, which props
6 and 10 reuse.  Every term over 1 - q**d divides 1 - q**h, so a member, a
weighted sum of such terms, is built as integer numerators over one
denominator per chain (``_over``), and props 5, 6 and 9 compare in integers
at h times their values (``_h_scale_check``).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, partial
from math import gcd, isqrt, lcm, prod
from operator import add, mul

from .errors import (DegreeTooHigh, MethodMismatch, NoTripleFound, ReconstructionMismatch,
                     RootHeightError)
from .exactalg import (CycNum, Polynomial, RationalFunction, _context,
                       _over_one_denominator, _ratio, cyc_eval, poly_str)
from .linalg import FractionLU, det
from .numth import (ArithSeq, class_sums, class_transform, cyclotomic_discriminant,
                    cyclotomic_poly, divisors, factorize, gcd_count, is_cohen,
                    mobius, psi_poly, ramanujan_sums, totient)
# The height polynomials live in rootsys, which info reads without the suite;
# they are re-exported here under their old names.
from .rootsys import (DEFAULT_BFS_CAP, b_from_exponents, b_poly, coxeter_element,
                      dynkin_polys, exponent_poly, factor_exponents, power_sums,
                      weyl_length_gf_bruteforce, weyl_length_gf_product, weyl_order)

ONE = Polynomial((1,))
ZERO = Polynomial(())


def _one_minus(k):
    """1 - q**k."""
    return Polynomial((1,) + (0,) * (k - 1) + (-1,))


def _qm1(k):
    """q**k - 1."""
    return Polynomial((-1,) + (0,) * (k - 1) + (1,))


def _times_qm1(p, *ks):
    """p times the product of q**k - 1 over ks, on its coefficient list: per
    k, the negated list with the input added back k places up."""
    cs = list(p.coeffs)
    for k in ks:
        out = [-c for c in cs] + [0] * k
        out[k:] = map(add, out[k:], cs)
        cs = out
    return Polynomial(cs)


class IdentityReport(namedtuple("IdentityReport",
                                "identity_id system verdict witness",
                                defaults=(None,))):
    __slots__ = ()

    @property
    def passed(self):
        return self.verdict == "pass"

    def as_dict(self):
        return {"id": self.identity_id, "verdict": self.verdict,
                "witness": self.witness}


# -- comparison helpers -------------------------------------------------------


def _render(x):
    """A witness value by value, not by Python type: a rational as p/q (an
    integer as k), a polynomial in q and a CycNum as a polynomial in z, with
    their coefficients rendered the same way."""
    if isinstance(x, Polynomial):
        return poly_str(x)
    if isinstance(x, CycNum):
        return poly_str(Polynomial(x.coeffs), "z")
    return str(Fraction(x))


def _poly_mismatch(la, pa, lb, pb):
    d = pa - pb
    if d.is_zero:
        return None
    i = next(i for i, c in enumerate(d.coeffs) if c)
    return (f"'{la}' != '{lb}': first difference at q^{i} "
            f"({_render(pa.coeff(i))} vs {_render(pb.coeff(i))})")


def _cross_witness(la, lb, d):
    """The witness of a nonzero cross-difference d = num_a den_b - num_b den_a."""
    i = next(i for i, c in enumerate(d.coeffs) if c)
    return (f"'{la}' != '{lb}': cross-difference has q^{i} "
            f"coefficient {_render(d.coeffs[i])}")


def _rf_mismatch(la, fa, lb, fb):
    """None when fa = fb, else the witness of their cross-difference,
    which is formed once."""
    d = fa.num * fb.den - fb.num * fa.den
    return _cross_witness(la, lb, d) if d else None


def _chain_check(members):
    """Compare every labelled rational function against the first: by the
    numerators within each group of denominators equal up to sign, and by
    one cross-multiplication of the head with each other group.  A member
    passes only if it equals the head, so the first to fail gives the witness."""
    la, fa = members[0]
    groups = {}  # denominator -> numerator coefficients, one entry per sign
    for i, (lb, f) in enumerate(members):
        num = groups.get(f.den.coeffs)
        if num != f.num.coeffs and i and (witness := _rf_mismatch(la, fa, lb, f)):
            return witness
        if num is None:
            groups[f.den.coeffs], groups[(-f.den).coeffs] = f.num.coeffs, (-f.num).coeffs
    return None


def _scalar_mismatch(label, got, expected):
    if got == expected:
        return None
    return f"{label}: got {_render(got)}, expected {_render(expected)}"


# -- shared building blocks ---------------------------------------------------


def _b_parts(rs, shift):
    """Munagi parts of q**shift * B(q) for shift 0 or 1, which props 13, 14
    and 16-19 read; decomposed once per system and shift (``_bq`` slot)."""
    memo = rs._bq
    if shift not in memo:
        memo[shift] = munagi_decompose(b_poly(rs).shifted(shift), rs.h).parts
    return memo[shift]


def _psi_sum(d):
    """Sum over d'|d of mu(d')/phi(d') * Psi_{d'}(q**(d/d'))."""
    return sum((Fraction(mu, totient(dp)) * psi_poly(dp).compose_power(d // dp)
                for dp in divisors(d) if (mu := mobius(dp))), ZERO)


@lru_cache(maxsize=None)
def _lifted(h, num, den, top):
    """The nonzero (i, c) terms of num * (top/den), for coefficient tuples
    with den dividing top: an ``_over`` term's numerator lifted to its sum's
    denominator, memoised by content, by the order's shared cofactor."""
    mult = _context(h).cofactor(den, top)
    return tuple((i, c) for i, c in enumerate((Polynomial(num) * mult).coeffs) if c)


def _over(h, pairs):
    """The sum of w * f over the (w, f) pairs as one rational function over
    D = +-q**s (q**h - 1), s the highest power of q in a term's
    denominator, each of which divides D: every numerator is lifted by the
    exact multiplier D/f.den (``_lifted``) and added into one row with its
    weight, a zero weight adding nothing.  The sign of D is the product of
    the denominators' leading coefficients, negated when none vanishes at
    q = 1.  Then D is the terms' least common denominator with that
    leading coefficient times a polynomial with lowest coefficient +1, so
    a cross-difference has the lowest coefficient, which a witness prints,
    that it has over that least common denominator."""
    pairs = list(pairs)
    dens = [f.den.coeffs for _, f in pairs]
    sign = prod(den[-1] for den in dens) * (-1 if all(map(sum, dens)) else 1)
    s = max((next(i for i, c in enumerate(den) if c) for den in dens), default=0)
    top = (0,) * s + (-sign,) + (0,) * (h - 1) + (sign,)
    rows = [(w, _lifted(h, f.num.coeffs, f.den.coeffs, top)) for w, f in pairs if w]
    out = [0] * max((row[-1][0] + 1 for _, row in rows if row), default=0)
    for w, row in rows:
        for i, c in row:
            out[i] += w * c
    return RationalFunction(Polynomial(out), Polynomial(top))


def _log_derivative(p):
    """p'/p as a rational function."""
    return RationalFunction(p.derivative(), p)


@lru_cache(maxsize=None)
def _phi_log_forms(d):
    """Four expansions of Phi_d'/Phi_d, keyed by prop2's member labels: the
    quotient itself; its Moebius split, the sum over d'|d of
    mu(d/d') * d' q**(d'-1)/(q**d' - 1); the Ramanujan sums c_d(1..d) as
    numerator coefficients over q**d - 1; and the totient q-analogue,
    phi(d) * _psi_sum(d) over q(q**d - 1).  Each is kept as a pair: f, which
    prop2 reads, and q**-1 f(1/q), which the Cohen tails read, f's num and
    den reversed to lengths L - 1 and L for L = deg den."""
    forms = {
        "cyclotomic log-derivatives": _log_derivative(cyclotomic_poly(d)),
        "Moebius split": _over(d, ((mu, RationalFunction(Polynomial.monomial(dp - 1, dp),
                                                         _qm1(dp)))
                                   for dp in divisors(d) if (mu := mobius(d // dp)))),
        "Ramanujan numerators": RationalFunction(
            Polynomial(ramanujan_sums(d)[1:] + ramanujan_sums(d)[:1]), _qm1(d)),
        "totient q-analogue": totient(d) * RationalFunction(_psi_sum(d),
                                                            _qm1(d).shifted(1)),
    }
    return {key: (f, RationalFunction(f.num.reversed_to(f.den.degree - 1),
                                      f.den.reversed_to(f.den.degree)))
            for key, f in forms.items()}


# -- interpolation at roots of unity ------------------------------------------


def lagrange_all_roots(values, h):
    """Interpolating polynomial of degree < h through the points
    (z**i, values[i]) for all h-th roots of unity z**i.

    The coefficients are the inverse transform c_j = s_j/h, where
    s_j = sum_i v_i z**(-ij) is one root sum; the sums are then re-evaluated
    at every node, sum_j s_j z**(ij) = h v_i, as one root sum per node.
    It takes any field values, O(h**2 phi(h)); prop3, whose node values
    are gcd-determined, sums over gcd classes instead (``numth.class_sums``).
    """
    if len(values) != h:
        raise ValueError("need one value per root of unity")
    ctx = _context(h)
    sums = [ctx.root_sum((-i * j, v) for i, v in enumerate(values)) for j in range(h)]
    for i, v in enumerate(values):
        if ctx.root_sum((i * j, s) for j, s in enumerate(sums)) != h * v:
            raise MethodMismatch(f"interpolation routes disagree: interpolant misses node {i}")
    return Polynomial(sums) * Fraction(1, h)


@lru_cache(maxsize=None)
def _gram_lu(h):
    """LU factorisation of the Ramanujan-sum Gram matrix [c_h(i + j)] of size
    phi(h), h >= 3, after its determinant, read off the pivots, is checked
    against the discriminant of Phi_h; factored once per order."""
    ctx = _context(h)
    row = ctx.ramanujan_row
    lu = FractionLU([[row[(i + j) % h] for j in range(ctx.phi)] for i in range(ctx.phi)])
    if lu.det != cyclotomic_discriminant(h):
        raise MethodMismatch(f"Gram determinant of order {h} is not disc(Phi_{h})")
    return lu


def lagrange_primitive_roots(value, h):
    """Interpolating polynomial of degree < phi(h) through the points
    (z**k, v_k) at the primitive h-th roots of unity z**k, where v_1 = value
    (a CycNum of order h or a rational) and v_k is its Galois conjugate under
    z -> z**k.  The interpolant has rational coefficients.

    Both routes start from the root sums U(e) of v_k z**(ke) over the nodes,
    which are the traces Tr(value * z**e): rational and h-periodic in e.
    The barycentric form is the sum of v_k/Phi'(z**k) * Phi(q)/(q - z**k):
    coefficient j is the sum over i > j of Phi_i D(i-1-j), where
    D(e) = sum_k v_k z**(ke)/Phi'(z**k) is sum_t a_t U(t+e) for the
    coordinates a_t of 1/Phi'(z), since 1/Phi'(z**k) is its conjugate too.
    U and the a_t are each taken as integer numerators over one
    denominator, so both sums run in ints and each coefficient is one
    division.  For h >= 3 (where the discriminant is defined) it is
    cross-checked against the Gram-system form: coefficients a_j with
    sum_j c_h(i + j) a_j = U(i), i < phi, solved over the Ramanujan-sum
    Gram matrix.
    """
    ctx = _context(h)
    phi = ctx.phi
    if isinstance(value, CycNum) and value.order != h:
        raise ValueError(f"value lies in the order-{value.order} field, not order {h}")
    sums, den = ctx.traces(value, 2 * phi - 1)
    inv, inv_den = _over_one_denominator(ctx.inv_dphi.coeffs)
    dsums = [sum(map(mul, inv, sums[e:e + phi])) for e in range(phi)]
    total = Polynomial([_ratio(sum(map(mul, ctx.modulus[j + 1:], dsums)), den * inv_den)
                        for j in range(phi)])

    if h >= 3:
        w = _poly_mismatch("barycentric", total, "determinant",
                           Polynomial(_gram_lu(h).solve([_ratio(s, den)
                                                         for s in sums[:phi]])))
        if w:
            raise MethodMismatch(f"primitive interpolation routes disagree: {w}")
    return total


# -- partial fraction decomposition --------------------------------------------


class MunagiDecomposition(namedtuple("MunagiDecomposition", "h parts")):
    """Decomposition of numer/(1-q**h) into parts H_d/(1-q**d) over the
    divisors of h, with deg H_d < phi(d); the representation is unique."""

    __slots__ = ()

    def reconstruct(self):
        """The sum of H_d * (1 + q**d + ... + q**(h-d)), added in integers
        over the common denominator den of the parts.  A coefficient that
        den divides comes out as an ``int``, any other as a ``Fraction``;
        so the sum for an integer numerator holds only ints and compares
        with it as tuples of ints."""
        coeffs = [part.coeffs for part in self.parts.values()]
        den = lcm(1, *(c.denominator for cs in coeffs for c in cs))
        total = [0] * (self.h + max(map(len, coeffs), default=0))
        for d, cs in zip(self.parts, coeffs):
            nums = [(i, c.numerator * (den // c.denominator))
                    for i, c in enumerate(cs) if c]
            for shift in range(0, self.h - d + 1, d):
                for i, c in nums:
                    total[shift + i] += c
        return Polynomial([Fraction(c, den) if c % den else c // den for c in total])


def munagi_decompose(numer, h):
    """The unique parts H_d with deg H_d < phi(d) (Munagi, "Computation of
    q-partial fractions", INTEGERS 7, 2007), with a verified round trip.
    They are linear in the numerator: with its coefficients as integers c_i
    over one denominator den, they are the sum of c_i times column i of the
    order's plan (``_CycContext.munagi_plan``), each part coefficient an
    ``int`` where scale = h * den divides it, else a ``Fraction``, as in
    ``reconstruct``.  A period below 1 raises ``ValueError`` before any work.
    """
    if h < 1:
        raise ValueError(f"period must be positive, got {h}")
    if numer.degree >= h:
        raise DegreeTooHigh(f"degree {numer.degree} not below period {h}")
    layout, cols = _context(h).munagi_plan
    nums, den = _over_one_denominator(numer.coeffs)
    scale, acc = h * den, [0] * h
    for (slots, values), c in zip(cols, nums):
        if c:
            for k, v in zip(slots, values):
                acc[k] += c * v
    parts = {d: Polynomial([Fraction(c, scale) if c % scale else c // scale
                            for c in acc[lo:lo + phi]]) for d, lo, phi in layout}
    dec = MunagiDecomposition(h, parts)
    if dec.reconstruct() != numer:
        raise ReconstructionMismatch(f"parts of period {h} do not rebuild the numerator")
    return dec


# -- the identity catalog -------------------------------------------------------


def prop1_check(rs):
    """Multiplicities recovered from Coxeter power traces (the induced
    character pairing, the class sums of the traces), and heights as their
    partial-sum complements."""
    h, n = rs.h, rs.id.rank
    sums, missed = class_sums(coxeter_element(rs).traces, h)
    if missed is not None:
        return f"trace pairing: class transform misses trace({missed})"
    for k in range(h):
        if sums[k] != h * rs.m[k]:
            return f"trace pairing at k={k} does not give m({k})"
    running = 0
    for k in range(1, h + 1):
        running += rs.m[k - 1]
        if n - running != (rs.b[k - 1] if k < h else 0):
            return f"partial-sum complement fails at k={k}"
    return None


def prop2_check(rs):
    """Six expansions of the logarithmic derivative of the Coxeter
    characteristic polynomial."""
    h = rs.h
    divs = divisors(h)
    mults = [(d, mult) for d in divs if (mult := rs.m[(h // d) % h])]
    members = [
        ("C'/C", _log_derivative(coxeter_element(rs).charpoly)),
        ("binomial exponents",
         _over(h, ((e, RationalFunction(Polynomial.monomial(d - 1, d), _qm1(d)))
                   for d in divs if (e := rs.e_of_d[d])))),
        ("eigenvalue poles", RationalFunction(Polynomial(_pole_sums(rs.m, h, "m")[::-1]),
                                              _qm1(h))),
    ]
    members += [(label, _over(h, ((mult, _phi_log_forms(d)[label][0]) for d, mult in mults)))
                for label in ("cyclotomic log-derivatives", "Moebius split",
                              "Ramanujan numerators", "totient q-analogue")]
    return _chain_check(members)


def _pole_sums(a, h, name):
    """The class sums s_j of a, or ``MethodMismatch`` naming the node missed:
    as (q**h - 1)/(q - w) = sum_j w**(h-1-j) q**j for w**h = 1, the poles
    sum_k a(k)/(q - z**k) (prop2) are s_(h-1-j) over q**h - 1, and
    sum_k -a(k) z**k/(q - z**k) (props 6 and 9) is s_j over 1 - q**h."""
    sums, missed = class_sums(a, h)
    if missed is not None:
        raise MethodMismatch(f"eigenvalue poles: class transform misses {name}({missed})")
    return sums


def prop3_check(rs):
    """Interpolation at all Coxeter-order roots of unity of the stored node
    values p(k) = E(z**k) gives back the exponent polynomial E: the
    interpolant's coefficients are the class sums of p over h, which are
    re-evaluated at every node against p (``numth.class_sums``)."""
    h = rs.h
    sums, missed = class_sums(rs.p, h)
    if missed is not None:
        return f"interpolation routes disagree: interpolant misses node {missed}"
    return _poly_mismatch("interpolant", Polynomial([Fraction(s, h) for s in sums]),
                          "input", exponent_poly(rs))


def prop4_check(rs):
    """Interpolation at the primitive roots of the exponent polynomial's
    value at z cross-checks its Gram-system form, and the interpolant is
    re-evaluated at node 1.  interp - E has rational coefficients, so its
    value at z**k is the conjugate of its value at z: it vanishes at every
    primitive root exactly when it vanishes at z."""
    h = rs.h
    epoly = exponent_poly(rs)
    try:
        interp = lagrange_primitive_roots(cyc_eval(epoly, h, 1), h)
        if cyc_eval(interp - epoly, h, 1):
            return "interpolant misses node 1"
    except MethodMismatch as exc:
        return str(exc)
    return None


def _cohen_tail_members(h, avals):
    """The four divisor expansions of h * A(q)/(1-q**h) shared by every
    gcd-determined coefficient sequence A; avals maps each divisor d to the
    value of A at the (h/d)-th power node.

    Each is prop2's table at 1/q: the sum over the h-th roots z of
    1/(1 - z q), weighted by the transform of A, groups by the order d of
    z into avals[d] times the sum over the primitive d-th roots, which is
    q**-1 * (Phi_d'/Phi_d)(1/q); so every member is the sum of avals[d] times
    the 1/q form of one ``_phi_log_forms(d)`` entry, integers for integer A."""
    divs = [d for d in divisors(h) if avals[d]]
    return [(label, _over(h, ((avals[d], _phi_log_forms(d)[key][1]) for d in divs)))
            for label, key in (("Ramanujan numerators", "Ramanujan numerators"),
                               ("reciprocal log-derivative", "cyclotomic log-derivatives"),
                               ("Moebius split", "Moebius split"),
                               ("totient q-analogue", "totient q-analogue"))]


def _periodic_members(h, a):
    """Expansions of h * A(q)/(1-q**h) for the gcd-determined a(0..h-1):
    eigenvalue poles (``_pole_sums``), double Ramanujan numerator (the same
    transform from the divisor formula), and the Cohen tail members."""
    num = class_transform(a, h, ramanujan_sums)
    return [("eigenvalue poles", RationalFunction(Polynomial(_pole_sums(a, h, "a")),
                                                  _one_minus(h))),
            ("double Ramanujan numerator", RationalFunction(Polynomial(num), _one_minus(h))),
            *_cohen_tail_members(h, {d: a[(h // d) % h] for d in divisors(h)})]


def _h_scale_check(h, members):
    """``_chain_check`` of expansions of A(q)/(1-q**h), each given at h times
    its value, so compared in integers.  Only a failing chain is compared
    again at 1/h, so its witness is the expansions' own."""
    if _chain_check(members):
        return _chain_check([(lb, f * Fraction(1, h)) for lb, f in members])
    return None


def prop5_check(rs):
    """Divisor expansions of E(q)/(1-q**h) driven by the values of E at the
    (h/d)-th power nodes (which are the eigenvalue power sums)."""
    h = rs.h
    epoly = exponent_poly(rs)
    avals = {}
    for d in divisors(h):
        v = cyc_eval(epoly, h, h // d)
        expected = rs.p[(h // d) % h]
        if not v.is_rational or v.as_rational() != expected:
            return f"value at power node h/{d} is not p(h/{d})"
        avals[d] = expected
    lhs = RationalFunction(h * epoly, _one_minus(h))
    return _h_scale_check(h, [("E/(1-q^h)", lhs)] + _cohen_tail_members(h, avals))


def prop6_check(rs):
    """Expansions of the totient q-analogue over 1-q**h, including the
    classical Moebius forms."""
    return _prop6_witness(rs.h)


@lru_cache(maxsize=None)
def _prop6_witness(h):
    """prop6's witness, which depends on h alone."""
    members = [("Psi/(1-q^h)", RationalFunction(h * psi_poly(h), _one_minus(h)))]
    members += _periodic_members(h, ramanujan_sums(h))
    members.append(("Moebius with shifted numerators", _moebius_tail(h, h, True) * h))
    if h > 1:
        members.append(("Moebius plain", _moebius_tail(h, h, False) * h))
    return _h_scale_check(h, members)


@lru_cache(maxsize=None)
def _moebius_tail(h, d, shifted):
    """Sum over d'|d of mu(d') q**(shifted * x)/(1 - q**x), x = h d'/d;
    prop7 weights it over d, prop6 reads d = h and prop10 its splits."""
    return _over(h, ((mu, RationalFunction(Polynomial.monomial(h * dp // d * shifted),
                                           _one_minus(h * dp // d)))
                     for dp in divisors(d) if (mu := mobius(dp))))


def prop7_check(rs):
    """Tail expansions of E(q)/(1-q**h) through the totient q-analogue at
    power substitutions.  The split constant term is the plain Moebius
    expansion minus a(0) for every a, so it also checks that expansion."""
    h = rs.h
    a = lambda k: rs.m[k % h]
    divs = [d for d in divisors(h) if a(h // d)]

    num = sum((a(h // d) * psi_poly(d).compose_power(h // d) for d in divs), ZERO)
    members = [
        ("E/(1-q^h) - a(0)", RationalFunction(exponent_poly(rs) - a(0) * _one_minus(h),
                                              _one_minus(h))),
        ("psi substitution", RationalFunction(num, _one_minus(h))),
        ("Moebius with shifted numerators",
         _over(h, ((a(h // d), _moebius_tail(h, d, True)) for d in divs))),
        ("split constant term",
         _over(h, [(a(0), RationalFunction(Polynomial.monomial(h), _one_minus(h)))]
               + [(a(h // d), _moebius_tail(h, d, False)) for d in divs if d != 1])),
    ]
    return _chain_check(members)


def prop8_check(rs):
    """Heights as complements of gcd-window counts against the binomial
    factorization exponents."""
    h, n = rs.h, rs.id.rank
    running = 0
    for k in range(1, h):
        running += rs.m[k - 1]
        direct = n - running
        counted = n - sum(gcd_count(d, h, k - 1) * rs.e_of_d[h // d]
                          for d in divisors(h))
        if rs.b[k - 1] != direct or rs.b[k - 1] != counted:
            return f"height count mismatch at k={k}"
    return None


def prop9_check(rs):
    """Divisor expansions of (n - E(q))/(1-q**h) = (1-q)B(q)/(1-q**h)."""
    h, n = rs.h, rs.id.rank
    members = [("(1-q)B/(1-q^h)",
                RationalFunction(h * b_poly(rs) * _one_minus(1), _one_minus(h))),
               ("(n-E)/(1-q^h)",
                RationalFunction(h * (n - exponent_poly(rs)), _one_minus(h)))]
    members += _periodic_members(h, [rs.p[0] - rs.p[k] for k in range(h)])
    return _h_scale_check(h, members)


@lru_cache(maxsize=None)
def _split_from_tail(h, d, shifted):
    """Sum over d'|d of mu(d') (d/d' - (1-q^h) q^(shifted * x)/(1-q^x)),
    x = h d'/d, over 1 - q: the mu(d') d/d' add up to phi(d), and the rest
    is (1-q^h) times prop7's Moebius tail; that tail is N over
    s (q**h - 1) for a sign s, so the rest is the polynomial -s N."""
    tail = _moebius_tail(h, d, shifted)
    return RationalFunction(tail.num * tail.den.leading + totient(d), _one_minus(1))


def prop10_check(rs):
    """B(q) as partial sums of the totient q-analogue at power substitutions.

    The final display's route is taken through the shifted-numerator Moebius
    expansion (its unshifted variant is the previous member); see the design
    notes on the misplaced power factor.
    """
    h, n = rs.h, rs.id.rank
    mults = [(d, mult) for d in divisors(h)[1:] if (mult := rs.m[(h // d) % h])]

    members = [
        ("B", RationalFunction(b_poly(rs), ONE)),
        ("(n-E)/(1-q)", RationalFunction(n - exponent_poly(rs), _one_minus(1))),
        ("psi deficit",
         _over(1, ((mult, RationalFunction(totient(d) - psi_poly(d).compose_power(h // d),
                                           _one_minus(1))) for d, mult in mults))),
        ("Moebius plain split", _over(1, ((mult, _split_from_tail(h, d, False))
                                          for d, mult in mults))),
        ("Moebius shifted split", _over(1, ((mult, _split_from_tail(h, d, True))
                                            for d, mult in mults))),
    ]
    return _chain_check(members)


def prop11_check(rs):
    """Gcd-determined sequences decompose with constant parts (and those
    parts are the factorization exponents); a perturbed sequence does not."""
    h = rs.h
    dec = munagi_decompose(Polynomial(rs.m), h)
    for d in divisors(h):
        if dec.parts[d] != Polynomial((rs.e_of_d[h // d],)):
            return f"m-sequence part at d={d} is {_render(dec.parts[d])}"
    dec = munagi_decompose(Polynomial(rs.p), h)
    for d in divisors(h):
        if dec.parts[d] != Polynomial((d * rs.e_of_d[d],)):
            return f"p-sequence part at d={d} is {_render(dec.parts[d])}"
    if h < 3:
        return None
    k0 = next(k for k in range(2, h) if h % k != 0)
    perturbed = list(rs.m)
    perturbed[k0] += 1
    if is_cohen(ArithSeq(h, tuple(perturbed)))[0]:
        return f"perturbation at k={k0} unexpectedly gcd-determined"
    dec = munagi_decompose(Polynomial(perturbed), h)
    if all(part.degree <= 0 for part in dec.parts.values()):
        return "perturbed sequence still has all-constant parts"
    return None


def prop12_check(rs):
    """B(q) from the constant-part decomposition of the eigenvalue
    multiplicities: with the tail N/(s (q**h - 1)), s a sign, the form is
    (n + s N)/(1 - q), decided as (1 - q) B = n + s N."""
    h, n = rs.h, rs.id.rank
    tail = _over(h, ((e, RationalFunction(ONE, _one_minus(d)))
                     for d in divisors(h) if (e := rs.e_of_d[h // d])))
    d = tail.num * tail.den.leading + n + _times_qm1(b_poly(rs), 1)
    return _cross_witness("B", "constant-part form", tail.den * d) if d else None


def prop13_check(rs):
    """Boundary coefficients of the decomposition parts of B(q)."""
    h, n = rs.h, rs.id.rank
    parts = _b_parts(rs, 0)
    top = sum(parts[d].coeff(totient(d) - 1) for d in divisors(h)
              if len(factorize(d)) == 1 and factorize(d)[0][1] == 1)
    checks = [
        _scalar_mismatch("sum of constant terms", sum(parts[d].coeff(0) for d in parts), n),
        _scalar_mismatch("sum of linear terms", sum(parts[d].coeff(1) for d in parts), n - 1),
        _scalar_mismatch("prime top coefficients", top, 1),
        None if parts[1].is_zero else f"part at d=1 is {_render(parts[1])}",
    ]
    return next((c for c in checks if c), None)


def top_part_check(rs, shift):
    """Top decomposition part of q**shift * B(q) as a scaled interpolation
    of q**shift/(1-q) at the primitive roots (prop14 for shift 0, prop18 for
    shift 1); ``_pole_interpolant`` checks the interpolant and, for prop14,
    the pole-sum vector once per order."""
    h, n = rs.h, rs.id.rank
    top = _b_parts(rs, shift)[h]
    try:
        interp = _pole_interpolant(h, shift)
    except MethodMismatch as exc:
        return str(exc)
    return _poly_mismatch("top part", top, "scaled interpolant", (n - rs.e_of_d[1]) * interp)


@lru_cache(maxsize=None)
def _pole_interpolant(h, shift):
    """The interpolant of z**shift/(1 - z) at the primitive roots of order
    h, which props 14 and 18 scale; one per order and shift.  For shift 0
    the pole-sum vector L_{h,j}, the interpolator's sums U(j-1) of
    1/(1 - z), is checked against its alternate evaluation, once per order."""
    ctx = _context(h)
    value = ctx.inv_one_minus - shift  # z/(1 - z) = 1/(1 - z) - 1
    interp = lagrange_primitive_roots(value, h)
    if not shift:
        phi_at_one = cyclotomic_poly(h)(1)
        sums, den = ctx.traces(value, ctx.phi)
        for j, (s, alt) in enumerate(zip(sums, _lvec_interpolated(h)), start=1):
            if s * phi_at_one != alt * den:
                raise MethodMismatch(f"pole-sum vector entry j={j} mismatch")
    return interp


def _lvec_interpolated(h):
    """Phi_h(1) * L_{h,j}, j = 1..phi(h), as the traces of T z**(j-1), where
    T = Phi_h(1)/(1 - z) is taken as Phi_h(q)/(q - z) at q = 1: the sum over
    e of (Phi_{e+1} + ... + Phi_phi) z**e, whose traces are integers."""
    ctx = _context(h)
    at_one = CycNum._raw(h, [sum(ctx.modulus[e + 1:]) for e in range(ctx.phi)])
    return ctx.traces(at_one, ctx.phi)[0]


@lru_cache(maxsize=None)
def pole_sum_witness(h):
    """Verify, for m = 1..h, that the pole sums over the primitive d-th
    roots, summed across the divisors d > 1, equal m - (h+1)/2.  The pole
    sum of d is the trace Tr(z_d**m/(1 - z_d)) over Q in the order-d field,
    which depends on m mod d alone: each divisor takes the d traces of
    1/(1 - z_d), integer numerators over one denominator, and every m is
    compared in integers, over the lcm of those denominators."""
    ctxs = [_context(d) for d in divisors(h)[1:]]
    tables = [ctx.traces(ctx.inv_one_minus, ctx.order) for ctx in ctxs]
    scale = lcm(1, *(den for _, den in tables))
    tables = [[s * (scale // den) for s in sums] for sums, den in tables]
    for m in range(1, h + 1):
        if 2 * sum(sums[m % len(sums)] for sums in tables) != (2 * m - h - 1) * scale:
            return f"pole sum at m={m} is not {Fraction(2 * m - h - 1, 2)}"
    return None


def prop15_check(rs):
    """Closed form m - (h+1)/2 of the divisor-summed pole sums.  Each pole
    sum is a trace, so its rationality is built in rather than checked; the
    closed form is what is checked."""
    return pole_sum_witness(rs.h)


def paired_parts_check(rs, shift):
    """Palindromic pairing of the decomposition parts H_d of q**shift * B(q):
    the sum of (H_d / q**shift + q**(d-1+shift) H_d(1/q)) / (1-q**d) is
    n/(1-q) (prop16 for shift 0, prop19 for shift 1).  Times q**shift (1-q**h)
    it is the sum of P_d (1 + q**d + ... + q**(h-d)), P_d = H_d +
    q**(d-1+2 shift) H_d(1/q), added in integers by ``reconstruct``, against
    n q**shift [h]_q.  Their difference, times (-1)**tau(h) (1-q), tau(h) the
    number of divisors of h, is the cross-difference of the two sides over
    (-1)**tau(h) q**shift (q**h - 1): a witness prints its lowest coefficient."""
    h, n = rs.h, rs.id.rank
    parts, divs = _b_parts(rs, shift), divisors(h)
    paired = {e: parts[e] + parts[e].reversed_to(e - 1 + shift).shifted(shift) for e in divs}
    d = MunagiDecomposition(h, paired).reconstruct() - Polynomial((0,) * shift + (n,) * h)
    return _cross_witness("n/(1-q)", "paired parts", -d if len(divs) % 2 else d) if d else None


def prop17_check(rs):
    """Boundary coefficients of the decomposition parts of qB(q)."""
    h, n = rs.h, rs.id.rank
    parts = _b_parts(rs, 1)
    b_const = parts[2].coeff(0) if h % 2 == 0 else 0
    second = sum(parts[d].coeff(2) for d in divisors(h) if d > 2)
    checks = [
        None if parts[1] == ONE else f"part at d=1 is {_render(parts[1])}",
        _scalar_mismatch("sum of constant terms",
                         sum(parts[d].coeff(0) for d in parts), 0),
        _scalar_mismatch("linear terms", 1 + sum(parts[d].coeff(1) for d in parts), n),
        _scalar_mismatch("quadratic terms", 1 + b_const + second, n - 1),
    ]
    return next((c for c in checks if c), None)


# -- simply-laced singularity data ----------------------------------------------


# Quasihomogeneous weight data attached to a simply-laced system.
SingularityData = namedtuple(
    "SingularityData", "id a b c group_order branch_lengths cartan_det")


def _binary_group_order(rsid):
    if rsid.family == "A":
        return rsid.rank + 1
    if rsid.family == "D":
        return 4 * (rsid.rank - 2)
    return {6: 24, 7: 48, 8: 120}[rsid.rank]


def _branch_lengths(rsid):
    if rsid.family == "A":
        if rsid.rank % 2 == 1:
            arm = (rsid.rank + 1) // 2
            return (1, arm, arm)
        return None
    if rsid.family == "D":
        return (2, 2, rsid.rank - 2)
    return {6: (2, 3, 3), 7: (2, 3, 4), 8: (2, 3, 5)}[rsid.rank]


def _weights_identity_holds(rs, weights):
    """E(q) = q**-h * prod over x in (a, b, c) of (q**h - q**x)/(q**x - 1),
    given the doubled weights 2a, 2b, 2c as ints and decided after the
    substitution q -> t**2, which clears half-integer exponents, as
    E(t**2) prod (t**x - 1) = t**(sum x - 2h) prod (t**(2h-x) - 1), both
    sides built by ``_times_qm1``; a + b + c = h + 1 makes the power t**2."""
    h2 = 2 * rs.h
    lhs = _times_qm1(exponent_poly(rs).compose_power(2), *weights)
    return lhs == _times_qm1(Polynomial.monomial(sum(weights) - h2), *(h2 - x for x in weights))


def _weight_candidates(rs):
    """The doubled weights t in 2..h/2+1 at which the two sides of the weight
    identity have equal values at t = 2 (only these can be equal), in ints,
    the factor 2**h - 1 of x = h cancelled: E(4) is formed once."""
    h, e4 = rs.h, exponent_poly(rs)(4)
    return [t for t in range(2, h // 2 + 2) if e4 * (2 ** t - 1) * (2 ** (h + 2 - t) - 1)
            == 4 * (2 ** (2 * h - t) - 1) * (2 ** (h - 2 + t) - 1)]


def singularity_data(rs):
    """Search the admissible half-integer weight triple (a, b, c) with
    a + b + c = h + 1 and c = h/2 satisfying the eigenvalue product formula,
    over the doubled weights 2a = t <= 2b = h + 2 - t; exactly one must exist."""
    if rs.id.family not in "ADE":
        raise ValueError("weight data applies to simply-laced systems only")
    h = rs.h
    found = [t for t in _weight_candidates(rs)
             if _weights_identity_holds(rs, (t, h + 2 - t, h))]
    if len(found) != 1:
        raise NoTripleFound(f"{rs.id}: {len(found)} admissible triples")
    t = found[0]
    cartan_det = det(rs.cartan)
    if cartan_det != int(cartan_det):
        raise MethodMismatch(f"{rs.id}: Cartan determinant {cartan_det} is not an integer")
    return SingularityData(rs.id, Fraction(t, 2), Fraction(h + 2 - t, 2), Fraction(h, 2),
                           _binary_group_order(rs.id), _branch_lengths(rs.id), int(cartan_det))


def singularity_check(rs):
    """Weight-triple consequences: the closed form for B(q), the doubled
    product of the small weights as the binary group order, the quadratic
    solution for the weights, and the volume relation against the Cartan
    determinant and branch lengths."""
    try:
        data = singularity_data(rs)
    except NoTripleFound as exc:
        return str(exc)
    h, n = rs.h, rs.id.rank
    a, b, c = data.a, data.b, data.c

    # B(t**2) (t**2 - 1) Q = t**2 P - n Q, P and Q the products of t**(2h-x) - 1 and t**x - 1.
    ia, ib = int(2 * a), int(2 * b)
    d = (_times_qm1(b_poly(rs).compose_power(2), ia, ib, 2)
         - _times_qm1(Polynomial.monomial(2), 2 * h - ia, 2 * h - ib)
         + n * _times_qm1(ONE, ia, ib))
    if d:
        return _cross_witness("B(t^2)", "weight form", d)
    if 2 * a * b != data.group_order:
        return f"2ab = {2 * a * b} but group order is {data.group_order}"
    disc = (h + 2) ** 2 - 8 * data.group_order
    s = isqrt(max(disc, 0))
    if s * s != disc:
        return f"quadratic discriminant {disc} is not a square"
    lo, hi = Fraction(h + 2 - s, 4), Fraction(h + 2 + s, 4)
    if {lo, hi} != {a, b}:
        return f"quadratic roots {_render(lo)}, {_render(hi)} do not match ({a}, {b})"
    if data.branch_lengths is not None:
        al, be, ga = data.branch_lengths
        if Fraction(h) / (a * b * c) != Fraction(data.cartan_det, al * be * ga):
            return "volume relation fails against branch lengths"
    return None


# -- remaining checks ------------------------------------------------------------


def eq5_check(rs, bfs_cap=DEFAULT_BFS_CAP):
    """Both product forms of the length generating function agree, and
    (within the cap) match the Cayley-graph enumeration.  Each form is a
    product of (1 - q**d)**x(d), and two are equal exactly when their x are:
    1 - q**d is the product of F_k over k | d (F_1 = 1 - q, F_k = Phi_k), so
    F_k occurs a_k = sum over k | d of x(d) times; the F_k are pairwise
    non-associate irreducibles, so unique factorisation fixes every a_k, and
    Moebius inversion recovers x from a.  Agreeing forms are the product of
    [e + 1]_q over the exponents, a polynomial whose value at 1 is |W|: the
    height form has x(1) = -b_1, x(d) over d > 1 summing to b_1 and no
    d < 1, so the exponent form (x(1) = c_0 - rank for c_0 zero exponents)
    has rank-many exponents, none negative.  Only the enumeration expands it."""
    by_heights, by_exponents = weyl_length_gf_product(rs)
    if by_heights != by_exponents:
        d = min(by_heights.items() ^ by_exponents.items())[0]
        return (f"'height product' != 'exponent product': exponent of (1-q^{d}) is "
                f"{by_heights.get(d, 0)} vs {by_exponents.get(d, 0)}")
    if weyl_order(rs) <= bfs_cap:
        gf = prod(Polynomial.geometric(e + 1) for e in rs.exponents)
        return _poly_mismatch("enumeration", weyl_length_gf_bruteforce(rs, bfs_cap),
                              "product form", gf)
    return None


def eq12_check(rs):
    """Multiplicities as divisor sums of the factorization exponents, with
    the exponents themselves re-derived from the multiplicities once the
    Coxeter characteristic polynomial has been matched against them."""
    h = rs.h
    if factor_exponents(rs) != rs.e_of_d:
        return "re-derived factorization exponents differ"
    for k in range(h):
        val = sum(rs.e_of_d[h // d] for d in divisors(gcd(k, h)))
        if val != rs.m[k]:
            return f"m({k}) != divisor sum {val}"
    return None


def eq13_check(rs):
    """Power sums by three routes (divisor sum, eigenvalue sum, transform)."""
    try:
        vals = power_sums(rs)
    except MethodMismatch as exc:
        return str(exc)
    return None if vals == rs.p else "stored power sums differ"


def dynkin_check(rs):
    """The two quotient polynomials built on q**(e-1) (representation and
    antichain variants) and their relations expressing B(q)."""
    h, n = rs.h, rs.id.rank
    dpoly, mpoly = dynkin_polys(rs)
    bpoly = b_poly(rs)

    checks = [
        _scalar_mismatch("degree", dpoly.degree, 2 * h - 3),
        _scalar_mismatch("value at 1", dpoly(1), n * h),
        _scalar_mismatch("antichain value at 1", mpoly(1), n * (h - 1)),
    ]
    if witness := next((c for c in checks if c), None):
        return witness
    # Each relation q poly/(q**p - 1) - n/(q - 1) is decided as B (q**p - 1) = q poly - n [p]_q.
    for label, poly, period in (("quotient relation", dpoly, h),
                                ("antichain relation", mpoly, h - 1)):
        d = (_times_qm1(bpoly, period) - poly.shifted(1)
             + n * Polynomial.geometric(period))
        if d:
            return _cross_witness("B", label, d)
    return None


def mirimanoff_check(rs, m):
    """The m-fold Euler operator applied to qB(q) matches both the direct
    weighted sum and the sum of power-weighted geometric tails."""
    if not 0 <= m <= 4:
        raise ValueError("operator power must be in 0..4")
    h = rs.h
    via_operator = b_poly(rs).shifted(1)
    for _ in range(m):
        via_operator = via_operator.derivative().shifted(1)

    direct = Polynomial([0] + [rs.b[k - 1] * k ** m for k in range(1, h)])

    tails = [0] * (max(rs.exponents) + 1)
    for e in rs.exponents:
        for i in range(1, e + 1):
            tails[i] += i ** m

    return (_poly_mismatch("operator", via_operator, "direct", direct)
            or _poly_mismatch("operator", via_operator, "tails", Polynomial(tails)))


def _mirimanoff_suite(rs):
    for m in range(5):
        if witness := mirimanoff_check(rs, m):
            return f"m={m}: {witness}"
    return None


def cohen_check(rs):
    """The multiplicity and power-sum sequences are gcd-determined."""
    for name, seq in (("m", rs.m), ("p", rs.p)):
        ok, k = is_cohen(ArithSeq(rs.h, tuple(seq)))
        if not ok:
            return f"{name}-sequence violates gcd-determination at k={k}"
    return None


# -- suite runner -----------------------------------------------------------------


# Check id -> check, in catalog order; eq5 alone also takes the BFS cap.
_CHECKS = {
    "prop1": prop1_check, "prop2": prop2_check, "prop3": prop3_check,
    "prop4": prop4_check, "prop5": prop5_check, "prop6": prop6_check,
    "prop7": prop7_check, "prop8": prop8_check, "prop9": prop9_check,
    "prop10": prop10_check, "prop11": prop11_check, "prop12": prop12_check,
    "prop13": prop13_check, "prop14": partial(top_part_check, shift=0),
    "prop15": prop15_check, "prop16": partial(paired_parts_check, shift=0),
    "prop17": prop17_check, "prop18": partial(top_part_check, shift=1),
    "prop19": partial(paired_parts_check, shift=1),
    "eq5": eq5_check, "eq12": eq12_check, "eq13": eq13_check,
    "eq19": singularity_check, "eq20": dynkin_check,
    "mirimanoff": _mirimanoff_suite, "cohen": cohen_check,
}
CHECK_IDS = tuple(_CHECKS)


def available_checks(rs):
    """Check ids applicable to this system (the weight-triple check needs a
    simply-laced family)."""
    if rs.id.family in "ADE":
        return list(CHECK_IDS)
    return [cid for cid in CHECK_IDS if cid != "eq19"]


def run_check(rs, check_id, bfs_cap=DEFAULT_BFS_CAP):
    """The report of one check on rs, the one place a report is made: the
    check's first witness fails it, and any error it raises becomes the
    witness.  A check id that is unknown, or that ``available_checks(rs)``
    excludes, raises ``ValueError``."""
    if check_id not in _CHECKS:
        raise ValueError(f"unknown check {check_id!r}")
    if check_id not in available_checks(rs):
        raise ValueError(f"check {check_id!r} does not apply to {rs.id}")
    check = _CHECKS[check_id]
    try:
        witness = check(rs, bfs_cap=bfs_cap) if check_id == "eq5" else check(rs)
    except RootHeightError as exc:
        witness = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash must surface as a failed check
        witness = f"internal {type(exc).__name__}: {exc}"
    return IdentityReport(check_id, str(rs.id), "fail" if witness else "pass", witness)


def run_suite(rs, check_ids=None, bfs_cap=DEFAULT_BFS_CAP):
    ids = list(check_ids) if check_ids is not None else available_checks(rs)
    return [run_check(rs, cid, bfs_cap=bfs_cap) for cid in ids]
