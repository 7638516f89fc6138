"""Exact arithmetic kernel: rationals, dense polynomials, cyclotomic field
elements, and rational functions.

Everything here is exact; no floating point is used anywhere in the library.
All values are immutable and all operations are pure functions, so they can
be used freely from concurrent workers.

Polynomial coefficients may be Python ints, ``Fraction`` values, or ``CycNum``
elements of one fixed order; the three kinds interoperate through the usual
arithmetic operators (ints and Fractions embed as constants of the field).
Integers stay integers: a polynomial coefficient or a ``CycNum`` coordinate
that is integral is held as an ``int``, never as ``Fraction(k, 1)``, and the
units 1 and -1 invert to themselves.  So ``monic``, ``divmod`` by a divisor
with leading coefficient +-1, rational-function sums and ``normalize`` keep
integer inputs in ``int`` arithmetic, several times cheaper than ``Fraction``
arithmetic for the same values; ``poly_gcd`` runs in ints for any rational
operands, made primitive integer polynomials.  Products run over the nonzero
coefficients only, so multiplying by a sparse factor such as 1 - q**d costs
O(deg), not O(deg * d).

There is one division loop, ``_divide``.  Reduction modulo the order-h
cyclotomic polynomial Phi_h (``_cyc_remainder``) folds a coefficient sequence
modulo q**h - 1 and divides over the term list of the order's field context;
it reduces field products, sums of powers of the root and Munagi's carries.
Each order has one context (``_CycContext``), built once by the cached
``_context(h)``, whose modulus ``numth.cyclotomic_poly`` returns.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import mul

from .errors import DivisionByZero, NotDivisible


def _coeff_inv(c):
    """Multiplicative inverse of a coefficient, staying exact; the units 1
    and -1 (as ints or as Fractions) invert to themselves as ints."""
    if not c:
        raise DivisionByZero("inverse of zero coefficient")
    if isinstance(c, int):
        return c if c in (1, -1) else Fraction(1, c)
    if isinstance(c, Fraction):
        if c.denominator == 1 and c.numerator in (1, -1):
            return c.numerator
        return Fraction(c.denominator, c.numerator)
    return c.inverse()


def _int_coeffs(coeffs):
    """The coefficients as a list, each integral Fraction as its int numerator."""
    return [c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
            for c in coeffs]


def _over_one_denominator(coeffs):
    """Rational coefficients as (nums, den): integer numerators over their
    least common denominator, each coefficient being nums[i]/den."""
    den = lcm(1, *(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _ratio(num, den):
    """The rational num/den: an int when den divides num, else one Fraction."""
    return num // den if num % den == 0 else Fraction(num, den)


def _convolve(a, b):
    """Coefficients of the product of two coefficient sequences, over the
    nonzero entries only, with the sparser operand in the outer loop."""
    out = [0] * (len(a) + len(b) - 1)
    a = [(i, c) for i, c in enumerate(a) if c]
    b = [(j, c) for j, c in enumerate(b) if c]
    if len(a) > len(b):
        a, b = b, a
    for i, ai in a:
        for j, bj in b:
            out[i + j] = out[i + j] + ai * bj
    return out


def _low_terms(den):
    """The (j, c) pairs of the nonzero entries of den below its top."""
    return tuple((j, c) for j, c in enumerate(den[:-1]) if c)


def _divide(num, terms, dd, inv=None):
    """Quotient and remainder of the coefficient sequence num by a divisor
    of degree dd, given by the ``_low_terms`` of its entries and, unless it
    is monic, the inverse inv of its leading coefficient, by which each
    quotient term is scaled; a dividend shorter than dd + 1 is its own
    remainder.  This is the one division loop of the module: polynomials,
    cyclotomic moduli and field reduction use it."""
    num = list(num)
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dd]
        if c:
            if inv is not None:
                c = c * inv
            quot[i] = c
            for j, b in terms:
                num[i + j] = num[i + j] - c * b
    return quot, num[:dd]


class Polynomial:
    """Dense univariate polynomial; index i holds the coefficient of q**i.

    The zero polynomial is the empty coefficient tuple; otherwise the last
    coefficient is nonzero and ``degree`` equals ``len(coeffs) - 1``.  An
    integral ``Fraction`` coefficient is stored as its ``int`` numerator.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = _int_coeffs(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -----------------------------------------------------

    @classmethod
    def monomial(cls, power, coeff=1):
        return cls((0,) * power + (coeff,))

    @classmethod
    def geometric(cls, count):
        """1 + q + ... + q**(count-1)."""
        return cls((1,) * count)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self):
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i):
        """Coefficient of q**i (0 beyond the degree)."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _wrap(x):
        if isinstance(x, Polynomial):
            return x
        if isinstance(x, RationalFunction):
            raise TypeError("a rational function is not a polynomial coefficient")
        return Polynomial((x,))

    # A rational function operand is not a coefficient: +, * and == return
    # NotImplemented for it, so Python calls RationalFunction's reflected
    # method, which wraps this polynomial instead; - adds the negation, and
    # divmod and the RationalFunction constructor raise TypeError (_wrap).

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, RationalFunction):
                return NotImplemented
            other = Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, RationalFunction):
                return NotImplemented
            return Polynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial(())
        return Polynomial(_convolve(a, b))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = self._wrap(other)
        if other.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Polynomial(()), self
        den = other.coeffs
        inv = None if den[-1] == 1 else _coeff_inv(den[-1])
        quot, rem = _divide(self.coeffs, _low_terms(den), len(den) - 1, inv)
        return Polynomial(quot), Polynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other):
        """Exact quotient; raises NotDivisible on a nonzero remainder."""
        quot, rem = divmod(self, other)
        if not rem.is_zero:
            raise NotDivisible(f"remainder {rem!r} is nonzero")
        return quot

    # -- other operations ---------------------------------------------------

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self):
        return Polynomial(tuple(i * self.coeffs[i] for i in range(1, len(self.coeffs))))

    def shifted(self, k):
        """Multiply by q**k."""
        if self.is_zero:
            return self
        return Polynomial((0,) * k + self.coeffs)

    def compose_power(self, k):
        """Substitute q -> q**k (k >= 1)."""
        if k < 1:
            raise ValueError("substitution power must be positive")
        if self.is_zero:
            return self
        out = [0] * ((len(self.coeffs) - 1) * k + 1)
        for i, c in enumerate(self.coeffs):
            out[i * k] = c
        return Polynomial(out)

    def reversed_to(self, m):
        """q**m * p(1/q); requires m >= degree."""
        if self.is_zero:
            return self
        if m < self.degree:
            raise ValueError("reversal length below degree")
        out = [0] * (m + 1)
        for i, c in enumerate(self.coeffs):
            out[m - i] = c
        return Polynomial(out)

    def monic(self):
        if self.is_zero or self.leading == 1:
            return self
        inv = _coeff_inv(self.leading)
        return Polynomial(tuple(c * inv for c in self.coeffs))

    # -- comparison / display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self.coeffs == self._wrap(other).coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def __str__(self):
        return poly_str(self)


def poly_str(p, var="q"):
    """Human-readable rendering, lowest degree first."""
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c == 1:
            parts.append(v)
        elif c == -1:
            parts.append(f"-{v}")
        else:
            parts.append(f"{c}*{v}")
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def poly_arith(a, b, op):
    """Dispatch basic polynomial arithmetic by name.

    ``op`` is one of add, sub, mul, divexact, rem.
    """
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "divexact":
        return a.divexact(b)
    if op == "rem":
        return a % b
    raise ValueError(f"unknown op {op!r}")


def _primitive(coeffs):
    """Nonzero rational coefficients scaled to content-1 ints, top positive."""
    ints, _ = _over_one_denominator(coeffs)
    content = gcd(*ints) if ints[-1] > 0 else -gcd(*ints)
    return [c // content for c in ints]


def poly_gcd(a, b):
    """Monic gcd over Q (0 when both are 0) by primitive pseudo-remainders
    in ints (Collins, J. ACM 14, 1967): each step scales the dividend by the
    divisor's top coefficient unless it is 1; ``monic`` ends it."""
    if a.is_zero or b.is_zero:
        return (a if b.is_zero else b).monic()
    a, b = sorted((_primitive(a.coeffs), _primitive(b.coeffs)), key=len, reverse=True)
    while len(b) > 1:
        lead, terms, db = b[-1], _low_terms(b), len(b) - 1
        for top in range(len(a) - 1, db - 1, -1):
            c = a.pop()
            if c:
                a = a if lead == 1 else [lead * x for x in a]
                for j, t in terms:
                    a[top - db + j] -= c * t
        rem = Polynomial(a).coeffs
        if not rem:
            return Polynomial(b).monic()
        a, b = b, _primitive(rem)
    return Polynomial((1,))


# ---------------------------------------------------------------------------
# Cyclotomic field elements
# ---------------------------------------------------------------------------


def _cyc_remainder(coeffs, h):
    """Remainder of a coefficient sequence modulo the order-h cyclotomic
    polynomial: it divides q**h - 1, so the sequence is first folded modulo
    q**h - 1 (each residue class mod h summed), then divided over the
    order's memoised term list."""
    ctx = _context(h)
    if len(coeffs) > h:
        coeffs = [sum(coeffs[r::h]) for r in range(h)]
    return _divide(coeffs, ctx.terms, ctx.phi)[1]


class _CycContext:
    """Per-order field data: the modulus Phi_h, q**h - 1 divided by the
    moduli of the contexts of its proper divisors (``NotDivisible`` if one
    leaves a remainder), the nonzero terms of Phi_h below its top (the
    divisor that ``_divide`` runs over) and the primitive residues, plus
    the Ramanujan sums, 1/(1 - z), 1/Phi_h'(z) and the Munagi carry and
    plan, each a ``cached_property`` built on first use.  Every reduction
    modulo Phi_h, of a sum of powers, a product or a carry, is one
    ``_cyc_remainder`` over ``terms``, so the term list of an order is built
    once per process, with its context."""

    def __init__(self, h):
        coeffs = [-1] + [0] * (h - 1) + [1]
        for d in range(1, h):
            if h % d == 0:
                sub = _context(d)
                coeffs, rem = _divide(coeffs, sub.terms, sub.phi)
                if any(rem):
                    raise NotDivisible(f"order {d} cyclotomic does not divide q**{h} - 1")
        self.order = h
        self.modulus = tuple(coeffs)
        self.phi = len(self.modulus) - 1
        self.terms = _low_terms(self.modulus)
        self.residues = tuple(k for k in range(1, h + 1)
                              if gcd(k, h) == 1 and (h == 1 or k < h))
        self._cofactors = {}

    def cofactor(self, den, top):
        """top/den for coefficient tuples, den dividing top = +-q**s (q**h - 1):
        the multiplier of ``identities._lifted``, divided once per order."""
        quot = self._cofactors.get((den, top))
        if quot is None:
            quot = self._cofactors[den, top] = Polynomial(top).divexact(Polynomial(den))
        return quot

    def coords(self, terms):
        """Power-basis coordinates of the sum of c * z**e over the (e, c)
        pairs: each c is added into slot e mod h, zero coefficients
        skipped, and the h slots are reduced once by ``_cyc_remainder``."""
        h = self.order
        acc = [0] * h
        for e, c in terms:
            if c:
                acc[e % h] += c
        return _cyc_remainder(acc, h)

    def root_sum(self, terms):
        """The sum of v * z**e over the (e, v) pairs, v a CycNum of this order
        or a rational: coordinate t of v adds into power e + t, so no field
        product is formed."""
        return CycNum._raw(self.order, self.coords(
            (e + t, c) for e, v in terms
            for t, c in enumerate(v.coeffs if isinstance(v, CycNum) else (v,))))

    @cached_property
    def ramanujan_row(self):
        """The Ramanujan sums c_h(0..h-1), the power sums of the primitive
        h-th roots: Newton's identities on the modulus."""
        mod, phi = self.modulus, self.phi
        row = [phi]
        for k in range(1, self.order):
            acc = k * mod[phi - k] if k <= phi else 0
            for i in range(1, min(k, phi + 1)):
                acc += mod[phi - i] * row[k - i]
            row.append(-acc)
        return tuple(row)

    def traces(self, v, stop):
        """Tr(v * z**e) = sums[e]/den over Q for e = 0..stop-1, the sums of
        the Galois conjugates of v * z**e: v (a CycNum of this order or a
        rational) is written once as integer numerators n_t over one
        denominator den, and sums[e] is the integer sum of n_t c_h(t + e),
        with no field product and no ``Fraction``."""
        row, h = self.ramanujan_row, self.order
        nums, den = _over_one_denominator(v.coeffs if isinstance(v, CycNum) else (v,))
        span = len(nums)
        ext = [row[k % h] for k in range(stop + span - 1)]  # c_h(k), k past h too
        return [sum(map(mul, nums, ext[e:e + span])) for e in range(stop)], den

    @cached_property
    def inv_one_minus(self):
        """1/(1 - z)."""
        return (1 - CycNum.zeta_pow(self.order, 1)).inverse()

    @cached_property
    def inv_dphi(self):
        """1/Phi'(z) = z R(z)/h with R = (q**h - 1)/Phi: differentiating
        q**h - 1 = Phi(q) R(q) at z gives h z**(h-1) = Phi'(z) R(z), so one
        division and one reduction, no inversion."""
        h = self.order
        r, _ = _divide([-1] + [0] * (h - 1) + [1], self.terms, self.phi)
        return CycNum._raw(h, [_ratio(c, h) for c in self.coords(enumerate(r, 1))])

    @cached_property
    def munagi_carry(self):
        """Munagi's parts of Phi_h/(1 - q**h), times h, on the proper divisors
        e of h: the rest starts at h Phi_h and, largest e first, gives
        H_e = (e/h) (rest mod Phi_e), exactly, and loses H_e (1 + q**e + ...)."""
        h = self.order
        rest = [h * c for c in self.modulus] + [0] * (h - self.phi - 1)
        carry = {}
        for e in reversed([e for e in range(1, h) if h % e == 0]):
            top = carry[e] = [e * c // h for c in _cyc_remainder(rest, e)]
            rest = [r - top[i % e] if i % e < len(top) else r for i, r in enumerate(rest)]
        return carry

    @cached_property
    def munagi_plan(self):
        """Munagi's parts of q**i/(1 - q**h), times h, for all i < h: layout holds
        (d, lo, phi(d)) per divisor d, ascending, H_d in slots lo.. of h; column
        i, q**i's nonzero (slots, values), is column i - 1 times q (column 0 is
        H_h = 1, and H_1 is 0 before column h - 1): a value moves up a slot, and
        v at degree phi(d) of H_d leaves as v Phi_d, back as v/d times d's carry."""
        h = self.order
        divs = [d for d in range(1, h + 1) if h % d == 0]
        phis = [_context(d).phi for d in divs]
        layout = list(zip(divs, accumulate(phis, initial=0), phis))
        start = {d: lo for d, lo, _ in layout}
        spill = []
        for d, lo, phi in layout[1:]:
            ctx = _context(d)
            terms = [(lo + phi, -d)] + [(lo + j, -d * b) for j, b in ctx.terms]
            terms += [(start[e] + j, c) for e, cs in ctx.munagi_carry.items()
                      for j, c in enumerate(cs) if c]
            spill.append((lo + phi - 1, d, terms))
        flat, cols, slots = [0] * (h + 1), [], list(range(h))  # slot h: degree phi(h) of H_h
        flat[start[h]] = h
        while len(cols) < h:
            cols.append((tuple(compress(slots, flat)), tuple(compress(flat, flat))))
            over = [(flat[k] // d, terms) for k, d, terms in spill if flat[k]]
            flat.insert(0, 0)
            flat.pop()
            for t, terms in over:
                for j, c in terms:
                    flat[j] += t * c
        return layout, cols

@lru_cache(maxsize=None)
def _context(h):
    if h < 1:
        raise ValueError("cyclotomic order must be positive")
    return _CycContext(h)


class CycNum:
    """Element of the field generated by a primitive h-th root of unity,
    written in the power basis 1, z, ..., z**(phi(h)-1) and reduced modulo
    the order-h cyclotomic polynomial."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        ctx = _context(order)
        cs = tuple(_int_coeffs(coeffs))
        if len(cs) != ctx.phi:
            raise ValueError(f"need {ctx.phi} coordinates for order {order}")
        self.order = order
        self.coeffs = cs

    @classmethod
    def _raw(cls, order, coeffs):
        obj = object.__new__(cls)
        obj.order = order
        obj.coeffs = tuple(_int_coeffs(coeffs))
        return obj

    @classmethod
    def rational(cls, order, value):
        phi = _context(order).phi
        return cls._raw(order, (value,) + (0,) * (phi - 1))

    @classmethod
    def zeta_pow(cls, order, k):
        """z**k for the primitive root z of the given order."""
        return cls._raw(order, _context(order).coords([(k, 1)]))

    # -- coercion ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycNum):
            if other.order != self.order:
                raise ValueError("mixed cyclotomic orders")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNum.rational(self.order, other)
        return None

    # -- field operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(self.order, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.order, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(self.order, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def _scaled(self, s):
        return CycNum._raw(self.order, tuple(s * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return CycNum._raw(self.order,
                           _cyc_remainder(_convolve(self.coeffs, o.coeffs), self.order))

    __rmul__ = __mul__

    def inverse(self):
        if not self:
            raise DivisionByZero("inverse of zero cyclotomic element")
        ctx = _context(self.order)
        a = Polynomial(self.coeffs)
        m = Polynomial(ctx.modulus)
        r0, s0 = a, Polynomial((1,))
        r1, s1 = m, Polynomial(())
        while not r1.is_zero:
            q, r = divmod(r0, r1)
            r0, s0, r1, s1 = r1, s1, r, s0 - q * s1
        # r0 is a nonzero constant: the modulus is irreducible over Q.
        inv = (s0 * _coeff_inv(r0.coeffs[0])) % m
        coeffs = list(inv.coeffs) + [0] * (ctx.phi - len(inv.coeffs))
        return CycNum._raw(self.order, coeffs)

    # -- queries -------------------------------------------------------------

    @property
    def is_rational(self):
        return not any(self.coeffs[1:])

    def as_rational(self):
        if not self.is_rational:
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return all(a == b for a, b in zip(self.coeffs, o.coeffs))

    def __repr__(self):
        return f"CycNum({self.order}, {list(self.coeffs)!r})"


def cyc_eval(p, h, k):
    """Evaluate a rational-coefficient polynomial at z**k for the primitive
    h-th root of unity z, returning the reduced cyclotomic element."""
    return CycNum._raw(h, _context(h).coords((i * k, c) for i, c in enumerate(p.coeffs)))


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """Quotient of two polynomials over one coefficient field.

    Instances are not normalized eagerly; equality is decided by
    cross-multiplication, and ``normalize`` produces the canonical form
    (gcd cancelled, monic denominator).  Callers that compare many values
    over shared denominators group them first (``identities._chain_check``).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = Polynomial._wrap(num)
        den = Polynomial._wrap(den)
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        self.num = num
        self.den = den

    @classmethod
    def _wrap(cls, x):
        return x if isinstance(x, RationalFunction) else cls(x)

    def __add__(self, other):
        """The sum over a * (b/g), g = gcd(a, b) of the denominators a and b:
        the numerators times b/g and a/g, or a * b, b and a when g is
        constant."""
        other = self._wrap(other)
        a, b = self.den, other.den
        g = poly_gcd(a, b)
        da, db = (a, b) if g.degree < 1 else (a.divexact(g), b.divexact(g))
        return RationalFunction(self.num * db + other.num * da, a * db)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        """By cross-multiplication: a/b == c/d when a*d == c*b."""
        o = self._wrap(other)
        return self.num * o.den == o.num * self.den

    def __bool__(self):
        return not self.num.is_zero

    def normalize(self):
        """Canonical form: gcd cancelled, denominator monic."""
        if self.num.is_zero:
            return RationalFunction(Polynomial(()), Polynomial((1,)))
        g = poly_gcd(self.num, self.den)
        num = self.num.divexact(g)
        den = self.den.divexact(g)
        inv = _coeff_inv(den.leading)
        return RationalFunction(num * inv, den * inv)

    def as_polynomial(self):
        """Exact quotient; raises NotDivisible when not a polynomial."""
        return self.num.divexact(self.den)

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def __str__(self):
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


def ratfun_normalize(num, den):
    """Normalized quotient of two polynomials (errors on a zero denominator)."""
    return RationalFunction(num, den).normalize()
