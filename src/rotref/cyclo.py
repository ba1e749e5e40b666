"""Exact arithmetic in cyclotomic fields Q(zeta_L).

Elements are represented on the power basis 1, z, ..., z^(phi(L)-1) of
Q(zeta_L), reduced modulo the L-th cyclotomic polynomial Phi_L, with one
shared positive integer denominator per element and integer numerator
coefficients whose common content with the denominator is 1.  This form is
canonical: two elements are equal as field values iff their conductors,
numerator vectors and denominators coincide, so CycNum values hash and
compare structurally.

All values are immutable; every operation is pure.  Per-conductor tables
(Phi_L and its power-reduction rows) are computed once and
published to a module cache with write-once semantics, so values can be
shared freely between threads.

Rational scalars are plain fractions.Fraction (always stored reduced,
positive denominator), which is exactly the invariant the code needs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

__all__ = [
    "CycNum",
    "cyclotomic_polynomial",
    "euler_phi",
    "zeta_power",
    "embed",
    "real_imag_parts",
    "real_sign",
    "is_positive_real",
    "rational_to_json",
    "rational_from_json",
    "int_from_json",
    "cyc_to_json",
    "cyc_from_json",
    "ConductorMismatch",
    "CONDUCTOR_CAP",
]

# largest conductor that JSON input and lemma-plane accept: on a 2-vCPU host,
# lemma-plane takes about a second at L = 1000 and a minute at L = 4004, and
# a group file at L = 60060 ran past 20 s while it built tables
CONDUCTOR_CAP = 1000


class ConductorMismatch(ValueError):
    """Raised when operands live over incompatible conductors."""


# ---------------------------------------------------------------------------
# integer polynomial helpers (dense, low degree first)
# ---------------------------------------------------------------------------

def _poly_mul_int(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_divexact_monic(num, den):
    """Exact division of integer polynomials; den must be monic and divide num."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c == 0:
            continue
        out[k - dd] = c
        for j in range(dd + 1):
            num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division was not exact")
    return out


_PHI_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(L: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the monic polynomial Phi_L.

    Computed by exact division of x^L - 1 by the product of Phi_d over the
    proper divisors d of L.
    """
    if L < 1:
        raise ValueError("conductor must be a positive integer")
    cached = _PHI_CACHE.get(L)
    if cached is not None:
        return cached
    if L == 1:
        poly = (-1, 1)
    else:
        num = [0] * (L + 1)
        num[0] = -1
        num[L] = 1
        den = [1]
        for d in range(1, L):
            if L % d == 0:
                den = _poly_mul_int(den, cyclotomic_polynomial(d))
        poly = tuple(_poly_divexact_monic(num, den))
    _PHI_CACHE[L] = poly
    return poly


def euler_phi(L: int) -> int:
    return len(cyclotomic_polynomial(L)) - 1


# ---------------------------------------------------------------------------
# per-conductor tables
# ---------------------------------------------------------------------------

class _Tables:
    __slots__ = ("L", "phi", "poly", "power_rows")

    def __init__(self, L: int):
        self.L = L
        poly = cyclotomic_polynomial(L)
        phi = len(poly) - 1
        self.phi = phi
        self.poly = poly
        # power_rows[e] = integer coefficient vector of x^e mod Phi_L,
        # for every exponent that reductions can produce.
        top = max(L - 1, 2 * phi - 2, 0)
        rows = []
        for e in range(min(phi, top + 1)):
            row = [0] * phi
            row[e] = 1
            rows.append(tuple(row))
        if top >= phi:
            base = tuple(-c for c in poly[:phi])  # x^phi reduced
            rows.append(base)
            prev = base
            for _ in range(phi + 1, top + 1):
                lead = prev[phi - 1]
                nxt = [0] * phi
                for i in range(1, phi):
                    nxt[i] = prev[i - 1]
                if lead:
                    for i in range(phi):
                        nxt[i] += lead * base[i]
                prev = tuple(nxt)
                rows.append(prev)
        self.power_rows = tuple(rows)


_TABLES: dict[int, _Tables] = {}


def _tables(L: int) -> _Tables:
    t = _TABLES.get(L)
    if t is None:
        t = _Tables(L)
        _TABLES[L] = t  # idempotent publish
    return t


def _content(nums, den):
    g = den
    for v in nums:
        if v:
            g = math.gcd(g, v)
            if g == 1:
                return 1
    return g


# ---------------------------------------------------------------------------
# the field element
# ---------------------------------------------------------------------------

class CycNum:
    """An element of Q(zeta_L) in canonical reduced form.

    num is an integer tuple of length phi(L), den a positive integer with
    gcd(content(num), den) = 1; the value is sum(num[i]/den * zeta_L^i).
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, num: tuple[int, ...], den: int):
        self.conductor = conductor
        self.num = num
        self.den = den

    # -- construction -------------------------------------------------

    @staticmethod
    def make(L: int, nums, den: int = 1) -> "CycNum":
        """Build from integer coefficients over a common denominator."""
        t = _tables(L)
        nums = list(nums)
        if len(nums) != t.phi:
            raise ValueError(f"need {t.phi} coefficients for conductor {L}")
        if den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        if den < 0:
            den = -den
            nums = [-v for v in nums]
        g = _content(nums, den)
        if g > 1:
            den //= g
            nums = [v // g for v in nums]
        return CycNum(L, tuple(nums), den)

    @staticmethod
    def from_fractions(L: int, coeffs) -> "CycNum":
        coeffs = [Fraction(c) for c in coeffs]
        den = reduce(math.lcm, (c.denominator for c in coeffs), 1)
        return CycNum.make(L, [int(c * den) for c in coeffs], den)

    @staticmethod
    def rational(L: int, value) -> "CycNum":
        f = Fraction(value)
        t = _tables(L)
        nums = [0] * t.phi
        nums[0] = f.numerator
        return CycNum.make(L, nums, f.denominator)

    @staticmethod
    def zero(L: int) -> "CycNum":
        return CycNum.rational(L, 0)

    @staticmethod
    def one(L: int) -> "CycNum":
        return CycNum.rational(L, 1)

    # -- views ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        d = self.den
        return tuple(Fraction(v, d) for v in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_one(self) -> bool:
        return self.den == 1 and self.num[0] == 1 and not any(self.num[1:])

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    # -- arithmetic -----------------------------------------------------

    def _check(self, other: "CycNum"):
        if self.conductor != other.conductor:
            raise ConductorMismatch(
                f"conductor {self.conductor} vs {other.conductor}; embed first"
            )

    def __add__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = [a + b for a, b in zip(self.num, other.num)]
            return CycNum.make(self.conductor, nums, d1)
        g = math.gcd(d1, d2)
        m1 = d2 // g
        m2 = d1 // g
        nums = [a * m1 + b * m2 for a, b in zip(self.num, other.num)]
        return CycNum.make(self.conductor, nums, d1 * m1)

    def __sub__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            nums = [a - b for a, b in zip(self.num, other.num)]
            return CycNum.make(self.conductor, nums, d1)
        g = math.gcd(d1, d2)
        m1 = d2 // g
        m2 = d1 // g
        nums = [a * m1 - b * m2 for a, b in zip(self.num, other.num)]
        return CycNum.make(self.conductor, nums, d1 * m1)

    def __neg__(self) -> "CycNum":
        return CycNum(self.conductor, tuple(-v for v in self.num), self.den)

    def __mul__(self, other: "CycNum") -> "CycNum":
        self._check(other)
        t = _tables(self.conductor)
        phi = t.phi
        a, b = self.num, other.num
        acc = [0] * (2 * phi - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        acc[i + j] += ai * bj
        rows = t.power_rows
        for k in range(2 * phi - 2, phi - 1, -1):
            ck = acc[k]
            if ck:
                row = rows[k]
                for i in range(phi):
                    acc[i] += ck * row[i]
        return CycNum.make(self.conductor, acc[:phi], self.den * other.den)

    def inv(self) -> "CycNum":
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a), with k over (Z/L)^x and
        N(a) = a * prod_{k != 1} sigma_k(a) the rational field norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta_L)")
        key = (self.conductor, self.num, self.den)
        cached = _INV_CACHE.get(key)
        if cached is not None:
            return cached
        L = self.conductor
        rest = CycNum.one(L)
        for k in range(2, L):
            if math.gcd(k, L) == 1:
                rest = rest * self.galois(k)
        norm = self * rest
        if not norm.is_rational() or norm.is_zero():
            raise ArithmeticError("field norm is not a nonzero rational")
        out = CycNum.make(
            L, [v * norm.den for v in rest.num], rest.den * norm.num[0]
        )
        _INV_CACHE[key] = out
        return out

    def __truediv__(self, other: "CycNum") -> "CycNum":
        return self * other.inv()

    def galois(self, k: int) -> "CycNum":
        """The automorphism sigma_k: zeta_L -> zeta_L^k, for k prime to L."""
        L = self.conductor
        k %= L
        if math.gcd(k, L) != 1:
            raise ValueError(f"{k} is not a unit mod {L}")
        t = _tables(L)
        phi = t.phi
        acc = [0] * phi
        for i, v in enumerate(self.num):
            if v:
                row = t.power_rows[(i * k) % L]
                for j in range(phi):
                    acc[j] += v * row[j]
        return CycNum.make(L, acc, self.den)

    def conj(self) -> "CycNum":
        return self.galois(self.conductor - 1)

    def embed(self, L2: int) -> "CycNum":
        L = self.conductor
        if L2 == L:
            return self
        if L2 % L != 0:
            raise ConductorMismatch(f"{L} does not divide {L2}")
        t2 = _tables(L2)
        step = L2 // L
        acc = [0] * t2.phi
        for i, v in enumerate(self.num):
            if v:
                row = t2.power_rows[i * step]
                for k in range(t2.phi):
                    acc[k] += v * row[k]
        return CycNum.make(L2, acc, self.den)

    # -- identity -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycNum):
            return NotImplemented
        return (
            self.conductor == other.conductor
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self) -> int:
        return hash((self.conductor, self.num, self.den))

    def sort_key(self):
        return (self.den, self.num)

    def __repr__(self) -> str:
        return f"CycNum({self.conductor}, {self.pretty()!r})"

    def pretty(self) -> str:
        if self.is_zero():
            return "0"
        terms = []
        for i, v in enumerate(self.num):
            if not v:
                continue
            c = Fraction(v, self.den)
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        out = terms[0]
        for term in terms[1:]:
            out += f" + {term}" if not term.startswith("-") else f" - {term[1:]}"
        return out


_INV_CACHE: dict[tuple, CycNum] = {}


# ---------------------------------------------------------------------------
# reduction modulo a prime above p = 1 (mod L)
# ---------------------------------------------------------------------------
#
# A ring map Z[zeta_L] -> F_p sends every minor of an integral matrix to the
# same minor of its image.  So a nonzero image certifies a nonzero exact
# value, and the rank mod p is a lower bound for the exact rank: when it is
# maximal it is the exact rank.  Rows are scaled by integers to clear their
# denominators before reduction, so nothing is ever inverted mod p.

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class _ModImage:
    """Ring homomorphism Z[zeta_L] -> F_p with p = 1 (mod L); zeta_L maps to
    an element of exact multiplicative order L, hence to a root of Phi_L."""

    __slots__ = ("p", "powers")

    def __init__(self, L: int):
        p = ((1 << 41) // L + 1) * L + 1
        while not _is_prime(p):
            p += L
        self.p = p
        divisors = [d for d in range(1, L) if L % d == 0]
        cands = (pow(h, (p - 1) // L, p) for h in range(2, 1000))
        g = next((c for c in cands if all(pow(c, d, p) != 1 for d in divisors)), None)
        if g is None:  # pragma: no cover
            raise ArithmeticError("no order-L element found")
        self.powers = [pow(g, i, p) for i in range(euler_phi(L))]

    def integral(self, num) -> int:
        """Image of the algebraic integer sum(num[i] * zeta_L^i)."""
        acc = 0
        for v, gp in zip(num, self.powers):
            if v:
                acc += v * gp
        return acc % self.p

    def row(self, row) -> tuple[int, ...]:
        """Image of c * row, for c the lcm of the entries' denominators."""
        c = reduce(math.lcm, (e.den for e in row), 1)
        return tuple(self.integral(e.num) * (c // e.den) % self.p for e in row)

    def rank(self, rows) -> int:
        """Rank over F_p of integer rows, taken mod p."""
        p = self.p
        rows = [[a % p for a in r] for r in rows]
        rank = 0
        for col in range(len(rows[0]) if rows else 0):
            sel = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
            if sel is None:
                continue
            rows[rank], rows[sel] = rows[sel], rows[rank]
            prow = rows[rank]
            inv = pow(prow[col], -1, p)
            rank += 1
            for r in range(rank, len(rows)):
                f = rows[r][col]
                if f:
                    f = f * inv % p
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], prow)]
            if rank == len(rows):
                break
        return rank


_MOD_IMAGES: dict[int, _ModImage] = {}


def _mod_image(L: int) -> _ModImage:
    """The reduction map for conductor L, built on first use."""
    img = _MOD_IMAGES.get(L)
    if img is None:
        img = _ModImage(L)
        _MOD_IMAGES[L] = img  # idempotent publish
    return img


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def zeta_power(L: int, j: int) -> CycNum:
    """zeta_L^(j mod L), reduced mod Phi_L."""
    t = _tables(L)
    e = j % L
    return CycNum(L, t.power_rows[e], 1)


def embed(a: CycNum, L2: int) -> CycNum:
    return a.embed(L2)


def real_imag_parts(a: CycNum) -> tuple[CycNum, CycNum]:
    """Split a = re + i*im with re, im fixed by conjugation; needs 4 | L."""
    L = a.conductor
    if L % 4 != 0:
        raise ConductorMismatch(f"conductor {L} has no i; need 4 | L")
    half = CycNum.rational(L, Fraction(1, 2))
    ac = a.conj()
    re = (a + ac) * half
    im = (ac - a) * half * zeta_power(L, L // 4)  # (a - conj a)/(2i)
    return re, im


# ---------------------------------------------------------------------------
# exact sign of conjugation-fixed values
# ---------------------------------------------------------------------------
#
# The distinguished real embedding sends zeta_L to exp(2*pi*i/L); a value
# fixed by conjugation lands on sum(num[k]/den * cos(2*pi*k/L)).  An
# enclosure at scale S is a pair of integers lo <= S*x <= hi.

def _alternating(terms) -> tuple[int, int]:
    """Enclose sum((-1)^n t_n) from pairs dn_n <= S*t_n <= up_n, up to the first
    up_n <= 1; if no t_n increases from there on, the tail is at most 1/S."""
    lo = hi = 0
    for n, (dn, up) in enumerate(terms):
        if up <= 1:
            return lo - 1, hi + 1
        lo, hi = (lo - up, hi - dn) if n % 2 else (lo + dn, hi + up)


def _arctan_inv_terms(m: int, scale: int):
    """arctan(1/m) = sum((-1)^n / ((2n+1) m^(2n+1))); as floor(floor(x)/q) =
    floor(x/q), and likewise ceil, each pair is the exact floor and ceil."""
    dn, up, q = scale // m, -(-scale // m), 1
    while True:
        yield dn // q, -(-up // q)
        dn, up, q = dn // (m * m), -(-up // (m * m)), q + 2


def _cos_terms(x_lo: int, x_hi: int, scale: int):
    """x^(2n)/(2n)! for every x in [x_lo, x_hi]/scale, rounded down from x_lo
    and up from x_hi; they decrease from n = 1 on when x^2 < 12."""
    dn = up = scale
    n = 0
    while True:
        yield dn, up
        n += 2
        q = scale * scale * (n - 1) * n
        dn, up = dn * x_lo * x_lo // q, -(-up * x_hi * x_hi // q)


def _pi(scale: int) -> tuple[int, int]:
    """Enclose pi by Machin's formula 16 arctan(1/5) - 4 arctan(1/239)."""
    a_lo, a_hi = _alternating(_arctan_inv_terms(5, scale))
    b_lo, b_hi = _alternating(_arctan_inv_terms(239, scale))
    return 16 * a_lo - 4 * b_hi, 16 * a_hi - 4 * b_lo


def _cos(k: int, L: int, pi: tuple[int, int], scale: int) -> tuple[int, int]:
    """Enclose cos(2*pi*k/L), 0 <= k < L, given an enclosure of pi."""
    p = 2 * min(k, L - k)  # cos(2*pi*k/L) = cos(pi*p/L), 0 <= p <= L
    flip = 2 * p > L  # cos(pi*p/L) = -cos(pi*(L - p)/L), and pi*p/L <= pi/2
    if flip:
        p = L - p
    lo, hi = _alternating(_cos_terms(pi[0] * p // L, -(-pi[1] * p // L), scale))
    return (-hi, -lo) if flip else (lo, hi)


def real_sign(a: CycNum) -> int:
    """Exact sign (-1, 0, +1) of a conjugation-fixed cyclotomic number.

    One pass, at a precision fixed by a norm bound (README, design notes,
    "Signs in one pass").  For a = num/den fixed by conjugation and not
    rational, num is a nonzero algebraic integer of K+ = Q(zeta_L + zeta_L^-1),
    of degree d = phi(L)/2 >= 2, so its norm to Q is a nonzero integer.  Its
    other d - 1 real conjugates have absolute values at most s = sum|num_k|,
    so |sum(num_k cos(2*pi*k/L))| >= s^-(d - 1).  With each cosine enclosed
    within w/S at scale S = 2^bits, the sum is within s*w/S < s^-(d - 1)
    once S > w*s^d, that is bits = d*bitlen(s) + g with 2^g > w.  The width w
    of `_cos`, from Machin's formula for pi and the Taylor series, stays
    below 6*bits + 120, so g = bitlen(d*bitlen(s)) + 8 is enough, and an
    enclosure that still holds 0 contradicts the bound.
    """
    if a.conj() != a:
        raise ValueError("real_sign needs a conjugation-fixed value")
    if a.is_rational():
        return (a.num[0] > 0) - (a.num[0] < 0)
    L = a.conductor
    base = _tables(L).phi // 2 * sum(abs(v) for v in a.num).bit_length()
    scale = 1 << (base + base.bit_length() + 8)
    pi = _pi(scale)
    lo = hi = 0
    for k, v in enumerate(a.num):
        if v:
            c = _cos(k, L, pi, scale)
            lo, hi = lo + min(v * c[0], v * c[1]), hi + max(v * c[0], v * c[1])
    if lo <= 0 <= hi:
        raise ArithmeticError("the enclosure holds 0, against the norm bound")
    return 1 if lo > 0 else -1


def is_positive_real(a: CycNum) -> bool:
    return real_sign(a) > 0


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def rational_to_json(f) -> str:
    f = Fraction(f)
    return f"{f.numerator}/{f.denominator}"


def rational_from_json(s: str) -> Fraction:
    """A rational written as a "p/q" string; a JSON number is a TypeError,
    as a float would bring a binary double into exact input."""
    if not isinstance(s, str):
        raise TypeError(f'a rational must be a "p/q" string, not {s!r}')
    return Fraction(s)


def int_from_json(v) -> int:
    """A JSON integer; a float, a string or a boolean is a TypeError."""
    if type(v) is not int:
        raise TypeError(f"expected a JSON integer, not {v!r}")
    return v


def cyc_to_json(a: CycNum) -> dict:
    return {
        "conductor": a.conductor,
        "coeffs": [rational_to_json(c) for c in a.coeffs],
    }


def cyc_from_json(d: dict) -> CycNum:
    L = int_from_json(d["conductor"])
    if L > CONDUCTOR_CAP:
        raise ValueError(f"conductor {L} is above the cap {CONDUCTOR_CAP}")
    try:
        coeffs = [rational_from_json(s) for s in d["coeffs"]]
    except ZeroDivisionError:
        raise ValueError("a coefficient has a zero denominator") from None
    if len(coeffs) != euler_phi(L):
        raise ValueError("coefficient vector length must equal phi(L)")
    return CycNum.from_fractions(L, coeffs)
