import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotref.cyclo import (
    CONDUCTOR_CAP,
    ConductorMismatch,
    CycNum,
    cyc_from_json,
    cyc_to_json,
    cyclotomic_polynomial,
    embed,
    euler_phi,
    int_from_json,
    is_positive_real,
    real_imag_parts,
    real_sign,
    zeta_power,
)
from rotref.cyclo import (
    _alternating,
    _cos,
    _cos_terms,
    _mod_image,
    _pi,
    _poly_mul_int,
    _unit_chain,
)
from rotref.groups import DEFAULT_CLOSURE_CAP


# -- cyclotomic polynomials -------------------------------------------------

def test_phi_1_is_x_minus_1():
    assert cyclotomic_polynomial(1) == (-1, 1)


def test_phi_4():
    # independent check: Phi_4 * Phi_1 * Phi_2 == x^4 - 1
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    prod = _poly_mul_int([-1, 1], [1, 1])          # (x-1)(x+1)
    prod = _poly_mul_int(prod, [1, 0, 1])
    assert tuple(prod) == (-1, 0, 0, 0, 1)


def test_phi_6():
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    prod = [1]
    for d in (1, 2, 3, 6):
        prod = _poly_mul_int(prod, list(cyclotomic_polynomial(d)))
    assert tuple(prod) == (-1, 0, 0, 0, 0, 0, 1)


@pytest.mark.parametrize("L,deg", [(1, 1), (2, 1), (4, 2), (5, 4), (12, 4), (20, 8), (44, 20)])
def test_phi_degree_and_monic(L, deg):
    poly = cyclotomic_polynomial(L)
    assert len(poly) - 1 == deg == euler_phi(L)
    assert poly[-1] == 1


def test_bad_conductor():
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


# -- zeta powers ------------------------------------------------------------

def test_zeta4_squared_is_minus_one():
    assert zeta_power(4, 2) == CycNum.rational(4, -1)
    i = zeta_power(4, 1)
    assert i * i == CycNum.rational(4, -1)


def test_zeta_order():
    assert zeta_power(5, 5) == CycNum.one(5)


def test_zeta5_fourth_power_reduction():
    # x^4 mod Phi_5 = -1 - x - x^2 - x^3
    assert zeta_power(5, 4) == CycNum.make(5, [-1, -1, -1, -1])


def test_nontrivial_fifth_roots_sum():
    s = CycNum.zero(5)
    for j in range(1, 5):
        s = s + zeta_power(5, j)
    assert s == CycNum.rational(5, -1)


# -- field arithmetic -------------------------------------------------------

def test_inverse_roundtrip():
    a = CycNum.rational(5, 3) + zeta_power(5, 1)
    assert a * a.inv() == CycNum.one(5)


@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 8, 12, 20, 56, 140])
def test_galois_norm_inverse(L):
    # L = 1 and L = 2 have phi = 1: no conjugate besides the identity
    rng = random.Random(L)
    one = CycNum.one(L)
    samples = [zeta_power(L, 1) + CycNum.rational(L, 2)]
    samples += [_random_cyc(rng, L) for _ in range(4 if L < 100 else 2)]
    for a in samples:
        if not a.is_zero():
            assert a * a.inv() == one


def test_inverse_of_rational_is_rational():
    for L in (1, 4, 5, 12, 20):
        a = CycNum.rational(L, Fraction(-3, 7))
        assert a.inv() == CycNum.rational(L, Fraction(-7, 3))
        assert a.inv().is_rational()


def test_conj_is_galois_minus_one():
    rng = random.Random(3)
    for L in (1, 2, 3, 4, 5, 12, 20):
        for _ in range(5):
            a = _random_cyc(rng, L)
            assert a.conj() == a.galois(L - 1)
            # conjugation sends each zeta^i to zeta^-i
            expected = CycNum.zero(L)
            for i, v in enumerate(a.num):
                c = CycNum.rational(L, Fraction(v, a.den))
                expected = expected + c * zeta_power(L, -i)
            assert a.conj() == expected


def test_galois_is_automorphism_and_rejects_nonunits():
    rng = random.Random(5)
    a, b = _random_cyc(rng, 20), _random_cyc(rng, 20)
    for k in (1, 3, 7, 9, 11, 13, 17, 19):
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
    assert zeta_power(20, 1).galois(3) == zeta_power(20, 3)
    with pytest.raises(ValueError):
        a.galois(4)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CycNum.one(4) / CycNum.zero(4)
    with pytest.raises(ZeroDivisionError):
        CycNum.zero(20).inv()


def test_conductor_mismatch_rejected():
    with pytest.raises(ConductorMismatch):
        zeta_power(4, 1) + zeta_power(5, 1)


# -- embed ------------------------------------------------------------------

def test_embed_exponent_scaling():
    assert embed(zeta_power(4, 1), 8) == zeta_power(8, 2)


def test_embed_identity_element():
    for L2 in (4, 8, 20, 40):
        assert embed(CycNum.one(4), L2) == CycNum.one(L2)


def test_embed_reduction():
    got = embed(zeta_power(3, 1) + CycNum.one(3), 12)
    assert got == zeta_power(12, 4) + CycNum.one(12)


def test_embed_rejects_nondivisor():
    with pytest.raises(ConductorMismatch):
        embed(zeta_power(4, 1), 10)


# -- conjugation ------------------------------------------------------------

def test_conj_of_i():
    assert zeta_power(4, 1).conj() == -zeta_power(4, 1)


def test_conj_fixes_rationals():
    r = CycNum.rational(20, Fraction(-7, 3))
    assert r.conj() == r


def test_conj_involution():
    a = CycNum.rational(5, 2) + zeta_power(5, 3)
    assert a.conj().conj() == a


# -- real/imag split --------------------------------------------------------

def test_real_imag_of_i():
    re, im = real_imag_parts(zeta_power(4, 1))
    assert re == CycNum.zero(4)
    assert im == CycNum.one(4)


def test_real_imag_of_one():
    re, im = real_imag_parts(CycNum.one(4))
    assert re == CycNum.one(4)
    assert im == CycNum.zero(4)


def test_real_imag_pythagorean():
    a = zeta_power(12, 1)
    re, im = real_imag_parts(a)
    assert re == (zeta_power(12, 1) + zeta_power(12, 11)) * CycNum.rational(12, Fraction(1, 2))
    assert re * re + im * im == CycNum.one(12)
    assert re.conj() == re and im.conj() == im


def test_real_imag_needs_fourth_root():
    with pytest.raises(ConductorMismatch):
        real_imag_parts(zeta_power(5, 1))


@pytest.mark.parametrize("L,j", [(4, 1), (12, 5), (20, 3), (20, 17)])
def test_unit_circle_identity(L, j):
    re, im = real_imag_parts(zeta_power(L, j))
    assert re * re + im * im == CycNum.one(L)


# -- exact sign -------------------------------------------------------------

def test_real_sign():
    sqrt5 = (
        zeta_power(20, 4) - zeta_power(20, 8) - zeta_power(20, 12) + zeta_power(20, 16)
    )
    assert sqrt5 * sqrt5 == CycNum.rational(20, 5)
    assert real_sign(sqrt5) == 1
    assert real_sign(CycNum.rational(20, -3) + sqrt5) == -1  # sqrt5 < 3
    assert real_sign(CycNum.rational(20, -2) + sqrt5) == 1   # sqrt5 > 2
    assert real_sign(CycNum.zero(20)) == 0
    assert is_positive_real(sqrt5)


def test_real_sign_rejects_nonreal():
    with pytest.raises(ValueError):
        real_sign(zeta_power(4, 1))


# pi to 50 decimals: 10^50 * pi lies in [_PI_50, _PI_50 + 1]
_PI_50 = 314159265358979323846264338327950288419716939937510


@pytest.mark.parametrize("bits", [9, 20, 64, 160])
def test_pi_and_cosine_enclosures(bits):
    scale = 1 << bits
    pi = _pi(scale)
    assert pi[0] * 10**50 <= scale * (_PI_50 + 1) and pi[1] * 10**50 >= scale * _PI_50
    # cos(2*pi*k/12) is rational for k in {0, 2, 3, 4, 6}, cos(2*pi*k/8)^2
    # for odd k
    for k, c in {0: 1, 2: "1/2", 3: 0, 4: "-1/2", 6: -1}.items():
        for kk in {k, (12 - k) % 12}:
            lo, hi = _cos(kk, 12, pi, scale)
            assert lo <= Fraction(c) * scale <= hi
            assert hi - lo < 6 * bits + 120  # the width real_sign's precision allows for
    for k in (1, 3, 5, 7):
        lo, hi = _cos(k, 8, pi, scale)
        sign = 1 if k in (1, 7) else -1
        lo, hi = sorted((sign * lo, sign * hi))
        assert lo * lo <= scale * scale // 2 <= hi * hi and lo > 0


# cos(2*pi*k/L) = (a + b*sqrt(d)) / c, b = +-1
_QUADRATIC_COSINES = {
    (1, 5): (-1, 1, 5, 4), (4, 5): (-1, 1, 5, 4),
    (2, 5): (-1, -1, 5, 4), (3, 5): (-1, -1, 5, 4),
    (1, 12): (0, 1, 3, 2), (11, 12): (0, 1, 3, 2),
    (5, 12): (0, -1, 3, 2), (7, 12): (0, -1, 3, 2),
}


def test_cosine_enclosures_against_isqrt_brackets():
    # S*sqrt(d) is irrational and r = isqrt(d*S^2) is its floor, so b*S*sqrt(d)
    # has the floor r (b = 1) or -r - 1 (b = -1), and an integer is at most
    # b*S*sqrt(d) exactly when it is at most that floor
    for bits in range(9, 201):
        scale = 1 << bits
        pi = _pi(scale)
        for (k, L), (a, b, d, c) in _QUADRATIC_COSINES.items():
            r = math.isqrt(d * scale * scale)
            floor = r if b > 0 else -r - 1
            lo, hi = _cos(k, L, pi, scale)
            assert c * lo - a * scale <= floor < c * hi - a * scale, (bits, k, L)
            assert hi - lo < 6 * bits + 120


@pytest.mark.parametrize("bits", [9, 20, 64, 160])
def test_cosine_terms_and_tail_widening_bound_the_series(bits):
    scale = 1 << bits
    # each pair brackets x^(2n)/(2n)! for x in [x_lo, x_hi]/scale, outwards
    for x_lo, x_hi in ((scale // 3, scale // 3 + 1), (scale, scale + 2),
                       (3 * scale // 2, 3 * scale // 2 + 5)):
        for n, (dn, up) in enumerate(_cos_terms(x_lo, x_hi, scale)):
            def term(x):
                return scale * Fraction(x, scale) ** (2 * n) / math.factorial(2 * n)

            assert dn <= term(x_lo) and term(x_hi) <= up, (x_lo, n)
            if up <= 1:
                break
    # sum((-1)^n 2^-n) = 2/3 from exact terms: they stop at 2^-bits, and the
    # tail of 2/3 of a unit is covered only by the final widening
    lo, hi = _alternating((scale >> n, scale >> n) for n in itertools.count())
    assert 3 * lo <= 2 * scale <= 3 * hi


def _sqrt5():
    return zeta_power(20, 4) - zeta_power(20, 8) - zeta_power(20, 12) + zeta_power(20, 16)


_ROOTS = {5: _sqrt5, 2: lambda: zeta_power(8, 1) + zeta_power(8, 7)}


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(sorted(_ROOTS)),
    st.integers(min_value=1, max_value=10**40),
    st.integers(min_value=1, max_value=10**40),
)
def test_real_sign_of_p_minus_q_root_d(d, p, q):
    # p - q*sqrt(d) has the sign of p^2 - d*q^2, which is never 0
    root = _ROOTS[d]()
    assert root * root == CycNum.rational(root.conductor, d)
    value = CycNum.rational(root.conductor, p) - CycNum.rational(root.conductor, q) * root
    expected = 1 if p * p > d * q * q else -1
    assert real_sign(value) == expected


def test_real_sign_of_zeta_plus_conjugate():
    # zeta^k + zeta^-k = 2cos(2*pi*k/L), whose sign is read off 4k mod 4L
    for L in range(1, 61):
        for k in range(L):
            r = 4 * k % (4 * L)
            expected = 0 if r in (L, 3 * L) else (1 if r < L or r > 3 * L else -1)
            assert real_sign(zeta_power(L, k) + zeta_power(L, -k)) == expected, (L, k)


@pytest.mark.parametrize("n", [300, 301])
def test_real_sign_of_lucas_minus_fibonacci_root5(n):
    # L_n - F_n*sqrt5 = 2*psi^n with psi = (1 - sqrt5)/2: its norm
    # L_n^2 - 5F_n^2 = 4(-1)^n and L_n > 2^130 put it below 2^-128 in
    # absolute value, beyond a 128-bit enclosure, with the sign of (-1)^n
    fib = [0, 1]
    while len(fib) <= n + 1:
        fib.append(fib[-1] + fib[-2])
    lucas, f = fib[n - 1] + fib[n + 1], fib[n]
    assert lucas * lucas - 5 * f * f == 4 * (-1) ** n and lucas > 2**130
    value = CycNum.rational(20, lucas) - CycNum.rational(20, f) * _sqrt5()
    assert real_sign(value) == (-1) ** n


# -- kernels against slot-by-slot references ---------------------------------
#
# The references visit every coefficient slot and reduce by long division by
# Phi_L, so they share no table or term list with the kernels.

KERNEL_CONDUCTORS = [1, 2, 3, 12, 56, 140, 1000]


def _reduce_mod_phi(acc, L):
    """Integer coefficients of acc (low degree first) reduced mod Phi_L."""
    poly = cyclotomic_polynomial(L)
    phi = len(poly) - 1
    acc = list(acc) + [0] * max(0, phi - len(acc))
    for k in range(len(acc) - 1, phi - 1, -1):
        c = acc[k]
        for i in range(phi + 1):
            acc[k - phi + i] -= c * poly[i]
    return acc[:phi]


def _slot_mul(a, b):
    L, phi = a.conductor, euler_phi(a.conductor)
    acc = [0] * (2 * phi - 1)
    for i in range(phi):
        for j in range(phi):
            acc[i + j] += a.num[i] * b.num[j]
    return CycNum.make(L, _reduce_mod_phi(acc, L), a.den * b.den)


def _slot_power_map(a, L2, exponent):
    """sum(num[i] * zeta_L2^exponent(i)) / den, reduced mod Phi_L2."""
    acc = [0] * L2
    for i, v in enumerate(a.num):
        acc[exponent(i) % L2] += v
    return CycNum.make(L2, _reduce_mod_phi(acc, L2), a.den)


def _slot_inv(a):
    """The conjugate-by-conjugate product prod_{k != 1} sigma_k(a) / N(a)."""
    L = a.conductor
    rest = CycNum.one(L)
    for k in range(2, L):
        if math.gcd(k, L) == 1:
            rest = _slot_mul(rest, _slot_power_map(a, L, lambda i: i * k))
    norm = _slot_mul(a, rest)
    assert norm.is_rational() and not norm.is_zero()
    return CycNum.make(L, [v * norm.den for v in rest.num], rest.den * norm.num[0])


def _kernel_operand(rng, L, dense):
    """A random element with every coefficient drawn (dense) or with one to
    three nonzero coefficients (sparse)."""
    phi = euler_phi(L)
    nums = [0] * phi
    if dense:
        nums = [rng.randint(-9, 9) for _ in range(phi)]
    else:
        for i in rng.sample(range(phi), min(phi, rng.randint(1, 3))):
            nums[i] = rng.choice([-3, -2, -1, 1, 2, 3])
    return CycNum.make(L, nums, rng.randint(1, 6))


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("L", KERNEL_CONDUCTORS)
def test_mul_galois_embed_match_slot_loops(L, dense):
    rng = random.Random(L * 2 + dense)
    units = [k for k in range(L) if math.gcd(k, L) == 1]
    for _ in range(2 if L == 1000 else 8):
        a, b = _kernel_operand(rng, L, dense), _kernel_operand(rng, L, dense)
        assert a * b == _slot_mul(a, b)
        assert a * CycNum.zero(L) == CycNum.zero(L)
        k = rng.choice(units)
        assert a.galois(k) == _slot_power_map(a, L, lambda i: i * k)
        step = rng.choice([s for s in (1, 2, 3, 5) if L * s <= CONDUCTOR_CAP])
        assert a.embed(L * step) == _slot_power_map(a, L * step, lambda i: i * step)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("L", KERNEL_CONDUCTORS)
def test_inverse_matches_the_conjugate_product(L, dense, fresh_caches):
    rng = random.Random(L * 2 + dense)
    one = CycNum.one(L)
    for _ in range(2 if L == 1000 else 4):
        a = _kernel_operand(rng, L, dense)
        if a.is_zero():
            continue
        inv = a.inv()
        assert a * inv == one
        if L < 1000:  # the reference takes phi(L) - 1 products
            assert inv == _slot_inv(a)


def test_unit_chain_is_a_subgroup_chain_of_the_units():
    for L in [*range(1, 201), 1000]:
        units = {k for k in range(L) if math.gcd(k, L) == 1}
        sub = {1 % L}
        for g, e in _unit_chain(L):
            # e = [H_j : H_(j-1)]: g^e is the first power of g back in H_(j-1)
            powers = [pow(g, i, L) for i in range(e + 1)]
            assert e >= 2 and powers[e] in sub
            assert not sub.intersection(powers[1:e])
            grown = {h * x % L for h in sub for x in powers[:e]}
            assert len(grown) == len(sub) * e
            sub = grown
        assert sub == units
        assert math.prod(e for _, e in _unit_chain(L)) == euler_phi(L) == len(units)


def test_inverse_at_the_conductor_cap_takes_few_products(fresh_caches, monkeypatch):
    # the conjugate-by-conjugate product takes phi(1000) = 400 of them
    calls = []
    mul = CycNum.__mul__
    monkeypatch.setattr(CycNum, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    a = zeta_power(1000, 1) + zeta_power(1000, 7) + CycNum.rational(1000, 2)
    inv = a.inv()
    assert len(calls) <= 20
    monkeypatch.undo()
    assert a * inv == CycNum.one(1000)


# -- canonical form & random algebra ---------------------------------------

def _random_cyc(rng, L):
    phi = euler_phi(L)
    return CycNum.make(
        L, [rng.randint(-6, 6) for _ in range(phi)], rng.randint(1, 6)
    )


def test_canonical_soundness():
    rng = random.Random(7)
    for _ in range(300):
        L = rng.choice([4, 5, 12, 20])
        a, b = _random_cyc(rng, L), _random_cyc(rng, L)
        assert ((a - b).is_zero()) == (a == b)
        assert (a - a).is_zero()


small_coeff = st.integers(min_value=-5, max_value=5)


def _cyc_strategy(L):
    phi = euler_phi(L)
    return st.builds(
        lambda nums, den: CycNum.make(L, nums, den),
        st.lists(small_coeff, min_size=phi, max_size=phi),
        st.integers(min_value=1, max_value=4),
    )


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(20), _cyc_strategy(20), _cyc_strategy(20))
def test_field_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == CycNum.one(20)


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(20), _cyc_strategy(20))
def test_subtraction_adds_the_negation(a, b):
    assert a - b == a + (-b)
    assert (a - b) + b == a


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(60), _cyc_strategy(60))
def test_real_sign_is_multiplicative(a, b):
    x, y = a + a.conj(), b + b.conj()
    assert real_sign(x * y) == real_sign(x) * real_sign(y)


@pytest.mark.parametrize("L", [1, 4, 12, 20, 44])
def test_mod_image_is_a_ring_map(L):
    rng = random.Random(L)
    img = _mod_image(L)
    p = img.p
    assert (p - 1) % L == 0
    for _ in range(20):
        a, b = (
            CycNum.make(L, [rng.randint(-6, 6) for _ in range(euler_phi(L))])
            for _ in range(2)
        )
        ia, ib = img.integral(a.num), img.integral(b.num)
        assert img.integral((a + b).num) == (ia + ib) % p
        assert img.integral((a * b).num) == ia * ib % p


def _is_prime_by_trial(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


@pytest.mark.parametrize(
    "L", sorted({*range(1, 61), 991, 996, 997, 998, 999, CONDUCTOR_CAP})
)
def test_mod_image_prime(L):
    # each residue fits in one 30-bit CPython digit, and p meets every
    # condition of the lemmas that make reduction exact (_ModImage)
    img = _mod_image(L)
    p = img.p
    assert _is_prime_by_trial(p)
    assert (p - 1) % L == 0
    assert DEFAULT_CLOSURE_CAP < p < 1 << 30
    if euler_phi(L) > 1:
        z = img.powers[1]  # the image of zeta_L
        assert pow(z, L, p) == 1
        assert all(pow(z, L // q, p) != 1 for q in range(2, L + 1) if L % q == 0)


def _textbook_rref(rows, p):
    """Forward elimination to echelon form, then back substitution."""
    rows = [[a % p for a in r] for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        below = [i for i in range(r, len(rows)) if rows[i][col]]
        if not below:
            continue
        rows[r], rows[below[0]] = rows[below[0]], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][col] * pow(rows[r][col], p - 2, p)
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        scale = pow(rows[r][col], p - 2, p)
        rows[r] = [a * scale % p for a in rows[r]]
        for i in range(r):
            f = rows[i][col]
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
    return tuple(tuple(r) for r in rows[: len(pivots)])


@st.composite
def _rref_case(draw):
    img = _mod_image(draw(st.sampled_from([1, 4, 12, 20, 60])))
    p = img.p
    cols = draw(st.integers(1, 4))
    entry = st.one_of(
        st.integers(-3, 3),
        st.builds(lambda a, k: a + k * p, st.integers(-3, 3), st.integers(-2, 2)),
        st.integers(-(1 << 62), 1 << 62),
    )
    rows = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), max_size=6))
    # zero rows and repeated rows, up to 8 rows in all
    extra = draw(st.lists(st.integers(-1, len(rows) - 1), max_size=8 - len(rows)))
    rows += [[0] * cols if i < 0 else list(rows[i]) for i in extra]
    return img, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_mod_rref_matches_textbook_elimination(case):
    img, rows = case
    key = img.rref(rows)
    assert key == _textbook_rref(rows, img.p)
    assert img.rref(key) == key


@settings(max_examples=300, deadline=None)
@given(_rref_case())
def test_mod_rank_counts_the_rref_pivots(case):
    img, rows = case
    assert img.rank(rows) == len(img.rref(rows))


def test_no_mod_image_is_built_at_import():
    code = (
        "import sys, rotref.cli, rotref.cyclo as c; "
        "assert c._mod_image.cache_info().currsize == 0, c._mod_image.cache_info(); "
        "assert 'mpmath' not in sys.modules"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(12), _cyc_strategy(12))
def test_conj_is_automorphism(a, b):
    assert (a * b).conj() == a.conj() * b.conj()
    assert (a + b).conj() == a.conj() + b.conj()
    assert a.conj().conj() == a


@settings(max_examples=60, deadline=None)
@given(_cyc_strategy(5), _cyc_strategy(5))
def test_embed_is_homomorphism(a, b):
    assert embed(a * b, 20) == embed(a, 20) * embed(b, 20)
    assert embed(a + b, 20) == embed(a, 20) + embed(b, 20)
    assert embed(a, 20).is_zero() == a.is_zero()


# -- JSON -------------------------------------------------------------------

def test_json_roundtrip():
    a = CycNum.from_fractions(20, [Fraction(k, 3) for k in range(8)])
    d = cyc_to_json(a)
    assert d["conductor"] == 20 and len(d["coeffs"]) == 8
    assert cyc_from_json(d) == a


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([4, 12, 20]),
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=8, max_size=8),
    st.integers(min_value=1, max_value=10**4),
)
def test_json_coefficients_match_the_fraction_formula(L, nums, den):
    # zero, negative and den > 1 coefficients, each written in lowest terms
    a = CycNum.make(L, nums[: euler_phi(L)], den)
    old = [f"{Fraction(c).numerator}/{Fraction(c).denominator}" for c in a.coeffs]
    assert cyc_to_json(a)["coeffs"] == old


def test_json_rejects_bad_length():
    with pytest.raises(ValueError):
        cyc_from_json({"conductor": 4, "coeffs": ["1/1"]})


@pytest.mark.parametrize("value", [True, False, 4.0, 4.7, "4", None])
def test_json_integer_is_an_int_only(value):
    with pytest.raises(TypeError):
        int_from_json(value)


@pytest.mark.parametrize(
    "d",
    [
        {"conductor": 4, "coeffs": [1.0, "0/1"]},
        {"conductor": 4, "coeffs": [1, 0]},
        {"conductor": True, "coeffs": ["1/1"]},
        {"conductor": 4.0, "coeffs": ["1/1", "0/1"]},
    ],
)
def test_json_rejects_numbers_where_exact_text_is_due(d):
    with pytest.raises(TypeError):
        cyc_from_json(d)
