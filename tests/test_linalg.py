import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotref.cyclo import (
    ConductorMismatch,
    CycNum,
    _mod_image,
    real_imag_parts,
    zeta_power,
)
from rotref.linalg import (
    MatrixF,
    Subspace,
    intersection_dim,
    kernel,
    matrix_from_json,
    matrix_to_json,
    meets_nontrivially,
    subspace_contains,
    subspace_from_json,
    subspace_intersect,
    subspace_sum,
    subspace_to_json,
)
from rotref.linalg import _rank
from test_cyclo import KERNEL_CONDUCTORS, _kernel_operand, _slot_mul


def rat(L, v):
    return CycNum.rational(L, v)


def mat(L, rows):
    return MatrixF.from_rows([[rat(L, v) for v in row] for row in rows])


def rotation_pi_over_2(L=4):
    # realification of multiplication by i
    return mat(L, [[0, -1], [1, 0]])


def realify2(a: CycNum) -> MatrixF:
    re, im = real_imag_parts(a)
    return MatrixF.from_rows([[re, -im], [im, re]])


# -- matrix ops --------------------------------------------------------------

def test_identity_multiplication():
    m = mat(4, [[1, 2, 0, 3], [0, 1, 1, 1], [5, 0, 2, 0], [1, 1, 1, 1]])
    assert MatrixF.identity(4, 4) @ m == m
    assert m @ MatrixF.identity(4, 4) == m


def test_rotation_composition():
    r = rotation_pi_over_2()
    assert r @ r == mat(4, [[-1, 0], [0, -1]])


def test_realified_order_three_element():
    z3 = zeta_power(12, 4)  # zeta_3 inside conductor 12
    blocks = realify2(z3)
    g = MatrixF.from_rows(
        [
            [blocks.entry(0, 0), blocks.entry(0, 1), rat(12, 0), rat(12, 0)],
            [blocks.entry(1, 0), blocks.entry(1, 1), rat(12, 0), rat(12, 0)],
            [rat(12, 0), rat(12, 0), rat(12, 1), rat(12, 0)],
            [rat(12, 0), rat(12, 0), rat(12, 0), rat(12, 1)],
        ]
    )
    assert g @ g @ g == MatrixF.identity(4, 12)
    assert g @ g != MatrixF.identity(4, 12)


def test_dimension_mismatch_rejected():
    a = mat(4, [[1, 2]])
    b = mat(4, [[1, 2]])
    with pytest.raises(ValueError):
        a @ b
    with pytest.raises(ValueError):
        a - mat(4, [[1], [2]])


def test_conductor_mismatch_rejected():
    with pytest.raises(ConductorMismatch):
        mat(4, [[1]]) @ mat(5, [[1]])


def test_transpose_and_apply():
    m = mat(4, [[1, 2], [3, 4], [5, 6]])
    assert m.transpose() == mat(4, [[1, 3, 5], [2, 4, 6]])
    assert m @ mat(4, [[1], [-1]]) == mat(4, [[-1]] * 3)


def test_canonical_hashing():
    a = mat(4, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
    b = mat(4, [[Fraction(2, 4), 0], [0, Fraction(1, 2)]])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def _slot_matmul(a: MatrixF, b: MatrixF) -> MatrixF:
    """Entry by entry, with every product taken slot by slot."""
    entries = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = CycNum.zero(a.conductor)
            for k in range(a.cols):
                acc = acc + _slot_mul(a.entry(i, k), b.entry(k, j))
            entries.append(acc)
    return MatrixF.from_entries(a.rows, b.cols, entries)


@pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
@pytest.mark.parametrize("L", KERNEL_CONDUCTORS)
def test_matmul_matches_slot_loops(L, dense):
    # sparse matrices have zero entries and entries of one to three terms
    rng = random.Random(L * 2 + dense)
    zero = CycNum.zero(L)

    def entry():
        return _kernel_operand(rng, L, dense) if dense or rng.random() < 0.4 else zero

    n, m, p = (2, 2, 2) if L == 1000 else (3, 4, 2)
    for _ in range(2):
        a = MatrixF.from_entries(n, m, [entry() for _ in range(n * m)])
        b = MatrixF.from_entries(m, p, [entry() for _ in range(m * p)])
        assert a @ b == _slot_matmul(a, b)
    z = MatrixF.from_entries(m, p, [zero] * (m * p))
    assert a @ z == _slot_matmul(a, z)


# -- kernels ------------------------------------------------------------------

def test_kernel_of_zero_matrix_is_full_space():
    z = mat(4, [[0] * 4 for _ in range(4)])
    ker = kernel(z)
    assert ker == Subspace.full(4, 4)


def test_kernel_of_rotation_minus_identity_is_zero():
    r = rotation_pi_over_2()
    ker = kernel(r - MatrixF.identity(2, 4))
    assert ker.is_zero() and ker.dim == 0


def test_kernel_of_realified_swap():
    # swap of the two complex coordinates, realified: fixes (a, b, a, b)
    swap = mat(
        4,
        [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ],
    )
    ker = kernel(swap - MatrixF.identity(4, 4))
    expected = Subspace.from_rows(
        4,
        [
            [rat(4, 1), rat(4, 0), rat(4, 1), rat(4, 0)],
            [rat(4, 0), rat(4, 1), rat(4, 0), rat(4, 1)],
        ],
    )
    assert ker == expected and ker.dim == 2


def test_rank_nullity_on_random_matrices():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = mat(4, [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        ker = kernel(m)
        rank = Subspace.from_rows(n, [list(m.row(i)) for i in range(n)], 4).dim
        assert ker.dim + rank == n


# -- subspaces ---------------------------------------------------------------

def plane_x0(L=4):
    """Second complex coordinate plane {x = 0} in (Re x, Im x, Re y, Im y)."""
    return Subspace.from_rows(
        4,
        [
            [rat(L, 0), rat(L, 0), rat(L, 1), rat(L, 0)],
            [rat(L, 0), rat(L, 0), rat(L, 0), rat(L, 1)],
        ],
    )


def plane_y0(L=4):
    return Subspace.from_rows(
        4,
        [
            [rat(L, 1), rat(L, 0), rat(L, 0), rat(L, 0)],
            [rat(L, 0), rat(L, 1), rat(L, 0), rat(L, 0)],
        ],
    )


def plane_y_eq_zeta_x(L, j):
    re, im = real_imag_parts(zeta_power(L, j))
    one, zero = CycNum.one(L), CycNum.zero(L)
    return Subspace.from_rows(4, [[one, zero, re, im], [zero, one, -im, re]])


def test_coordinate_planes_intersect_trivially():
    meet = subspace_intersect(plane_x0(), plane_y0())
    assert meet.is_zero()
    assert not meets_nontrivially(plane_x0(), plane_y0())


def test_intersection_idempotent():
    u = plane_x0()
    assert subspace_intersect(u, u) == u


def test_zeta_planes_intersect_trivially():
    p0 = plane_y_eq_zeta_x(12, 0)   # {y = x}
    p1 = plane_y_eq_zeta_x(12, 4)   # {y = zeta_3 x}
    assert subspace_intersect(p0, p1).is_zero()


def test_contains_and_equal():
    v = Subspace.full(4, 4)
    zero = Subspace.zero_space(4, 4)
    assert subspace_contains(v, zero)
    assert subspace_contains(v, plane_x0())
    assert not subspace_contains(plane_x0(), v)
    span = Subspace.from_rows(
        4, [[rat(4, 2), rat(4, 0), rat(4, 0), rat(4, 0)], [rat(4, 0), rat(4, 5), rat(4, 0), rat(4, 0)]]
    )
    assert span == plane_y0()


def test_sum_examples():
    assert subspace_sum(plane_x0(), plane_y0()) == Subspace.full(4, 4)
    u = plane_x0()
    assert subspace_sum(u, Subspace.zero_space(4, 4)) == u
    l1 = Subspace.from_rows(4, [[rat(4, 1), rat(4, 0), rat(4, 1), rat(4, 0)]])
    l2 = Subspace.from_rows(4, [[rat(4, 0), rat(4, 1), rat(4, 0), rat(4, 1)]])
    assert subspace_sum(l1, l2) == plane_y_eq_zeta_x(4, 0)


def test_recanonicalization_is_identity():
    p = plane_y_eq_zeta_x(20, 3)
    again = Subspace.from_rows(4, [list(r) for r in p.basis])
    assert again == p


def _random_subspace(rng, n=4, L=4):
    k = rng.randint(0, n)
    rows = [[rat(L, rng.randint(-3, 3)) for _ in range(n)] for _ in range(k)]
    return Subspace.from_rows(n, rows, L)


def test_lattice_laws_random():
    rng = random.Random(11)
    for _ in range(60):
        u = _random_subspace(rng)
        v = _random_subspace(rng)
        w = _random_subspace(rng)
        assert subspace_intersect(u, v) == subspace_intersect(v, u)
        assert subspace_sum(u, v) == subspace_sum(v, u)
        assert subspace_intersect(subspace_intersect(u, v), w) == subspace_intersect(
            u, subspace_intersect(v, w)
        )
        assert subspace_sum(subspace_sum(u, v), w) == subspace_sum(u, subspace_sum(v, w))
        # modular identity for subspace dimensions
        assert (
            subspace_intersect(u, v).dim + subspace_sum(u, v).dim == u.dim + v.dim
        )
        # containment characterizations
        c = subspace_contains(u, v)
        assert c == (subspace_intersect(u, v) == v)
        assert c == (subspace_sum(u, v) == u)


# entries of Q(zeta_12): mostly small rationals, so that random rows are often
# dependent, and some general field elements
_entry12 = st.one_of(
    st.integers(-2, 2).map(lambda v: rat(12, v)),
    st.builds(
        lambda nums, den: CycNum.make(12, nums, den),
        st.lists(st.integers(-3, 3), min_size=4, max_size=4),
        st.integers(1, 3),
    ),
)
_rows12 = st.lists(st.lists(_entry12, min_size=4, max_size=4), max_size=4)


@settings(max_examples=120, deadline=None)
@given(_rows12, _rows12, _rows12)
def test_intersection_dim_matches_intersect(shared, own_u, own_v):
    # u and v share the rows of `shared`, so nontrivial meets are common
    u = Subspace.from_rows(4, (shared + own_u)[:4], 12)
    v = Subspace.from_rows(4, (shared + own_v)[-4:], 12)
    d = intersection_dim(u, v)
    assert d == subspace_intersect(u, v).dim
    assert d == intersection_dim(v, u)
    assert meets_nontrivially(u, v) == (d >= 1)


def _stacked_annihilator_meet(u, v):
    # the kernel of u's and v's annihilator rows stacked: an independent
    # route to u meet v, kept as the reference for subspace_intersect
    rows = [list(r) for r in u.annihilator_rows() + v.annihilator_rows()]
    return kernel(MatrixF.from_rows(rows)) if rows else Subspace.full(4, 12)


@settings(max_examples=120, deadline=None)
@given(_rows12, _rows12, _rows12)
def test_intersect_matches_stacked_annihilator_kernel(shared, own_u, own_v):
    u = Subspace.from_rows(4, (shared + own_u)[:4], 12)
    v = Subspace.from_rows(4, (shared + own_v)[-4:], 12)
    meet = _stacked_annihilator_meet(u, v)
    assert subspace_intersect(u, v) == meet
    assert subspace_intersect(v, u) == meet


@settings(max_examples=150, deadline=None)
@given(_rows12, _rows12, st.lists(st.integers(-2, 2), min_size=16, max_size=16))
def test_contains_matches_row_reduction(rows_u, rows_v, coeffs):
    # v is either unrelated to u or spanned by combinations of u's own rows,
    # so that nested pairs, which pass the mod-p filter, are common
    u = Subspace.from_rows(4, rows_u, 12)

    def combination(i):
        cs = [rat(12, c) for c in coeffs[4 * i : 4 * i + 4]]
        return [
            sum((c * row[j] for c, row in zip(cs, u.basis)), rat(12, 0))
            for j in range(4)
        ]

    nested = [combination(i) for i in range(u.dim)]
    for v_rows in (rows_v, nested, nested[:1]):
        v = Subspace.from_rows(4, v_rows, 12)
        joint = Subspace.from_rows(4, list(u.basis) + list(v.basis), 12).dim
        assert subspace_contains(u, v) == (joint == u.dim)
        assert subspace_contains(v, u) == (joint == v.dim)


def test_fraction_free_rank_matches_rref():
    # unstructured stacks, zero and repeated rows included, need row swaps
    rng = random.Random(5)
    for _ in range(300):
        n, k = rng.randint(1, 4), rng.randint(1, 6)
        rows = [
            [rat(12, rng.choice([0, 0, 0, 1, -1, 2])) for _ in range(n)]
            for _ in range(k)
        ]
        assert _rank(rows) == Subspace.from_rows(n, rows, 12).dim


# stacks with zero rows and repeated rows, so that the exact rank drops
_stacks12 = st.tuples(
    _rows12, st.integers(0, 2), st.lists(st.integers(0, 3), max_size=3)
).map(
    lambda t: t[0]
    + [[rat(12, 0)] * 4] * t[1]
    + [t[0][i] for i in t[2] if i < len(t[0])]
)


@settings(max_examples=200, deadline=None)
@given(_stacks12)
def test_maximal_mod_p_rank_is_exact(rows):
    img = _mod_image(12)
    exact = Subspace.from_rows(4, rows, 12).dim
    mod = img.rank([img.row(r) for r in rows])
    assert mod <= exact
    if mod == min(len(rows), 4):
        assert mod == exact
    assert _rank(rows) == exact


def test_meet_certificate_is_one_sided():
    # the stacked bases (1, 0), (1, p) are dependent mod p only
    p = _mod_image(4).p
    u = Subspace.from_rows(2, [[rat(4, 1), rat(4, 0)]])
    v = Subspace.from_rows(2, [[rat(4, 1), rat(4, p)]])
    assert subspace_intersect(u, v).is_zero()
    assert intersection_dim(u, v) == 0
    assert not meets_nontrivially(u, v)
    # the annihilator (0, 1) of u meets (1, p) in p = 0 mod p, so the
    # containment filter passes and only the exact check refutes it
    assert not subspace_contains(u, v)
    assert not subspace_contains(v, u)
    # a rank short of full proves nothing: the meet is built exactly
    assert subspace_intersect(u, u) == u
    # p in a denominator: (1, 1/p) is cleared to (p, 1) = (0, 1) mod p
    w = Subspace.from_rows(2, [[rat(4, 1), rat(4, Fraction(1, p))]])
    x = Subspace.from_rows(2, [[rat(4, 0), rat(4, 1)]])
    assert subspace_intersect(w, x).is_zero()
    assert intersection_dim(w, x) == 0


def test_ambient_mismatch_rejected():
    with pytest.raises(ValueError):
        subspace_intersect(Subspace.full(3, 4), Subspace.full(4, 4))


# -- JSON ---------------------------------------------------------------------

def test_matrix_json_roundtrip():
    m = mat(12, [[Fraction(1, 3), 2], [0, -5]])
    assert matrix_from_json(matrix_to_json(m)) == m


def test_subspace_json_roundtrip():
    s = plane_y_eq_zeta_x(20, 7)
    d = subspace_to_json(s)
    assert d["ambient"] == 4
    assert subspace_from_json(d) == s
    z = Subspace.zero_space(4, 20)
    assert subspace_from_json(subspace_to_json(z), conductor=20) == z
