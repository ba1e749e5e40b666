import math
import random
from fractions import Fraction

import pytest

from rotref.cyclo import ConductorMismatch, CycNum, _mod_image, zeta_power
from rotref.linalg import MatrixF, Subspace, kernel
from rotref.groups import (
    BIG_FACTOR_LABELS,
    CatalogEntry,
    ClosureCapExceeded,
    MatrixGroup,
    catalog_group,
    classify,
    closure,
    direct_sum,
    element_order,
    enumerate_degree4_catalog,
    fixed_space,
    generated_by_reflections,
    gmpn_generators,
    gmpn_order,
    group_from_json,
    group_to_json,
    is_rotation_group,
    pad_trivial,
    parse_label,
    realified_gmpn_group,
    realify,
)


def rat_mat(L, rows):
    return MatrixF.from_rows([[CycNum.rational(L, v) for v in row] for row in rows])


SWAP2 = [[0, 1], [1, 0]]


# -- G(m, p, n) generators ----------------------------------------------------

def test_g112_is_symmetric_group():
    gens = gmpn_generators(1, 1, 2)
    assert len(gens) == 1
    assert gens[0] == rat_mat(4, SWAP2)


def test_gm12_generators():
    gens = gmpn_generators(3, 1, 2)
    assert len(gens) == 2
    L = 12
    z = zeta_power(L, 4)
    assert gens[0] == MatrixF.from_rows(
        [[z, CycNum.zero(L)], [CycNum.zero(L), CycNum.one(L)]]
    )
    assert gens[1] == rat_mat(L, SWAP2)


def test_g222_order():
    assert closure(gmpn_generators(2, 2, 2)).order == 4 == gmpn_order(2, 2, 2)


@pytest.mark.parametrize("m,p,n", [(4, 2, 2), (6, 3, 2), (2, 1, 3)])
def test_gmpn_order_oracle(m, p, n):
    assert closure(gmpn_generators(m, p, n)).order == gmpn_order(m, p, n)


def test_gmpn_rejects_bad_divisor():
    with pytest.raises(ValueError):
        gmpn_generators(4, 3, 2)


# -- realification -------------------------------------------------------------

def test_realify_diag_zeta4():
    m = MatrixF.from_rows(
        [[zeta_power(4, 1), CycNum.zero(4)], [CycNum.zero(4), CycNum.one(4)]]
    )
    assert realify(m) == rat_mat(
        4,
        [
            [0, -1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ],
    )


def test_realify_identity():
    assert realify(MatrixF.identity(2, 4)) == MatrixF.identity(4, 4)


def test_realify_is_homomorphism_on_g312():
    cplx = closure(gmpn_generators(3, 1, 2))
    for a in cplx.elements:
        for b in cplx.elements[:6]:
            assert realify(a @ b) == realify(a) @ realify(b)


def test_realify_image_is_orthogonal():
    for g in gmpn_generators(5, 1, 2):
        r = realify(g)
        assert (r.transpose() @ r).is_identity()


def test_realify_monomorphism_small_m():
    for m in range(1, 6):
        cplx = closure(gmpn_generators(m, 1, 2))
        real = realified_gmpn_group(m)
        assert real.order == cplx.order == 2 * m * m
        assert {realify(g).key for g in cplx.elements} == set(real.element_keys())


# -- closure -------------------------------------------------------------------

def test_closure_of_swap():
    assert closure([rat_mat(4, SWAP2)]).order == 2


def test_closure_order_18():
    assert realified_gmpn_group(3).order == 18


def test_closure_generator_order_irrelevant():
    gens = gmpn_generators(4, 1, 2)
    a = closure(gens)
    b = closure(list(reversed(gens)))
    assert set(a.element_keys()) == set(b.element_keys())


def test_closure_group_axioms():
    grp = closure(gmpn_generators(3, 1, 2))
    keys = set(grp.element_keys())
    ident = MatrixF.identity(2, grp.conductor)
    assert ident.key in keys
    for a in grp.elements:
        assert all((a @ b).key in keys for b in grp.elements[:4])


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        closure(gmpn_generators(8, 1, 2), cap=100)


def test_wreath_order_formula():
    for m in range(1, 9):
        assert realified_gmpn_group(m).order == 2 * m * m


# -- classification ------------------------------------------------------------

def test_classify_identity():
    c = classify(MatrixF.identity(4, 4))
    assert c.tag == "identity" and c.fix_codim == 0


def test_classify_reflection():
    a1 = catalog_group("A1")
    refl = a1.generators[0]
    c = classify(refl)
    assert c.tag == "reflection" and c.fix_codim == 1


def test_classify_rotation():
    g = realify(gmpn_generators(5, 1, 2)[0])
    c = classify(g)
    assert c.tag == "rotation" and c.fix_codim == 2
    fs = fixed_space(g)
    L = g.conductor
    x0 = Subspace.from_rows(
        4,
        [
            [CycNum.zero(L), CycNum.zero(L), CycNum.one(L), CycNum.zero(L)],
            [CycNum.zero(L), CycNum.zero(L), CycNum.zero(L), CycNum.one(L)],
        ],
    )
    assert fs == x0


def test_fixed_space_of_swap_is_diagonal_plane():
    g = realify(rat_mat(4, SWAP2))
    fs = fixed_space(g)
    expected = Subspace.from_rows(
        4,
        [
            [CycNum.one(4), CycNum.zero(4), CycNum.one(4), CycNum.zero(4)],
            [CycNum.zero(4), CycNum.one(4), CycNum.zero(4), CycNum.one(4)],
        ],
    )
    assert fs == expected


@pytest.mark.parametrize(
    "group",
    ["G(3,1,2)", "G(4,1,2)", "G(5,1,2)", "G(6,1,2)", "A3xA1", "B3xA1", "I2(5)xI2(8)"],
)
def test_fixed_space_matches_exact_kernel(group):
    # the mod-p certificate for Fix(g) = 0 against the kernel of g - I
    if group.startswith("G("):
        grp = realified_gmpn_group(int(group[2]))
    else:
        grp = catalog_group(group)
    for e in grp.elements:
        g = MatrixF(e.rows, e.cols, e.conductor, e.den, e.nums)  # nothing cached
        exact = kernel(g - MatrixF.identity(g.rows, g.conductor))
        assert fixed_space(g).key == exact.key


def test_fixed_space_certificate_is_one_sided():
    p = _mod_image(4).p
    # g - I = diag(p, 1) is singular mod p, but Fix(g) = 0
    assert fixed_space(rat_mat(4, [[1 + p, 0], [0, 2]])).is_zero()
    # p divides the denominator; den * (g - I) = diag(1 - p, p) mod p
    assert fixed_space(rat_mat(4, [[Fraction(1, p), 0], [0, 2]])).is_zero()
    # a nonzero Fix is still found exactly
    assert fixed_space(rat_mat(4, [[1, 0], [0, 1 + p]])).dim == 1


def test_no_reflections_in_realified_wreath():
    for m in (2, 3, 4, 5):
        grp = realified_gmpn_group(m)
        codims = {classify(g).fix_codim for g in grp.elements}
        assert codims <= {0, 2, 4}


# -- rotation group test --------------------------------------------------------

def test_realified_wreath_is_rotation_group():
    for m in (2, 4):
        ok, cert = is_rotation_group(realified_gmpn_group(m))
        assert ok and cert["rotation_generators"]


def test_padded_a1_is_not_rotation_group():
    grp = pad_trivial(catalog_group("A1"), 3)
    grp.ensure_elements()
    ok, cert = is_rotation_group(grp)
    assert not ok and cert["reason"] == "no rotation elements"


def test_trivial_group_is_not_rotation_group():
    trivial = closure([MatrixF.identity(4, 4)])
    ok, cert = is_rotation_group(trivial)
    assert not ok and cert["reason"] == "trivial group"


def test_generated_by_reflections():
    assert generated_by_reflections(catalog_group("B3"))
    assert not generated_by_reflections(realified_gmpn_group(3))


# -- catalog --------------------------------------------------------------------

def test_i2_orders_and_reflections():
    for k in range(2, 9):
        g = catalog_group(f"I2({k})")
        g.ensure_elements()
        refl = sum(1 for e in g.elements if classify(e).tag == "reflection")
        assert (g.order, refl) == (2 * k, k)


def test_direct_sum_of_dihedrals():
    for p, q in [(2, 3), (3, 5)]:
        g = direct_sum(catalog_group(f"I2({p})"), catalog_group(f"I2({q})"))
        assert g.ambient_dim == 4
        assert g.order == 4 * p * q


def test_catalog_regression_small():
    expected = {"A3": (24, 6), "B3": (48, 9), "H3": (120, 15), "A4": (120, 10),
                "B4": (384, 16), "D4": (192, 12), "A2": (6, 3), "B2": (8, 4)}
    for label, (order, nrefl) in expected.items():
        g = catalog_group(label)
        g.ensure_elements()
        refl = sum(1 for e in g.elements if classify(e).tag == "reflection")
        assert (g.order, refl) == (order, nrefl), label


def test_f4_regression_and_hyperplane_count():
    g = catalog_group("F4")
    g.ensure_elements()
    reflections = [e for e in g.elements if classify(e).tag == "reflection"]
    assert (g.order, len(reflections)) == (1152, 24)
    hyperplanes = {fixed_space(e).key for e in reflections}
    assert len(hyperplanes) == 24


def test_reflections_pair_with_hyperplanes():
    for label in ("A3", "B3", "I2(5)", "A4"):
        g = catalog_group(label)
        g.ensure_elements()
        reflections = [e for e in g.elements if classify(e).tag == "reflection"]
        assert len({fixed_space(e).key for e in reflections}) == len(reflections)


def test_catalog_generators_are_orthogonal_reflections():
    for label in ("A3", "B4", "D4", "F4", "H3", "H4", "A4", "I2(7)"):
        g = catalog_group(label)
        for gen in g.generators:
            assert (gen.transpose() @ gen).is_identity()
            assert classify(gen).tag == "reflection"


def test_h_type_product_orders():
    h4 = catalog_group("H4").generators
    orders = [element_order(h4[i] @ h4[j]) for i, j in [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)]]
    assert orders == [5, 3, 3, 2, 2, 2]


def test_pad_trivial():
    g = pad_trivial(catalog_group("A1"), 2)
    assert g.ambient_dim == 3
    assert g.name == "A1x1x1"
    g.ensure_elements()
    assert g.order == 2


# -- labels -----------------------------------------------------------------------

def test_label_roundtrip():
    for lbl in ("A4", "B3xA1", "I2(5)xI2(7)", "H3x1", "I2(2)xA1xA1", "A1x1x1x1"):
        e = parse_label(lbl)
        assert e.label == lbl
        assert CatalogEntry.parse(lbl) == e


def test_label_degree_and_conductor():
    assert parse_label("H3xA1").degree == 4
    assert parse_label("H3xA1").conductor_required == 20
    assert parse_label("I2(5)xI2(7)").conductor_required == math.lcm(4, 5, 7)
    assert parse_label("B3x1").degree == 4


def test_label_conductor_is_capped():
    assert parse_label("I2(250)").conductor_required == 500
    assert parse_label("I2(125)xI2(8)").conductor_required == 1000
    with pytest.raises(ValueError, match="1004"):
        parse_label("I2(251)")
    with pytest.raises(ValueError, match="124500"):
        parse_label("I2(250)xI2(249)")


def test_unknown_label_rejected():
    with pytest.raises(ValueError):
        parse_label("E8")
    with pytest.raises(ValueError):
        parse_label("I2(1)")


def test_big_factor_flags():
    assert parse_label("H3x1").has_big_factor
    assert not parse_label("I2(6)xI2(6)").has_big_factor


# -- degree-4 enumeration -----------------------------------------------------------

def test_enumeration_stays_inside_the_conductor_cap():
    # k_max = 17 would bring in I2(15)xI2(17), at conductor 1020
    assert max(g.conductor for g in enumerate_degree4_catalog(16)) <= 1000
    for k_max in (17, 2000):
        with pytest.raises(ValueError, match="above the conductor cap"):
            enumerate_degree4_catalog(k_max)


def test_enumeration_kmax2_contains_a1_fourth():
    groups = enumerate_degree4_catalog(2)
    labels = [g.name for g in groups]
    assert "A1xA1xA1xA1" in labels
    assert len(labels) == 19
    assert all(parse_label(l).degree == 4 for l in labels)


def test_enumeration_count_kmax6_regression():
    labels = [g.name for g in enumerate_degree4_catalog(6)]
    assert len(labels) == 45
    assert len(set(labels)) == 45
    big = [l for l in labels if parse_label(l).has_big_factor]
    assert sorted(big) == sorted(BIG_FACTOR_LABELS)


def test_enumeration_is_deterministic():
    a = [g.name for g in enumerate_degree4_catalog(5)]
    b = [g.name for g in enumerate_degree4_catalog(5)]
    assert a == b


# -- JSON ----------------------------------------------------------------------------

def test_group_json_roundtrip():
    g = catalog_group("I2(5)")
    d = group_to_json(g)
    back = group_from_json(d)
    back.ensure_elements()
    assert back.order == 10
    assert back.ambient_dim == 2 and back.conductor == 20


# -- closure mod p ---------------------------------------------------------------------

def _exact_bfs_keys(generators):
    """Keys of the breadth-first closure taken in exact arithmetic, in the
    order of discovery: the reference for the closure mod p."""
    n, L = generators[0].rows, generators[0].conductor
    elems = [MatrixF.identity(n, L)]
    seen = {elems[0].key}
    i = 0
    while i < len(elems):
        for g in generators:
            prod = elems[i] @ g
            if prod.key not in seen:
                seen.add(prod.key)
                elems.append(prod)
        i += 1
    return [e.key for e in elems]


GMPN_CASES = [(2, 2, 2), (4, 2, 2), (6, 3, 2), (2, 1, 3), (3, 1, 2), (4, 1, 2)]
SWEEP_GROUPS = ("A3xA1", "B3xA1", "H3xA1", "I2(5)xI2(8)", "I2(7)xI2(8)")


def _equivalence_groups():
    out = [realified_gmpn_group(m) for m in range(1, 13)]
    out += [closure(gmpn_generators(*case)) for case in GMPN_CASES]
    return out


def test_modular_closure_matches_exact_order():
    for grp in _equivalence_groups():
        keys = [e.key for e in grp.elements]
        assert keys == _exact_bfs_keys(grp.generators), grp
        assert grp.element_keys() == set(keys)


def test_group_fixed_dims_match_exact_fixed_spaces():
    groups = _equivalence_groups() + [catalog_group(lbl) for lbl in SWEEP_GROUPS]
    for grp in groups:
        dims = grp.fixed_dims()
        assert len(dims) == grp.order
        for d, e in zip(dims, grp.elements):
            assert d == fixed_space(e).dim, grp
        assert [c.fix_codim for c in grp.element_classes()] == [
            grp.ambient_dim - d for d in dims
        ]


def test_h4_codimension_histogram():
    h4 = catalog_group("H4")
    hist = {}
    for c in h4.element_classes():
        hist[c.fix_codim] = hist.get(c.fix_codim, 0) + 1
    assert hist == {0: 1, 1: 60, 2: 1138, 3: 7140, 4: 6061}


def test_exact_elements_are_built_on_demand(monkeypatch):
    grp = realified_gmpn_group(7)
    calls = []
    matmul = MatrixF.__matmul__

    def counting(a, b):
        calls.append(1)
        return matmul(a, b)

    monkeypatch.setattr(MatrixF, "__matmul__", counting)
    ok, _ = is_rotation_group(grp)
    assert ok and len(grp.fixed_dims()) == 98
    assert calls == []
    # reading an element builds it and the unbuilt elements on its parent
    # chain, one product each, and keeps them
    elems = grp.elements
    last = elems[-1]
    assert 1 <= len(calls) <= 97
    calls.clear()
    assert elems[-1] is last and calls == []


def test_membership():
    grp = realified_gmpn_group(3)
    keys = grp.element_keys()
    assert all(e.key in keys for e in grp.elements[:4])
    outside = rat_mat(12, [[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert outside.key not in keys


def test_known_order_must_be_reached():
    gens = gmpn_generators(3, 1, 2)
    assert MatrixGroup(gens, order=18).order == 18
    with pytest.raises(ArithmeticError):
        MatrixGroup(gens, order=17).ensure_elements()


def test_closure_rejects_group_trivial_mod_p():
    # diag(1 + p, 1) has infinite order, yet its image mod p is the identity:
    # the Schreier relation t_0 s = t_0 fails exactly
    p = _mod_image(4).p
    with pytest.raises(ClosureCapExceeded):
        closure([rat_mat(4, [[1 + p, 0], [0, 1]])])


def test_closure_rejects_denominator_divisible_by_p():
    p = _mod_image(4).p
    with pytest.raises(ValueError, match="denominator is divisible"):
        closure([rat_mat(4, [[Fraction(1, p), 0], [0, 1]])])


def test_closure_of_infinite_diagonal_hits_cap():
    with pytest.raises(ClosureCapExceeded):
        closure([rat_mat(4, [[2, 0], [0, 1]])])
