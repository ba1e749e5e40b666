import hashlib
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotref import arrangements, groups, linalg, verify
from rotref.cyclo import CycNum, real_imag_parts, zeta_power
from rotref.cli import main
from rotref.linalg import (
    MatrixF,
    Subspace,
    intersection_dim,
    meets_nontrivially,
    subspace_contains,
    subspace_intersect,
    _dot,
)
from rotref.groups import (
    BIG_FACTOR_LABELS,
    ClosureCapExceeded,
    MatrixGroup,
    catalog_group,
    closure,
    direct_sum,
    enumerate_degree4_catalog,
    fixed_space,
    gmpn_generators,
    group_from_json,
    group_to_json,
    realified_gmpn_group,
)
from rotref.arrangements import (
    PhaseValue,
    PlanePreconditionError,
    arrangement_contains,
    complex_coords,
    coordinate_plane_x0,
    coordinate_plane_y0,
    isotropy_arrangement,
    phase_ratio,
    plane_meet_count,
    reflection_arrangement,
    sample_rational_plane,
    structural_dichotomy_check,
    wreath_plane_list,
    zeta_plane,
)
from rotref.arrangements import _reflection_vector


# -- joint fixed spaces ----------------------------------------------------------

def _joint_fixed_space(group, indices):
    """The common fixed space of the chosen elements (none chosen: V)."""
    acc = Subspace.full(group.ambient_dim, group.conductor)
    for i in indices:
        acc = subspace_intersect(acc, fixed_space(group.elements[i]))
    return acc


def test_fixed_space_of_identity_subset():
    g = realified_gmpn_group(3)
    assert _joint_fixed_space(g, [0]) == Subspace.full(4, 12)


def test_fixed_space_of_two_rotations_is_zero():
    g = realified_gmpn_group(3)
    # indices of the realified diag(zeta,1) and diag(1,zeta)
    by_key = {e.key: i for i, e in enumerate(g.elements)}
    from rotref.groups import gmpn_generators, realify

    d1 = realify(gmpn_generators(3, 1, 2)[0])
    swap = realify(gmpn_generators(3, 1, 2)[1])
    d2 = swap @ d1 @ swap
    sub = _joint_fixed_space(g, [by_key[d1.key], by_key[d2.key]])
    assert sub.is_zero()


def test_fixed_space_of_whole_group_is_zero():
    g = realified_gmpn_group(3)
    assert _joint_fixed_space(g, range(g.order)).is_zero()


# -- isotropy arrangement -------------------------------------------------------

def test_wreath_arrangement_m3():
    arr = isotropy_arrangement(realified_gmpn_group(3))
    assert arr.dim_counts() == {0: 1, 2: 5}
    assert {s.key for s in arr.members_of_dim(2)} == {
        p.key for p in wreath_plane_list(12, 3)
    }


def test_wreath_arrangement_m2():
    arr = isotropy_arrangement(realified_gmpn_group(2))
    assert arr.dim_counts() == {0: 1, 2: 4}


def test_wreath_arrangement_m1_degenerate():
    # G(1,1,2) is the symmetric group on two complex coordinates: the only
    # nontrivial fixed space is the diagonal plane, so the m+2 count fails
    arr = isotropy_arrangement(realified_gmpn_group(1))
    assert arr.dim_counts() == {2: 1}
    assert arr.subspaces[0] == zeta_plane(4, 1, 0)


def test_pairwise_trivial_intersections_m5():
    arr = isotropy_arrangement(realified_gmpn_group(5))
    planes = arr.members_of_dim(2)
    assert len(planes) == 7
    for i, p in enumerate(planes):
        for q in planes[i + 1 :]:
            assert subspace_intersect(p, q).is_zero()


def test_trivial_group_has_empty_arrangement():
    triv = closure([MatrixF.identity(4, 4)])
    arr = isotropy_arrangement(triv)
    assert arr.size == 0


def test_a1_arrangement_is_origin():
    a1 = catalog_group("A1")
    a1.ensure_elements()
    arr = isotropy_arrangement(a1)
    assert arr.dim_counts() == {0: 1}


def test_isotropy_provenance_witnesses():
    g = realified_gmpn_group(3)
    arr = isotropy_arrangement(g)
    for s, prov in zip(arr.subspaces, arr.provenance):
        assert _joint_fixed_space(g, prov["fixing_elements"]) == s


def _klein_four_group():
    # diagonal sign changes with determinant 1 in Q^3
    def diag(*signs):
        return MatrixF.from_rows(
            [[CycNum.rational(4, s if i == j else 0) for j in range(3)]
             for i, s in enumerate(signs)]
        )

    return closure([diag(1, -1, -1), diag(-1, 1, -1)])


def test_isotropy_keeps_a_meet_that_is_no_seed():
    # the Klein four-group of diagonal sign changes with determinant 1: its
    # three involutions fix the three axes, and the origin is only their meet
    g = _klein_four_group()
    arr = isotropy_arrangement(g)
    assert arr.dim_counts() == {0: 1, 1: 3}
    assert arr.subspaces[0].is_zero()
    assert arr.provenance[0] == {"fixing_elements": [1, 2, 3]}
    for s, prov in zip(arr.subspaces, arr.provenance):
        assert _joint_fixed_space(g, prov["fixing_elements"]) == s


def _b3_rotation_subgroup():
    s1, s2, s3 = catalog_group("B3").generators
    grp = closure([s1 @ s2, s2 @ s3])
    assert grp.order == 24
    return grp


def _naive_isotropy(group):
    """The element fixed spaces closed under pairwise meets by a plain
    fixpoint, and for each member the first fixing element of every
    distinct seed containing it."""
    first = {}
    for i, g in enumerate(group.elements):
        if not g.is_identity():
            fs = fixed_space(g)
            first.setdefault(fs.key, (fs, i))
    members = {k: s for k, (s, _) in first.items()}
    while True:
        new = {}
        for u in members.values():
            for v in members.values():
                w = subspace_intersect(u, v)
                if w.key not in members:
                    new[w.key] = w
        if not new:
            break
        members.update(new)
    return {
        k: sorted(i for s, i in first.values() if subspace_contains(s, u))
        for k, u in members.items()
    }


@pytest.mark.parametrize(
    "make, origin_is_seed",
    [(_klein_four_group, False), (_b3_rotation_subgroup, False)]
    + [(lambda m=m: realified_gmpn_group(m), True) for m in range(2, 7)],
    ids=["klein-four", "B3-rotations"] + [f"G({m},1,2)" for m in range(2, 7)],
)
def test_isotropy_matches_naive_meet_fixpoint(make, origin_is_seed):
    group = make()
    arr = isotropy_arrangement(group)
    got = {s.key: p["fixing_elements"] for s, p in zip(arr.subspaces, arr.provenance)}
    assert got == _naive_isotropy(group)
    origin = Subspace.zero_space(group.ambient_dim, group.conductor).key
    seeds = {fixed_space(g).key for g in group.elements if not g.is_identity()}
    assert origin in got and (origin in seeds) == origin_is_seed


def test_isotropy_closure_counts_on_f4(monkeypatch):
    # the lattice is closed over F_p, so building it makes no exact call;
    # the first read of `subspaces` makes one exact basis per member, a
    # kernel for each of the 24 hyperplane seeds and one intersection for
    # each of the 243 meets, and the provenance is read mod p; a fresh
    # group, as other tests build every element of the cached catalog one
    group = MatrixGroup(catalog_group("F4").generators, name="F4", order=1152)
    group.ensure_elements()
    counts = {"subspace_intersect": 0, "subspace_contains": 0, "kernel": 0}
    for module, name in (
        (arrangements, "subspace_intersect"),
        (arrangements, "subspace_contains"),
        (groups, "kernel"),
    ):
        def counted(*args, _fn=getattr(module, name), _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, counted)
    arr = isotropy_arrangement(group)
    assert arr.dim_counts() == {0: 1, 1: 120, 2: 122, 3: 24}
    assert counts == {"subspace_intersect": 0, "subspace_contains": 0, "kernel": 0}
    assert callable(arr._subspaces) and callable(arr._provenance)
    assert arr.size == 267
    arr.provenance
    assert counts["subspace_contains"] == 0
    assert counts["subspace_intersect"] <= 267
    assert counts["kernel"] <= 24
    # the 24 seeds' elements and their parent chains, of the 1152
    assert sum(g is not None for g in group.elements._exact) <= 118


def test_isotropy_provenance_built_on_read():
    g = group_from_json(group_to_json(catalog_group("B3")))
    arr = isotropy_arrangement(g)
    embedded = arr.embed(4 * arr.conductor)
    assert callable(arr._provenance) and callable(embedded._provenance)
    prov = embedded.provenance
    assert len(prov) == arr.size and not callable(arr._provenance)
    assert arr.provenance is prov


_H = [[2, 1, 0, 0], [1, 3, 0, 1], [0, 0, 1, 0], [1, 0, 0, 2]]  # det 11


def _rational_inverse(rows):
    """The inverse of an invertible rational matrix, by Gauss-Jordan."""
    n = len(rows)
    a = [[Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
         for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c])
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [r[n:] for r in a]


def _conjugated_by_h(label):
    """The catalog group `label` conjugated by _H, and _H over its
    conductor.  h^-1 has denominator 11, so the residues mod p of the
    conjugated elements carry an inverted denominator."""
    g = catalog_group(label)
    L = g.conductor

    def matrix(rows):
        return MatrixF.from_rows([[CycNum.rational(L, x) for x in r] for r in rows])

    h, h_inv = matrix(_H), matrix(_rational_inverse(_H))
    assert (h @ h_inv).is_identity() and h_inv.den == 11
    return MatrixGroup([h @ s @ h_inv for s in g.generators], order=g.order), h


@pytest.mark.parametrize("label", ["B3xA1", "I2(5)xI2(8)"])
def test_isotropy_in_a_non_orthogonal_position_with_denominators(label):
    # Fix(h g h^-1) = h.Fix(g), so the members of hGh^-1 are h applied to
    # those of G
    moved, h = _conjugated_by_h(label)
    arr = isotropy_arrangement(moved)
    assert arr.key_set() == {
        Subspace.from_rows(4, [h.apply(row) for row in u.basis], moved.conductor).key
        for u in isotropy_arrangement(catalog_group(label)).subspaces
    }
    for s, prov in zip(arr.subspaces, arr.provenance):
        assert _joint_fixed_space(moved, prov["fixing_elements"]) == s


def test_isotropy_dims_match_exact_members():
    # the member dimensions come from the F_p keys before any exact basis
    # is built; the exact members, once built, must have the same ones
    cases = enumerate_degree4_catalog(8) + [realified_gmpn_group(m) for m in range(1, 13)]
    for g in cases:
        arr = isotropy_arrangement(g)
        dims = arr.dims
        assert callable(arr._subspaces)
        assert tuple(s.dim for s in arr.subspaces) == dims, g.name


def test_lemma_ag_leaves_wreath_provenance_unbuilt(monkeypatch):
    monkeypatch.setattr(verify, "_WREATH_ARR_CACHE", {})
    assert main(["lemma-ag", "--m", "5"]) == 0
    arr = verify._WREATH_ARR_CACHE[5]
    assert callable(arr._provenance)


# -- reflection arrangement -------------------------------------------------------

def test_i2_3_reflection_arrangement():
    g = catalog_group("I2(3)")
    g.ensure_elements()
    arr = reflection_arrangement(g)
    assert arr.dim_counts() == {0: 1, 1: 3}


def test_i2_2_squared_reflection_arrangement():
    w = direct_sum(catalog_group("I2(2)"), catalog_group("I2(2)"))
    w.ensure_elements()
    arr = reflection_arrangement(w)
    assert arr.dim_counts() == {0: 1, 1: 4, 2: 6, 3: 4}


def test_reflection_rejects_rotation_group():
    with pytest.raises(ValueError):
        reflection_arrangement(realified_gmpn_group(3))


def test_padded_arrangement_has_no_origin():
    w = catalog_group("A3x1")
    w.ensure_elements()
    arr = reflection_arrangement(w)
    assert arr.dim_counts() == {1: 1, 2: 7, 3: 6}


@pytest.mark.parametrize("label", ["I2(2)", "I2(3)", "I2(4)", "I2(6)", "A3", "B3", "A2"])
def test_oracle_equivalence_small(label):
    g = catalog_group(label)
    g.ensure_elements()
    assert reflection_arrangement(g).key_set() == isotropy_arrangement(g).key_set()


def test_reflection_provenance_hyperplanes():
    # provenance indices are positions among the arrangement's own
    # hyperplanes, and the F_p keys name exactly the hyperplanes that
    # contain a member exactly; H4 is checked on every tenth member, as
    # the exact test of all its 2103 x 60 pairs costs ten times as much
    cases = [(catalog_group(label), count, 1) for label, count in (("B3", 9), ("F4", 24))]
    cases.append((catalog_group("H4"), 60, 10))
    cases += [
        (_conjugated_by_h(label)[0], count, 1)
        for label, count in (("F4", 24), ("I2(5)xI2(8)", 13))
    ]
    for g, count, stride in cases:
        arr = reflection_arrangement(g)
        hyperplanes = arr.members_of_dim(g.ambient_dim - 1)
        assert len(hyperplanes) == count
        assert all(prov["hyperplanes"] for prov in arr.provenance)
        for s, prov in zip(arr.subspaces[::stride], arr.provenance[::stride]):
            assert prov["hyperplanes"] == [
                j for j, h in enumerate(hyperplanes) if subspace_contains(h, s)
            ]


@pytest.mark.parametrize("m, n", [(3, 2), (4, 2), (5, 2), (6, 2), (4, 3)])
def test_reflection_route_on_complex_reflections(m, n):
    # diag(zeta_m, 1) has order m: the search may skip the repeated moves of
    # involutions only, as s.(s.u) = s^2.u is a new flat for m > 2
    g = MatrixGroup(gmpn_generators(m, 1, n), name=f"G({m},1,{n})")
    assert reflection_arrangement(g).key_set() == isotropy_arrangement(g).key_set()


B2_NAME = "B2 from a flip and a quarter turn"


def _b2_from_flip_and_quarter_turn():
    one, zero = CycNum.one(4), CycNum.zero(4)
    flip = MatrixF.from_rows([[one, zero], [zero, -one]])
    quarter_turn = MatrixF.from_rows([[zero, -one], [one, zero]])
    return MatrixGroup([flip, quarter_turn], name=B2_NAME)


# SHA-256 of `rotref arrangement compute REF --method reflection --json`,
# recorded when the provenance was still built inside the search
REFLECTION_JSON_SHA256 = {
    "B3": "ce50342e5013684bee481cb76f9e85b9bae1dec088f6b7f88b94435f67d97110",
    "F4": "c58ceeaaf5e6e4afe023d2457925ec4421c8f53e42929260d366f2968b308f4c",
    "H3": "cf02cb352aab4b03124cc204b0a4f4c95d4b52657c2708b1a42f6ab130a6ec4d",
    "A3xA1": "fa9851c850090123e2e9df575f37dfa6ee255b7eadddc8b96789176a16728c5c",
    B2_NAME: "090b956388330f6756f2448bce1f79e748e5fa2c90b8b3889561cf7bd56af171",
}


@pytest.mark.parametrize("ref", sorted(REFLECTION_JSON_SHA256))
def test_reflection_arrangement_json_bytes(ref, tmp_path):
    target = ref
    if ref == B2_NAME:
        target = tmp_path / "group.json"
        target.write_text(json.dumps(group_to_json(_b2_from_flip_and_quarter_turn())))
    out = tmp_path / "arrangement.json"
    args = ["arrangement", "compute", str(target), "--method", "reflection"]
    assert main(args + ["--json", str(out)]) == 0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == REFLECTION_JSON_SHA256[ref]


def test_reflection_provenance_built_on_read(monkeypatch):
    # either route's provenance is read from the members' F_p keys, with
    # no exact containment test
    g = catalog_group("F4")
    arr = reflection_arrangement(g)
    embedded = arr.embed(4 * arr.conductor)
    iso = isotropy_arrangement(g)
    arr.subspaces, iso.subspaces  # built first: only the provenance reads are counted
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return subspace_contains(*args)

    monkeypatch.setattr(linalg, "subspace_contains", counted)
    monkeypatch.setattr(arrangements, "subspace_contains", counted)
    assert callable(arr._provenance) and callable(embedded._provenance)
    prov = arr.provenance
    assert len(prov) == arr.size and not callable(arr._provenance)
    assert embedded.provenance is prov
    assert len(iso.provenance) == iso.size
    assert calls == 0


@pytest.mark.parametrize("label", BIG_FACTOR_LABELS)
def test_reflection_vector_gives_the_reflection(label):
    # the flat search applies s as x -> x - (f_s . x) v_s
    g = catalog_group(label)
    n, L = g.ambient_dim, g.conductor
    one, zero = CycNum.one(L), CycNum.zero(L)
    for s in g.generators:
        normal = fixed_space(s).annihilator_rows()[0]
        v = _reflection_vector(s, normal)
        for i in range(n):
            x = [one if j == i else zero for j in range(n)]
            t = _dot(normal, x)
            assert tuple(a - t * b for a, b in zip(x, v)) == s.apply(x)


def test_reflection_arrangement_computes_no_closure():
    fresh = MatrixGroup(catalog_group("H3").generators, name="H3")
    arr = reflection_arrangement(fresh)
    assert fresh._elements is None
    assert arr.dim_counts() == {0: 1, 1: 31, 2: 15}


def test_reflection_arrangement_builds_one_exact_flat_per_member(monkeypatch):
    # the search runs mod p and counts the members from their keys; the
    # first read of `subspaces` builds each member but the four starting
    # mirrors by one exact move from its parent: 2099 RREFs, where the
    # exact search made 7984, and later reads build nothing
    g = catalog_group("H4")
    for s in g.generators:
        fixed_space(s)  # the starting mirrors, cached on their generators
    calls = 0
    from_rows = Subspace.from_rows

    def counted(*args):
        nonlocal calls
        calls += 1
        return from_rows(*args)

    monkeypatch.setattr(Subspace, "from_rows", staticmethod(counted))
    arr = reflection_arrangement(g)
    assert arr.size == 2103
    assert arr.dim_counts() == {0: 1, 1: 1320, 2: 722, 3: 60}
    assert calls == 0
    arr.subspaces
    assert calls == 2103 - 4
    arr.subspaces
    assert calls == 2103 - 4


def test_threshold_builds_no_exact_flat(monkeypatch):
    # the threshold counts each group's members from their F_p keys, whose
    # lengths are the exact dimensions by (b) of reflection_arrangement
    monkeypatch.setattr(verify, "_CATALOG_ARR_CACHE", {})
    for label in BIG_FACTOR_LABELS:
        for s in catalog_group(label).generators:
            fixed_space(s)  # generating_reflections classifies by these
    calls = 0

    def counted(fn):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Subspace, "from_rows", staticmethod(counted(Subspace.from_rows)))
    monkeypatch.setattr(arrangements, "_meet_hyperplane", counted(arrangements._meet_hyperplane))
    res = verify.compute_threshold()
    assert calls == 0
    assert res.per_group["H4"] == {"planes": 722, "total": 2103}
    assert (res.m0_planes, res.m0_total) == (721, 2101)


def test_reflection_arrangement_dims_match_exact_flats():
    # the member dimensions come from the F_p keys before any exact flat is
    # built; the exact flats, once built, must have the same dimensions
    for g in enumerate_degree4_catalog(8):
        arr = reflection_arrangement(g)
        dims = arr.dims
        L2 = 2 * arr.conductor
        wide = arr.embed(L2)
        assert callable(arr._subspaces) and callable(wide._subspaces)
        assert wide.dims == dims and wide.size == arr.size
        assert tuple(s.dim for s in arr.subspaces) == dims, g.name
        assert [s.key for s in wide.subspaces] == [s.embed(L2).key for s in arr.subspaces]


def test_reflection_arrangement_from_non_reflection_generators():
    b2 = catalog_group("B2")
    expected = reflection_arrangement(b2).key_set()
    assert reflection_arrangement(_b2_from_flip_and_quarter_turn()).key_set() == expected
    with_identity = MatrixGroup(b2.generators + (MatrixF.identity(2, 4),))
    assert reflection_arrangement(with_identity).key_set() == expected


def _q(a, b=1):
    return CycNum.rational(4, Fraction(a, b))


def _infinite_dihedral_group():
    # reflections in the roots (1, 0) and (1, 2): their mirrors meet at the
    # angle arccos(1/sqrt 5), which is no rational multiple of pi
    s1 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(0), _q(1)]])
    s2 = MatrixF.from_rows([[_q(3, 5), _q(-4, 5)], [_q(-4, 5), _q(-3, 5)]])
    return MatrixGroup([s1, s2], name="infinite dihedral")


def _shear_group():
    # two involutions with the same mirror span(e2) whose product is a
    # shear: the group is infinite, yet it has a single flat
    s1 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(0), _q(1)]])
    s2 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(1), _q(1)]])
    return MatrixGroup([s1, s2], name="shear")


def _triangle_group_237():
    # the hyperbolic (2,3,7) triangle group in its Tits representation,
    # s_i e_j = e_j + 2cos(pi/m_ij) e_i with 2cos(pi/m) = zeta_2m + zeta_2m^-1:
    # each product of two generators has order 2, 3 or 7 and every trace is
    # integral, so the pre-check passes, yet 1/2 + 1/3 + 1/7 < 1
    L = 28
    one, zero = CycNum.one(L), CycNum.zero(L)
    c3 = one  # 2cos(pi/3)
    c7 = zeta_power(L, 2) + zeta_power(L, -2)  # 2cos(pi/7)
    s1 = MatrixF.from_rows([[-one, zero, c3], [zero, one, zero], [zero, zero, one]])
    s2 = MatrixF.from_rows([[one, zero, zero], [zero, -one, c7], [zero, zero, one]])
    s3 = MatrixF.from_rows([[one, zero, zero], [zero, one, zero], [c3, c7, -one]])
    return MatrixGroup([s1, s2, s3], name="(2,3,7) triangle")


INFINITE_GROUPS = [_infinite_dihedral_group, _shear_group, _triangle_group_237]


@pytest.mark.parametrize("make", INFINITE_GROUPS)
def test_reflection_arrangement_of_infinite_group_hits_cap(make):
    with pytest.raises(ClosureCapExceeded):
        reflection_arrangement(make())


@pytest.mark.parametrize("make", INFINITE_GROUPS)
def test_cli_reflection_arrangement_of_infinite_group_exits_2(
    make, tmp_path, capsys
):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(make())))
    assert main(["arrangement", "compute", str(path), "--method", "reflection"]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


# -- containment -------------------------------------------------------------------

def test_containment_reflexive_and_empty():
    arr = isotropy_arrangement(realified_gmpn_group(3))
    assert arrangement_contains(arr, arr) == (True, None)
    triv = isotropy_arrangement(closure([MatrixF.identity(4, 4)]))
    assert arrangement_contains(arr, triv)[0]


def test_dihedral_sum_does_not_contain_wreath_m4():
    w = direct_sum(catalog_group("I2(4)"), catalog_group("I2(4)"))
    w.ensure_elements()
    aw = reflection_arrangement(w)
    ag = isotropy_arrangement(realified_gmpn_group(4))
    ok, witness = arrangement_contains(aw, ag)
    assert not ok
    assert witness.dim == 2  # a plane witness, reported before lines/origin


def test_b4_contains_wreath_m2_and_m4():
    # the realified wreath groups for m in {2, 4} are signed-permutation
    # groups, and their arrangements do sit inside the B4 arrangement
    b4 = catalog_group("B4")
    b4.ensure_elements()
    ab4 = reflection_arrangement(b4)
    for m in (2, 4):
        ag = isotropy_arrangement(realified_gmpn_group(m))
        assert arrangement_contains(ab4, ag) == (True, None)
    ag3 = isotropy_arrangement(realified_gmpn_group(3))
    ok, witness = arrangement_contains(ab4, ag3)
    assert not ok and witness.dim == 2


# -- phase values --------------------------------------------------------------------

def test_phase_of_unit_vector():
    L = 12
    re, im = (zeta_power(L, 4) + zeta_power(L, 8)) * CycNum.rational(L, Fraction(1, 2)), None
    u = [CycNum.one(L), CycNum.zero(L)] + list(
        __import__("rotref.cyclo", fromlist=["real_imag_parts"]).real_imag_parts(
            zeta_power(L, 4)
        )
    )
    pv = phase_ratio(u, 3)
    assert pv.defined and pv.is_unit()
    assert pv.unit_value() == zeta_power(L, 4)


def test_phase_undefined_on_coordinate_planes():
    L = 4
    u = [CycNum.zero(L), CycNum.zero(L), CycNum.one(L), CycNum.rational(L, 2)]
    assert not phase_ratio(u).defined


def test_phase_scaling_invariance():
    L = 20
    rng = random.Random(5)
    u = [CycNum.rational(L, Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(4)]
    pv = phase_ratio(u)
    for _ in range(20):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
        scaled = [CycNum.rational(L, lam) * e for e in u]
        assert phase_ratio(scaled).ratio == pv.ratio


def test_phase_same_for_positive_span_coefficients():
    L = 20
    v = [CycNum.rational(L, 3), CycNum.rational(L, 1), CycNum.zero(L), CycNum.zero(L)]
    w = [CycNum.zero(L), CycNum.zero(L), CycNum.rational(L, 2), CycNum.rational(L, -5)]
    base = None
    for a, b in [(1, 1), (2, 3), (Fraction(1, 2), 7), (5, Fraction(2, 3))]:
        u = [
            CycNum.rational(L, a) * x + CycNum.rational(L, b) * y
            for x, y in zip(v, w)
        ]
        pv = phase_ratio(u)
        if base is None:
            base = pv
        else:
            assert pv.same_phase(base)


def test_phase_flips_for_opposite_sign_coefficients():
    # the direction of y(u)/x(u) depends on sign(b/a): opposite signs give
    # the antipodal phase, so only the squared phase is constant on a plane
    L = 4
    v = [CycNum.one(L), CycNum.zero(L), CycNum.zero(L), CycNum.zero(L)]
    w = [CycNum.zero(L), CycNum.zero(L), CycNum.one(L), CycNum.zero(L)]
    plus = phase_ratio([a + b for a, b in zip(v, w)])
    minus = phase_ratio([a - b for a, b in zip(v, w)])
    assert not plus.same_phase(minus)
    sq_plus = PhaseValue(plus.ratio * plus.ratio)
    sq_minus = PhaseValue(minus.ratio * minus.ratio)
    assert sq_plus.same_phase(sq_minus)


def test_phase_constant_on_zeta_plane():
    L, m, j = 20, 5, 2
    p = zeta_plane(L, m, j)
    rng = random.Random(1)
    target = PhaseValue(zeta_power(L, (L // m) * j))
    for _ in range(10):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        u = [
            CycNum.rational(L, a) * x + CycNum.rational(L, b) * y
            for x, y in zip(p.basis[0], p.basis[1])
        ]
        x, y = complex_coords(u)
        if x.is_zero() or y.is_zero():
            continue
        pv = phase_ratio(u, m)
        assert pv.is_unit() and pv.unit_value() == target.ratio


# -- plane meet counts ------------------------------------------------------------

def test_meet_count_single_zeta_plane():
    L, m = 20, 5
    re, im = __import__("rotref.cyclo", fromlist=["real_imag_parts"]).real_imag_parts(
        zeta_power(L, 8)  # zeta_5^2
    )
    v = [CycNum.one(L), CycNum.zero(L), CycNum.zero(L), CycNum.zero(L)]
    w = [CycNum.zero(L), CycNum.zero(L), re, im]
    p = Subspace.from_rows(4, [v, w])
    assert plane_meet_count(p, m) == 1


def test_meet_count_precondition_violation():
    p = zeta_plane(20, 5, 3)  # does not meet {x=0} nontrivially
    with pytest.raises(PlanePreconditionError):
        plane_meet_count(p, 5)
    with pytest.raises(PlanePreconditionError):
        plane_meet_count(Subspace.full(4, 20), 5)


@pytest.mark.parametrize("m,L", [(3, 12), (5, 20)])
def test_meet_count_at_most_one_for_odd_m(m, L):
    rng = random.Random(0)
    for _ in range(150):
        p = sample_rational_plane(rng, L)
        assert plane_meet_count(p, m) <= 1


def test_meet_count_two_for_antipodal_pair_even_m():
    # span(e1, e3) meets both {y=x} and {y=-x}: for even m the true bound is
    # an antipodal pair, not a single plane
    L = 4
    zero, one = CycNum.zero(L), CycNum.one(L)
    p = Subspace.from_rows(4, [[one, zero, zero, zero], [zero, zero, one, zero]])
    assert plane_meet_count(p, 2) == 2
    assert plane_meet_count(p, 4) == 2
    assert plane_meet_count(p.embed(12), 3) == 1


@pytest.mark.parametrize("m", [3, 5, 8, 12])
def test_conjugate_graph_meets_every_zeta_plane_and_no_coordinate_plane(m):
    # {(z, conj z)} meets every y = zeta^j x, so no bound on the planes a
    # plane can meet holds without the coordinate-plane precondition
    L = math.lcm(4, m)
    zero, one = CycNum.zero(L), CycNum.one(L)
    p = Subspace.from_rows(4, [[one, zero, one, zero], [zero, one, zero, -one]])
    assert all(meets_nontrivially(p, zeta_plane(L, m, j)) for j in range(m))
    assert not meets_nontrivially(p, coordinate_plane_x0(L))
    assert not meets_nontrivially(p, coordinate_plane_y0(L))


def test_meet_count_even_m_bound_two_with_antipodal_structure():
    m, L = 8, 8
    rng = random.Random(2)
    for _ in range(150):
        p = sample_rational_plane(rng, L)
        met = [j for j in range(m) if __meets(p, L, m, j)]
        assert len(met) <= 2
        if len(met) == 2:
            assert (met[1] - met[0]) % m == m // 2


def __meets(p, L, m, j):
    from rotref.linalg import meets_nontrivially

    return meets_nontrivially(p, zeta_plane(L, m, j))


def test_no_sampled_plane_meets_all_members():
    # for m >= 3 no plane meets every member of the wreath arrangement
    for m, L in [(3, 12), (5, 20), (8, 8)]:
        rng = random.Random(7)
        planes = wreath_plane_list(L, m)
        for _ in range(60):
            p = sample_rational_plane(rng, L)
            met = sum(
                1 for q in planes if __meets_sub(p, q)
            )
            assert met < m + 2


def __meets_sub(p, q):
    from rotref.linalg import meets_nontrivially

    return meets_nontrivially(p, q)


_NONZERO_12 = st.builds(
    lambda nums, den: CycNum.make(12, nums, den),
    st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
    st.integers(min_value=1, max_value=4),
).filter(lambda a: not a.is_zero())


@settings(max_examples=60, deadline=None)
@given(_NONZERO_12, _NONZERO_12)
def test_lemma_2_meet_bound_exactly(a, b):
    # Lemma 2 of verify_theorem: P = span((a, 0), (0, b)) meets y = cx
    # exactly when c is in R.(b/a), i.e. when c * a * conj(b) is real
    zero = CycNum.zero(12)
    p = Subspace.from_rows(
        4, [[*real_imag_parts(a), zero, zero], [zero, zero, *real_imag_parts(b)]]
    )
    met = []
    for j in range(12):
        z = zeta_power(12, j) * a * b.conj()
        real = z.conj() == z
        assert meets_nontrivially(p, zeta_plane(12, 12, j)) == real
        if real:
            met.append(j)
    assert len(met) <= 2
    if len(met) == 2:
        assert met[1] - met[0] == 6


def _elementary_product(L, moves):
    """T = E_1 E_2 ... and its inverse, for elementary integer matrices
    E = I + c e_i e_j^T (i != j), whose inverse is I - c e_i e_j^T."""
    def product(factors):
        acc = MatrixF.identity(4, L)
        for i, j, c in factors:
            rows = [[CycNum.rational(L, int(r == s) + (c if (r, s) == (i, j) else 0))
                     for s in range(4)] for r in range(4)]
            acc = acc @ MatrixF.from_rows(rows)
        return acc

    return product(moves), product([(i, j, -c) for i, j, c in reversed(moves)])


@pytest.mark.parametrize("p,q", [(2, 7), (3, 5), (4, 6)])
def test_lemma_1_blocks_in_a_non_orthogonal_position(p, q):
    # Lemma 1 of verify_theorem: every plane of A_W is T.V1, T.V2, or meets
    # each of them in a line, for W = I2(p) x I2(q) conjugated by T
    w = catalog_group(f"I2({p})xI2({q})")
    L = w.conductor
    t, t_inv = _elementary_product(L, [(0, 2, 1), (3, 1, -1), (1, 0, 2), (2, 3, 1)])
    assert (t @ t_inv).is_identity()
    assert not (t @ t.transpose()).is_identity()
    moved = MatrixGroup([t @ g @ t_inv for g in w.generators])
    columns = t.transpose()
    v1 = Subspace.from_rows(4, [columns.row(0), columns.row(1)])
    v2 = Subspace.from_rows(4, [columns.row(2), columns.row(3)])
    planes = reflection_arrangement(moved).members_of_dim(2)
    assert len(planes) == len(reflection_arrangement(w).members_of_dim(2))
    keys = [u.key for u in planes]
    assert v1.key in keys and v2.key in keys
    for u in planes:
        if u.key not in (v1.key, v2.key):
            assert intersection_dim(u, v1) == 1 and intersection_dim(u, v2) == 1


# -- structural dichotomy -----------------------------------------------------------

@pytest.mark.parametrize("p,q", [(2, 2), (3, 5), (4, 6), (5, 5)])
def test_dichotomy_for_dihedral_sums(p, q):
    w = direct_sum(catalog_group(f"I2({p})"), catalog_group(f"I2({q})"))
    ok, report, arr = structural_dichotomy_check(w)
    assert ok
    assert report.count("V1") == 1 and report.count("V2") == 1
    assert len(report) == len(arr.members_of_dim(2))


def test_dichotomy_with_a1_blocks():
    block = direct_sum(catalog_group("A1"), catalog_group("A1"))
    w = direct_sum(block, catalog_group("I2(5)"))
    ok, report, _ = structural_dichotomy_check(w)
    assert ok


def test_dichotomy_rejects_rotation_group():
    with pytest.raises(ValueError):
        structural_dichotomy_check(realified_gmpn_group(3))


def test_dichotomy_rejects_cross_block_generators():
    with pytest.raises(ValueError):
        structural_dichotomy_check(catalog_group("B4"))
