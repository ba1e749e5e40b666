import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotref import arrangements, cyclo, groups, linalg, verify
from rotref.cyclo import ConductorMismatch, CycNum, _mod_image, real_imag_parts, zeta_power
from rotref.cli import main
from rotref.linalg import (
    MatrixF,
    Subspace,
    intersection_dim,
    matrix_to_json,
    meets_nontrivially,
    subspace_contains,
    subspace_intersect,
)
from rotref.groups import (
    BIG_FACTOR_LABELS,
    ClosureCapExceeded,
    MatrixGroup,
    catalog_group,
    classify,
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
from rotref.arrangements import _block_rank, _mirror_mod_p


def _is_identity(g):
    return g == MatrixF.identity(g.rows, g.conductor)


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
        if not _is_identity(g):
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
    seeds = {fixed_space(g).key for g in group.elements if not _is_identity(g)}
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
    assert "subspaces" not in vars(arr) and "provenance" not in vars(arr)
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
    assert "provenance" not in vars(arr)
    prov = arr.provenance
    assert len(prov) == arr.size and "provenance" in vars(arr)
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
    assert _is_identity(h @ h_inv) and h_inv.den == 11
    return MatrixGroup([h @ s @ h_inv for s in g.generators], order=g.order), h


@pytest.mark.parametrize("label", ["B3xA1", "I2(5)xI2(8)"])
def test_isotropy_in_a_non_orthogonal_position_with_denominators(label):
    # Fix(h g h^-1) = h.Fix(g), so the members of hGh^-1 are h applied to
    # those of G
    moved, h = _conjugated_by_h(label)
    h_t = h.transpose()

    def moved_rows(u):  # h applied to u's basis rows: the rows of B @ h^T
        if not u.basis:
            return []
        b = MatrixF.from_rows(u.basis) @ h_t
        return [b.row(i) for i in range(b.rows)]

    arr = isotropy_arrangement(moved)
    assert {u.key for u in arr.subspaces} == {
        Subspace.from_rows(4, moved_rows(u), moved.conductor).key
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
        dims = sorted(len(k) for k in arr.keys)
        assert "subspaces" not in vars(arr)
        assert [s.dim for s in arr.subspaces] == dims, g.name


def test_lemma_ag_leaves_wreath_provenance_unbuilt(fresh_caches):
    assert main(["lemma-ag", "--m", "5"]) == 0
    arr = verify._WREATH_ARR_CACHE[5]
    assert "provenance" not in vars(arr)


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
    assert {u.key for u in reflection_arrangement(g).subspaces} == {
        u.key for u in isotropy_arrangement(g).subspaces
    }


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
    assert {u.key for u in reflection_arrangement(g).subspaces} == {
        u.key for u in isotropy_arrangement(g).subspaces
    }


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
    iso = isotropy_arrangement(g)
    arr.subspaces, iso.subspaces  # built first: only the provenance reads are counted
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return subspace_contains(*args)

    monkeypatch.setattr(linalg, "subspace_contains", counted)
    monkeypatch.setattr(arrangements, "subspace_contains", counted)
    assert "provenance" not in vars(arr)
    prov = arr.provenance
    assert len(prov) == arr.size and "provenance" in vars(arr)
    assert arr.provenance is prov
    assert len(iso.provenance) == iso.size
    assert calls == 0


def _order_3_reflection():
    """diag(zeta_3, 1), the generator of G(3,1,2) that is not an involution."""
    (s,) = [s for s in gmpn_generators(3, 1, 2) if not _is_identity(s @ s)]
    return s


@pytest.mark.parametrize("label", BIG_FACTOR_LABELS + ("diag(zeta_3,1)",))
def test_reflection_vector_gives_the_reflection(label):
    # the flat search applies s-bar as x -> x - (f . x) v, with f and the
    # reflection vector v from _mirror_mod_p; it keys the mirror of s by the
    # F_p RREF of ker f, and skips the repeated moves of s only when s is an
    # involution
    if label in BIG_FACTOR_LABELS:
        gens = catalog_group(label).generators
    else:
        gens = [_order_3_reflection()]
    for s in gens:
        n = s.rows
        img = _mod_image(s.conductor)
        p = img.p
        key, f, v, involution = _mirror_mod_p(img, s)
        r = img.residues(s)
        for i in range(n):  # column i of s-bar is s-bar.e_i
            assert [r[k * n + i] % p for k in range(n)] == [
                (int(k == i) - f[i] * v[k]) % p for k in range(n)
            ]
        # key is an F_p RREF of n - 1 rows killed by f != 0: it spans ker f
        assert any(f) and len(key) == n - 1 and img.rref(key) == key
        assert not any(sum(a * b for a, b in zip(f, row)) % p for row in key)
        assert key == img.rref(fixed_space(s).mod_basis_rows())
        assert involution == _is_identity(s @ s)


REPLAY_LABELS = BIG_FACTOR_LABELS + tuple(
    f"I2({p})xI2({q})" for p in range(2, 9) for q in range(p, 9)
) + ("I2(12)x1x1", "A1xA1xA1xA1")


@pytest.mark.parametrize("label", REPLAY_LABELS)
def test_flat_keys_are_the_rref_of_each_recorded_move(label):
    # _flat_moves writes every key past the mirrors in RREF from its
    # parent's key (the cut/turn lemma); rebuild each recorded move by
    # stacking the turned or the cut rows of the parent's key and
    # eliminating them, and the result must be the key the move found
    g = catalog_group(label)
    refl = groups.generating_reflections(g)
    img = _mod_image(g.conductor)
    p = img.p
    moves, keys = arrangements._flat_moves(refl, img)
    mirrors = [_mirror_mod_p(img, s) for s in refl]
    assert len(moves) == len(keys) == len(set(keys))
    for key, (j, i, turn) in zip(keys, moves):
        assert img.rref(key) == key
        if j is None:
            assert key == mirrors[i][0]
            continue
        _, f, v, _ = mirrors[i]
        u = keys[j]
        ts = [sum(map(mul, f, row)) % p for row in u]
        if turn:
            rows = [[a - t * b for a, b in zip(row, v)] for row, t in zip(u, ts)]
        else:
            k = next(k for k, t in enumerate(ts) if t)
            rows = [
                [ts[k] * a - t * b for a, b in zip(row, u[k])]
                for m, (row, t) in enumerate(zip(u, ts))
                if m != k
            ]
        assert img.rref(rows) == key


def test_flat_search_eliminates_only_the_mirrors(monkeypatch):
    # two F_p eliminations per mirror (its normal and its kernel), none per
    # move: on H4 that is 8 rref calls for 2103 flats
    g = catalog_group("H4")
    refl = groups.generating_reflections(g)
    img = _mod_image(g.conductor)
    callers = []
    rref = cyclo._ModImage.rref

    def counted(self, rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return rref(self, rows)

    monkeypatch.setattr(cyclo._ModImage, "rref", counted)
    _, keys = arrangements._flat_moves(refl, img)
    assert len(keys) == 2103
    assert callers == ["_mirror_mod_p"] * 8


def test_reflection_arrangement_computes_no_closure():
    # a group of known order is finite by theory, and the reflection route
    # enumerates none of the big-factor groups
    for label in BIG_FACTOR_LABELS:
        known = catalog_group(label)
        fresh = MatrixGroup(known.generators, name=label, order=known.known_order)
        arr = reflection_arrangement(fresh)
        assert fresh._elements is None, label
        if label == "H3":
            assert arr.dim_counts() == {0: 1, 1: 31, 2: 15}


def test_reflection_arrangement_confirms_no_element_order(monkeypatch):
    # a catalog group is finite by theory and its generators are never
    # checked, so the reflection route runs no mod-p closure and no
    # generator check on its own
    calls = []

    def counted(name, f):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return f(*args, **kwargs)
        return wrapped

    for name in ("_residue_bfs", "_check_generators"):
        monkeypatch.setattr(groups, name, counted(name, getattr(groups, name)))
    for label in BIG_FACTOR_LABELS:
        reflection_arrangement(catalog_group(label))
        assert calls == [], label


def test_reflection_arrangement_builds_one_exact_flat_per_member(monkeypatch):
    # the search runs mod p and counts the members from their keys; the
    # first read of `subspaces` builds each member but the four starting
    # mirrors and the origin by one exact move from its parent: 2098 RREFs,
    # where the exact search made 7984, and later reads build nothing.  The
    # origin is cut from a line, and subspace_intersect's mod-p certificate
    # gives that meet as 0 with no RREF
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
    assert calls == 2103 - 4 - 1
    arr.subspaces
    assert calls == 2103 - 4 - 1


def test_exact_flats_make_one_product_per_turn(monkeypatch):
    # the turn s.u is the rows of B @ s^T, with B the basis rows of u: one
    # product per turn move, and none for a mirror or a cut.  H4 has 1751
    # turn moves among its 2103 flats
    g = catalog_group("H4")
    refl = groups.generating_reflections(g)
    moves, _ = arrangements._flat_moves(refl, _mod_image(g.conductor))
    calls = 0
    matmul = MatrixF.__matmul__

    def counted(a, b):
        nonlocal calls
        calls += 1
        return matmul(a, b)

    monkeypatch.setattr(MatrixF, "__matmul__", counted)
    flats = arrangements._exact_flats(4, refl, moves)
    assert len(flats) == 2103
    assert calls == sum(turn for _, _, turn in moves) == 1751


def test_threshold_builds_no_exact_flat(monkeypatch, fresh_caches):
    # the threshold counts each group's members from their F_p keys, whose
    # lengths are the exact dimensions by (b) of reflection_arrangement
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
    monkeypatch.setattr(linalg, "_meet_hyperplane", counted(linalg._meet_hyperplane))
    res = verify.compute_threshold()
    assert calls == 0
    assert res.per_group["H4"] == {"planes": 722, "total": 2103}
    assert (res.m0_planes, res.m0_total) == (721, 2101)


def test_theorem_part_i_builds_no_exact_flat_where_the_field_decides(monkeypatch, fresh_caches):
    # at m = 7, 12 and 721 cos(2 pi/m) lies outside every big-factor field,
    # so part (i) builds no wreath arrangement and no exact flat; only the
    # generators' fixed spaces, read by generating_reflections, remain
    calls = {"from_rows": 0, "meet": 0, "wreath": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Subspace, "from_rows",
                        staticmethod(counted("from_rows", Subspace.from_rows)))
    monkeypatch.setattr(linalg, "_meet_hyperplane",
                        counted("meet", linalg._meet_hyperplane))
    monkeypatch.setattr(verify, "wreath_arrangement",
                        counted("wreath", verify.wreath_arrangement))
    for m in (7, 12, 721):
        assert verify.verify_theorem(m).passed
    assert calls["wreath"] == calls["meet"] == 0
    assert calls["from_rows"] <= sum(
        len(catalog_group(label).generators) for label in BIG_FACTOR_LABELS
    ) == 41


def test_reflection_arrangement_dims_match_exact_flats():
    # the member dimensions come from the F_p keys before any exact flat is
    # built; the exact flats, once built, must have the same dimensions
    for g in enumerate_degree4_catalog(8):
        arr = reflection_arrangement(g)
        dims = sorted(len(k) for k in arr.keys)
        assert "subspaces" not in vars(arr)
        assert [s.dim for s in arr.subspaces] == dims, g.name


def test_reflection_arrangement_from_non_reflection_generators():
    b2 = catalog_group("B2")
    with_identity = MatrixGroup(b2.generators + (MatrixF.identity(2, 4),))
    expected = {u.key for u in reflection_arrangement(b2).subspaces}
    for g in (_b2_from_flip_and_quarter_turn(), with_identity):
        assert {u.key for u in reflection_arrangement(g).subspaces} == expected


def _q(a, b=1):
    return CycNum.rational(4, Fraction(a, b))


# each maker returns the generators of an infinite group: MatrixGroup
# refuses all when they are made

def _infinite_dihedral_group():
    # reflections in the roots (1, 0) and (1, 2): their mirrors meet at the
    # angle arccos(1/sqrt 5), which is no rational multiple of pi
    s1 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(0), _q(1)]])
    s2 = MatrixF.from_rows([[_q(3, 5), _q(-4, 5)], [_q(-4, 5), _q(-3, 5)]])
    return [s1, s2]


def _shear_group():
    # two involutions with the same mirror span(e2) whose product is a
    # shear: the group is infinite, yet it has a single flat
    s1 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(0), _q(1)]])
    s2 = MatrixF.from_rows([[_q(-1), _q(0)], [_q(1), _q(1)]])
    return [s1, s2]


def _triangle_group_237():
    # the hyperbolic (2,3,7) triangle group in its Tits representation,
    # s_i e_j = e_j + 2cos(pi/m_ij) e_i with 2cos(pi/m) = zeta_2m + zeta_2m^-1:
    # each product of two generators has order 2, 3 or 7 and every trace is
    # integral, so MatrixGroup's generator check passes, yet
    # 1/2 + 1/3 + 1/7 < 1
    L = 28
    one, zero = CycNum.one(L), CycNum.zero(L)
    c3 = one  # 2cos(pi/3)
    c7 = zeta_power(L, 2) + zeta_power(L, -2)  # 2cos(pi/7)
    s1 = MatrixF.from_rows([[-one, zero, c3], [zero, one, zero], [zero, zero, one]])
    s2 = MatrixF.from_rows([[one, zero, zero], [zero, -one, c7], [zero, zero, one]])
    s3 = MatrixF.from_rows([[one, zero, zero], [zero, one, zero], [c3, c7, -one]])
    return [s1, s2, s3]


def _affine_a2():
    # the affine Weyl group of type A2 in its Tits representation,
    # s_i e_j = e_j + e_i for j != i: it has finitely many flats, so a flat
    # search never reaches its cap, and only the enumeration refuses it
    return [
        MatrixF.from_rows(
            [[_q(-1 if j == i else 1) if r == i else _q(int(r == j)) for j in range(3)]
             for r in range(3)]
        )
        for i in range(3)
    ]


INFINITE_GROUPS = [_infinite_dihedral_group, _shear_group, _triangle_group_237, _affine_a2]


@pytest.mark.parametrize("make", INFINITE_GROUPS)
def test_reflection_arrangement_of_infinite_group_hits_cap(make):
    with pytest.raises(ClosureCapExceeded):
        reflection_arrangement(MatrixGroup(make()))


@pytest.mark.parametrize("make", INFINITE_GROUPS)
def test_cli_reflection_arrangement_of_infinite_group_exits_2(
    make, tmp_path, capsys
):
    gens = make()
    path = tmp_path / "group.json"
    path.write_text(json.dumps({
        "ambient": gens[0].rows,
        "conductor": gens[0].conductor,
        "generators": [matrix_to_json(g) for g in gens],
    }))
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


_HALF = Fraction(1, 2)

# Two sets of F4 planes that form a wreath arrangement A_{G(m,1,2)} in a
# linear position that is not orthogonal, rows being basis vectors in the
# catalog's coordinates: P0, P_inf, then the m graph planes
F4_WREATH_SETS = {
    3: (
        ((0, 1, -1, 0), (0, 0, 0, 1)),
        ((1, 0, -1, 0), (0, 1, 2, -1)),
        ((1, -1, 0, -1), (0, 0, 1, 0)),
        ((1, 0, -1, 1), (0, 1, 0, 0)),
        ((1, 1, 0, -2), (0, 0, 1, -1)),
    ),
    6: (
        ((0, 1, 0, -1), (0, 0, 1, -1)),
        ((1, 0, -1, 0), (0, 1, 1, 0)),
        ((1, 0, -1, -2), (0, 1, 0, 1)),
        ((1, 0, 0, -1), (0, 1, 0, 0)),
        ((1, 0, _HALF, -_HALF), (0, 1, _HALF, -_HALF)),
        ((1, 0, 1, 0), (0, 1, 2, -1)),
        ((1, 0, 0, 1), (0, 0, 1, 0)),
        ((1, 1, 0, 2), (0, 0, 1, 1)),
    ),
}


def _coordinates(basis, v):
    """The coordinates of v in a basis of Q^4, by exact elimination."""
    a = [[Fraction(b[i]) for b in basis] + [Fraction(v[i])] for i in range(4)]
    for c in range(4):
        r = next(r for r in range(c, 4) if a[r][c])
        a[c], a[r] = a[r], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(4):
            if r != c:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[4] for row in a]


def _mul2(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def _inv2(a):
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    return [[a[1][1] / det, -a[0][1] / det], [-a[1][0] / det, a[0][0] / det]]


def _graph_map(p0, p_inf, plane):
    """The 2 x 2 matrix, in the listed bases, of the map A: P0 -> P_inf whose
    graph {x + A x : x in P0} is `plane`: each basis row q of the plane
    splits as x + y with x in P0 and y in P_inf, and A x = y."""
    coords = [_coordinates(p0 + p_inf, q) for q in plane]
    x = [[c[i] for c in coords] for i in (0, 1)]
    y = [[c[i] for c in coords] for i in (2, 3)]
    return _mul2(y, _inv2(x))


@pytest.mark.parametrize("m", sorted(F4_WREATH_SETS))
def test_f4_contains_a_wreath_arrangement_in_a_linear_position(m, fresh_caches):
    # A_W contains h.A_{G(m,1,2)} exactly when it has transverse planes P0,
    # P_inf and the graphs of A_1 R^j, j < m, with tr R = 2cos(2 pi/m) and
    # det R = 1.  A similarity h would keep P_inf = P0^perp, so these
    # positions are linear and not orthogonal
    planes = F4_WREATH_SETS[m]
    p0, p_inf, *graphs = planes
    f4_planes = set(verify.catalog_arrangement("F4").members_of_dim(2))
    exact = [
        Subspace.from_rows(4, [[CycNum.rational(4, Fraction(x)) for x in row] for row in plane])
        for plane in planes
    ]
    assert len(graphs) == m and all(u in f4_planes for u in exact)
    assert all(intersection_dim(u, w) == 0 for u, w in itertools.combinations(exact, 2))
    maps = [_graph_map(p0, p_inf, q) for q in graphs]
    back = _inv2(maps[0])
    r = _mul2(back, maps[1])
    assert r[0][0] + r[1][1] == {3: -1, 6: 1}[m]  # 2cos(2 pi/m)
    assert r[0][0] * r[1][1] - r[0][1] * r[1][0] == 1
    assert any(sum(map(mul, a, b)) for a in p0 for b in p_inf)
    power = [[1, 0], [0, 1]]
    for a in maps:  # A_1^-1 A_j = R^j
        assert _mul2(back, a) == power
        power = _mul2(power, r)
    assert power == [[1, 0], [0, 1]]


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


def test_meet_count_needs_a_complex_structure():
    # at conductor 6 there is no i, so {x = 0} and {y = 0} are not defined
    zero, one = CycNum.zero(6), CycNum.one(6)
    p = Subspace.from_rows(4, [[one, zero, zero, zero], [zero, zero, one, zero]])
    with pytest.raises(ConductorMismatch):
        plane_meet_count(p, 3)


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
    assert _is_identity(t @ t_inv)
    assert not _is_identity(t @ t.transpose())
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
    ok, report, _ = structural_dichotomy_check(_a1_a1_i2_5())
    assert ok


def _a1_a1_i2_5():
    return direct_sum(direct_sum(catalog_group("A1"), catalog_group("A1")), catalog_group("I2(5)"))


@pytest.mark.parametrize("label", ["I2(2)xI2(2)", "I2(3)xI2(5)", "I2(4)xI2(6)",
                                   "I2(7)xI2(8)", "I2(8)xI2(8)", "A1xA1xI2(5)"])
def test_block_rank_gives_the_exact_meets(label):
    # dim(P meet V1) = 2 - rank B[:, (2, 3)] and dim(P meet V2) = 2 - rank
    # B[:, (0, 1)], against the generic exact meet
    w = _a1_a1_i2_5() if label == "A1xA1xI2(5)" else catalog_group(label)
    L = w.conductor
    v1, v2 = coordinate_plane_y0(L), coordinate_plane_x0(L)
    planes = reflection_arrangement(w).members_of_dim(2)
    assert planes
    for u in planes:
        assert 2 - _block_rank(u.basis, (2, 3)) == intersection_dim(u, v1)
        assert 2 - _block_rank(u.basis, (0, 1)) == intersection_dim(u, v2)


def test_block_rank_of_each_rank():
    zero, one = CycNum.zero(4), CycNum.one(4)
    v1 = coordinate_plane_y0(4).basis
    assert _block_rank(v1, (2, 3)) == 0
    assert _block_rank(v1, (0, 1)) == 2
    line = Subspace.from_rows(4, [[one, zero, zero, zero], [zero, one, one, zero]]).basis
    assert _block_rank(line, (2, 3)) == 1
    graph = Subspace.from_rows(4, [[one, zero, one, zero], [zero, one, zero, one]]).basis
    assert _block_rank(graph, (0, 1)) == _block_rank(graph, (2, 3)) == 2


def test_dichotomy_runs_no_rank(monkeypatch):
    calls = []
    rank = linalg._rank
    monkeypatch.setattr(linalg, "_rank", lambda *a: calls.append(1) or rank(*a))
    assert verify.verify_dichotomy(8, 8).verdict == "pass"
    assert calls == []


def test_dichotomy_makes_one_kernel_per_generator(monkeypatch):
    # reflection_arrangement classifies each generator once, by its exact
    # fixed space; the check reads its planes from the F_p keys and builds
    # no exact flat, so each generator costs one kernel and nothing else does
    calls = 0
    kernel = groups.kernel

    def counted(m):
        nonlocal calls
        calls += 1
        return kernel(m)

    monkeypatch.setattr(groups, "kernel", counted)
    w = direct_sum(catalog_group("I2(7)"), catalog_group("I2(8)"))  # fresh generators
    ok, _, _ = structural_dichotomy_check(w)
    assert ok
    assert len(w.generators) == calls == 4


def _block_shaped(w):
    """Whether every generator of w acts inside coordinates (0, 1) or (2, 3)."""
    def moved(g):
        return {
            k
            for i in range(4)
            for j in range(4)
            if not (g.entry(i, j).is_one() if i == j else g.entry(i, j).is_zero())
            for k in (i, j)
        }

    return w.ambient_dim == 4 and all(
        moved(g) <= {0, 1} or moved(g) <= {2, 3} for g in w.generators
    )


def _block_conjugate(label):
    """The catalog group `label` conjugated by the block-diagonal T =
    [[2, 1], [1, 1]] + [[3, 1/2], [1, -2]], which keeps V1 and V2; T^-1 has
    denominator 13."""
    w = catalog_group(label)
    L = w.conductor

    def matrix(rows):
        return MatrixF.from_rows([[CycNum.rational(L, Fraction(x)) for x in r] for r in rows])

    t = matrix([[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 3, "1/2"], [0, 0, 1, -2]])
    t_inv = matrix([[1, -1, 0, 0], [-1, 2, 0, 0], [0, 0, "4/13", "1/13"], [0, 0, "2/13", "-6/13"]])
    assert _is_identity(t @ t_inv) and t_inv.den == 13
    return MatrixGroup([t @ g @ t_inv for g in w.generators], name=f"T.{label}")


_LEMMA_D_CASES = (
    [g for g in enumerate_degree4_catalog(8) if _block_shaped(g)]
    + [catalog_group("A1x1xI2(5)"), catalog_group("1xA1xI2(5)")]
    + [_block_conjugate(label) for label in ("I2(5)xI2(8)", "I2(3)xI2(4)", "A1x1xI2(5)")]
)


@pytest.mark.parametrize("w", _LEMMA_D_CASES, ids=lambda w: w.name)
def test_dichotomy_keys_give_the_exact_meets(w):
    # lemma (d) of structural_dichotomy_check: dim(X meet V1) = 2 - rank_p
    # K[:, (2, 3)] and dim(X meet V2) = 2 - rank_p K[:, (0, 1)] for the F_p
    # key K of each plane X, against the exact meets; in A1x1xI2(5) V2 is
    # no flat, and the conjugates move every other plane off the blocks
    assert _block_shaped(w)
    L = w.conductor
    rank = _mod_image(L).rank
    v1, v2 = coordinate_plane_y0(L), coordinate_plane_x0(L)
    ok, report, arr = structural_dichotomy_check(w)
    exact = []
    for u, key in arr._ranked:
        if u.dim == 2:
            d1, d2 = intersection_dim(u, v1), intersection_dim(u, v2)
            assert (2 - rank([row[2:] for row in key]), 2 - rank([row[:2] for row in key])) == (d1, d2)
            exact.append("V1" if d1 == 2 else "V2" if d2 == 2 else (d1, d2))
    assert ok
    assert set(exact) <= {"V1", "V2", (1, 1)}
    assert Counter(report) == Counter(r if r != (1, 1) else "meets-both" for r in exact)


def test_lemma_d_cases_include_a_block_plane_that_is_no_flat():
    names = [w.name for w in _LEMMA_D_CASES]
    assert len(names) == len(set(names)) == 53 + 2 + 3
    _, report, _ = structural_dichotomy_check(catalog_group("A1x1xI2(5)"))
    assert sorted(report) == ["V1"] + ["meets-both"] * 5


def test_dichotomy_builds_no_exact_flat(monkeypatch):
    def refuse(*args):
        raise AssertionError("the dichotomy built an exact flat")

    monkeypatch.setattr(arrangements, "_exact_flats", refuse)
    assert verify.verify_dichotomy(7, 8).verdict == "pass"


def test_dichotomy_needs_only_generation_by_reflections():
    # B2 generated by a flip and a quarter turn is still a reflection group
    # acting inside one block
    b2 = _b2_from_flip_and_quarter_turn()
    assert any(classify(g).tag != "reflection" for g in b2.generators)
    ok, report, _ = structural_dichotomy_check(direct_sum(b2, catalog_group("I2(3)")))
    _, standard, _ = structural_dichotomy_check(catalog_group("I2(4)xI2(3)"))
    assert ok
    assert Counter(report) == Counter(standard) == {"V1": 1, "V2": 1, "meets-both": 12}


def test_dichotomy_rejects_rotation_group():
    with pytest.raises(ValueError):
        structural_dichotomy_check(realified_gmpn_group(3))


def test_dichotomy_rejects_cross_block_generators():
    with pytest.raises(ValueError):
        structural_dichotomy_check(catalog_group("B4"))
