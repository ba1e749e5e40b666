"""Fixed-point subspace arrangements, reflection arrangements, and the
plane-geometry checks behind the degree-4 non-containment argument.

The isotropy arrangement of a finite linear group G collects the joint fixed
spaces of its nontrivial isotropy (vector-stabilizer) subgroups.  It is
computed here from the element fixed spaces: those "seed" subspaces are
closed under intersection into the fixed-space lattice, one seed at a time,
and every lattice member belongs to the arrangement (see
isotropy_arrangement).  The provenance of either kind of arrangement is
built the first time it is read, from which listed spaces (seeds or
hyperplanes) contain each member.

Meets and containments go through rotref.linalg, which owns their modular
certificates.

All outputs are deterministic: members are canonically sorted by dimension
and then by their canonical basis; witnesses are chosen by that order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from rotref.cyclo import (
    ConductorMismatch,
    CycNum,
    is_positive_real,
    real_imag_parts,
    zeta_power,
)
from rotref.linalg import (
    MatrixF,
    Subspace,
    intersection_dim,
    meets_nontrivially,
    subspace_contains,
    subspace_intersect,
    subspace_to_json,
    _dot,
    _meet_hyperplane,
)
from rotref.groups import (
    DEFAULT_CLOSURE_CAP,
    ClosureCapExceeded,
    MatrixGroup,
    classify,
    element_order,
    fixed_space,
    generating_reflections,
)

__all__ = [
    "Arrangement",
    "PhaseValue",
    "PlanePreconditionError",
    "isotropy_arrangement",
    "reflection_arrangement",
    "arrangement_contains",
    "coordinate_plane_x0",
    "coordinate_plane_y0",
    "zeta_plane",
    "wreath_plane_list",
    "complex_coords",
    "phase_ratio",
    "plane_meet_count",
    "structural_dichotomy_check",
    "sample_rational_plane",
    "arrangement_to_json",
]


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arrangement:
    """A finite set of proper subspaces in canonical order (dimension, then
    canonical basis), with a per-member provenance witness.

    `_provenance` is the witness tuple, or a function of no arguments that
    builds it; the function runs the first time `provenance` is read."""

    ambient_dim: int
    conductor: int
    subspaces: tuple
    _provenance: object = field(repr=False, compare=False)

    @property
    def provenance(self) -> tuple:
        if callable(self._provenance):
            object.__setattr__(self, "_provenance", self._provenance())
        return self._provenance

    @property
    def size(self) -> int:
        return len(self.subspaces)

    def members_of_dim(self, d: int):
        return [s for s in self.subspaces if s.dim == d]

    def dim_counts(self) -> dict:
        out: dict[int, int] = {}
        for s in self.subspaces:
            out[s.dim] = out.get(s.dim, 0) + 1
        return out

    def key_set(self):
        return {s.key for s in self.subspaces}

    def embed(self, L2: int) -> "Arrangement":
        if L2 == self.conductor:
            return self
        return Arrangement(
            self.ambient_dim,
            L2,
            tuple(s.embed(L2) for s in self.subspaces),
            lambda: self.provenance,
        )


def _reflection_vector(s: MatrixF, normal):
    """The vector v with s.x = x - (normal . x) v, for an s whose fixed space
    is the hyperplane {normal . x = 0}.  Then I - s has rank 1 and that
    kernel, so I - s = v normal^T, and v is column j of I - s divided by
    normal[j] for any j with normal[j] != 0."""
    j = next(i for i, c in enumerate(normal) if not c.is_zero())
    scale = normal[j].inv()
    L = s.conductor
    col = [
        (CycNum.one(L) if i == j else CycNum.zero(L)) - s.entry(i, j)
        for i in range(s.rows)
    ]
    return tuple(c * scale for c in col)


def _seed_fixed_spaces(group: MatrixGroup):
    """Distinct element fixed spaces (identity excluded), with the smallest
    fixing element index per seed, in first-discovery order.  An element
    whose fixed space is 0 by its residues (MatrixGroup.fixed_dims) gives
    the zero seed, with neither its exact matrix nor a kernel built."""
    n, L = group.ambient_dim, group.conductor
    seeds = []
    seen = set()
    elems = group.elements
    for i, d in enumerate(group.fixed_dims()):
        if i == 0:
            continue
        fs = fixed_space(elems[i]) if d else Subspace.zero_space(n, L)
        if fs.key not in seen:
            seen.add(fs.key)
            seeds.append((fs, i))
    return seeds


def _containing(spaces, u) -> list:
    """Positions in `spaces` of the spaces containing u.  A space of u's
    dimension contains u only when it equals u."""
    d = u.dim
    return [
        i
        for i, s in enumerate(spaces)
        if (s.dim > d and subspace_contains(s, u)) or (s.dim == d and s.key == u.key)
    ]


def isotropy_arrangement(group: MatrixGroup) -> Arrangement:
    """The arrangement of fixed spaces of nontrivial isotropy subgroups.

    Algorithm: collect the element fixed spaces (the seeds) and close them
    under intersection into the fixed-space lattice.  Every lattice member
    is in the arrangement.  A member U is a meet of seeds, so it is the meet
    of all the seeds Fix(g_i) containing it, each g_i != 1.  Every g_i lies
    in the pointwise stabilizer G_U, so V^{G_U} is inside the meet of the
    Fix(g_i), which is U, which is inside V^{G_U}: U = V^{G_U}, with G_U
    nontrivial.  G_U is the stabilizer of a generic vector of U, so U is an
    isotropy fixed space; conversely each of those is a meet of element
    fixed spaces.

    The closure adds one seed at a time.  If M is closed under meets, so is
    M + {s} + {s meet u : u in M}, since (s meet u) meet v = s meet (u meet
    v).  A seed already in M adds nothing, and s meet u = u when s contains
    u.  Seeds are taken in order of decreasing dimension, so most of the
    smaller ones are already meets of larger ones when their turn comes.

    The provenance of a member lists one fixing element per seed containing
    it; the common fixed space of those elements is the member itself.  It
    is built the first time `provenance` is read (_seed_provenance).
    """
    n, L = group.ambient_dim, group.conductor
    seeds = _seed_fixed_spaces(group)
    members = {}
    for s, _ in sorted(seeds, key=lambda seed: -seed[0].dim):
        if s.key in members:
            continue
        meets = [s] + [
            subspace_intersect(s, u)
            for u in members.values()
            if not subspace_contains(s, u)
        ]
        for w in meets:
            members.setdefault(w.key, w)
    order = tuple(sorted(members.values(), key=lambda u: u.sort_key()))
    return Arrangement(n, L, order, lambda: _seed_provenance(seeds, order))


def _seed_provenance(seeds, members) -> tuple:
    """For each of `members`, the fixing element of every seed containing
    it, in increasing element order."""
    spaces = [s for s, _ in seeds]
    return tuple(
        {"fixing_elements": sorted(seeds[i][1] for i in _containing(spaces, u))}
        for u in members
    )


def _trace(g: MatrixF) -> CycNum:
    return sum((g.entry(i, i) for i in range(1, g.rows)), g.entry(0, 0))


def _reject_infinite_pairs(refl):
    """Raise ClosureCapExceeded when a reflection in `refl`, or the product
    of two of them, cannot lie in a finite group.

    An element of finite order has roots of unity as eigenvalues, so its
    trace is an algebraic integer.  The powers 1, zeta_L, ..., of the
    canonical form are an integral basis of Z[zeta_L], so a trace is an
    algebraic integer exactly when its denominator is 1.  That test rejects
    most infinite dihedral pairs at once; the exact order, bounded by the
    closure cap, catches the rest (a shear has trace 2)."""
    elems = list(refl)
    elems += [s @ t for i, s in enumerate(refl) for t in refl[i + 1:]]
    if any(_trace(g).den != 1 for g in elems):
        raise ClosureCapExceeded(
            "group not finite: a reflection or a product of two has a "
            "trace that is not an algebraic integer"
        )
    for g in elems:
        element_order(g)


def reflection_arrangement(w: MatrixGroup) -> Arrangement:
    """The flats of a reflection group: its reflecting hyperplanes and all
    their intersections, the full space excluded.

    One breadth-first search over flats, with no group closure.  Let R be a
    set of reflections generating w (its generators when they all are
    reflections, else a generating subset of the reflections among its
    elements).  The search starts from the hyperplanes H_s, s in R, and from
    a member u makes the flats s.u and u meet H_s for each s in R.  Both
    moves lead from flats to flats, and the search reaches every flat:

    (a) R meets every conjugacy class of reflections.  The abelianization
        of a finite reflection group has one Z/2 factor per class: a sign
        character is -1 on the reflections of one class and +1 on all
        others (on a Coxeter generating set it respects the relations,
        since generators joined by an odd bond are conjugate; for complex
        reflections see Stanley, J. Algebra 49, 1977).  A class missed by R
        would make that character trivial on R, hence on w.  So the orbits
        of the H_s are all the reflecting hyperplanes.
    (b) A flat X of codimension k >= 2 lies in some hyperplane, so by (a)
        some conjugate X' of X lies in an H_s.  X' is cut out by k
        hyperplanes with independent normals, H_s among them; the other
        k - 1 meet in a flat Y of codimension k - 1 with X' = Y meet H_s.
        By induction on k the search reaches Y, then X', then X.
    (c) There are at most |w| - 1 proper flats.  The product of the
        reflections in k hyperplanes through X with independent normals (a
        Coxeter element of the parabolic subgroup fixing X; Steinberg 1964,
        Humphreys, *Reflection Groups and Coxeter Groups* 1.12) has fixed
        space exactly X, so distinct flats give distinct elements.  A
        search that grows past DEFAULT_CLOSURE_CAP members therefore raises
        ClosureCapExceeded, as the closure would.

    The facts above hold for finite groups only.  Before the search, every
    s and every product s.t of two members of R must have a trace that is
    an algebraic integer and an order within the closure cap, as in any
    finite group (see _reject_infinite_pairs); otherwise ClosureCapExceeded
    is raised at once.  An infinite group that passes this check and has
    infinitely many flats still stops at the cap.  One that passes it and
    has finitely many flats (an affine Weyl group in its Tits
    representation: its hyperplanes all contain the radical of the form)
    is not detected, and its flats are returned: the route assumes a
    finite group, as the closure-free search cannot count its elements.

    Moves that only repeat earlier ones are skipped.  I - s = v_s f_s^T for
    the normal f_s of H_s (see _reflection_vector), so s^2 = I -
    (2 - f_s . v_s) v_s f_s^T, and s is an involution exactly when f_s . v_s
    = 2.  Then w = s.u gives s.w = u, and w meet H_s = u meet H_s, as s
    fixes H_s pointwise: both moves from (w, s) repeat those from (u, s),
    so the pair (w, s) is marked done when w is made.  A reflection of
    order > 2 is never marked (s.w = s^2.u differs from u).  A skipped move
    reaches only known members, so the members, their order of discovery
    and the cap behaviour are those of the full search.

    The provenance of a member lists the positions, in the canonical order
    of the arrangement's hyperplanes (its members of dimension n - 1), of
    every hyperplane containing it.  It depends on the members alone, and
    is built the first time `provenance` is read (_hyperplane_provenance)."""
    refl = generating_reflections(w)
    if refl is None:
        raise ValueError("group is not generated by its reflections")
    _reject_infinite_pairs(refl)
    n, L = w.ambient_dim, w.conductor
    two = CycNum.rational(L, 2)
    mirrors = []
    for s in refl:
        h = fixed_space(s)
        normal = h.annihilator_rows()[0]
        v = _reflection_vector(s, normal)
        mirrors.append((h, normal, v, _dot(normal, v) == two))
    position = {}
    queue = []
    done = []  # bit i of done[j]: the moves from (queue[j], s_i) repeat others

    def visit(v):
        j = position.get(v.key)
        if j is None:
            if len(queue) >= DEFAULT_CLOSURE_CAP:
                raise ClosureCapExceeded(
                    f"more than {DEFAULT_CLOSURE_CAP} flats: group too large "
                    "or not finite"
                )
            j = position[v.key] = len(queue)
            queue.append(v)
            done.append(0)
        return j

    for h, _, _, _ in mirrors:
        visit(h)
    qi = 0
    while qi < len(queue):
        u = queue[qi]
        for i, (_, normal, v, involution) in enumerate(mirrors):
            if done[qi] >> i & 1:
                continue
            ts = [_dot(normal, row) for row in u.basis]
            if all(t.is_zero() for t in ts):
                continue  # u lies in H_s, so s.u = u = u meet H_s
            rows = [
                row if t.is_zero() else [a - t * b for a, b in zip(row, v)]
                for row, t in zip(u.basis, ts)
            ]
            j = visit(Subspace.from_rows(n, rows, L))
            if involution:
                done[j] |= 1 << i
            visit(_meet_hyperplane(u, ts))
        qi += 1

    order = tuple(sorted(queue, key=lambda u: u.sort_key()))
    return Arrangement(n, L, order, lambda: _hyperplane_provenance(n, order))


def _hyperplane_provenance(n: int, members) -> tuple:
    """For each of the canonically ordered `members` of a reflection
    arrangement in dimension n, the positions among its hyperplanes of
    every hyperplane containing it."""
    hyperplanes = [u for u in members if u.dim == n - 1]
    return tuple({"hyperplanes": _containing(hyperplanes, u)} for u in members)


def arrangement_contains(big: Arrangement, small: Arrangement):
    """Set containment of arrangements; on failure returns one member of
    `small` absent from `big` (largest dimension first, canonical order)."""
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimensions differ")
    L = math.lcm(big.conductor, small.conductor)
    big_keys = big.embed(L).key_set()
    candidates = sorted(
        small.embed(L).subspaces, key=lambda s: (-s.dim,) + s.sort_key()[1:]
    )
    for s in candidates:
        if s.key not in big_keys:
            return False, s
    return True, None


# ---------------------------------------------------------------------------
# the complex-coordinate planes of the wreath arrangement
# ---------------------------------------------------------------------------

def _require_complex_structure(L: int):
    if L % 4 != 0:
        raise ConductorMismatch("need 4 | conductor for the complex structure")


def coordinate_plane_x0(L: int) -> Subspace:
    """{x = 0}: the second complex coordinate plane of C^2 = R^4."""
    _require_complex_structure(L)
    one, zero = CycNum.one(L), CycNum.zero(L)
    return Subspace.from_rows(4, [[zero, zero, one, zero], [zero, zero, zero, one]])


def coordinate_plane_y0(L: int) -> Subspace:
    """{y = 0}: the first complex coordinate plane."""
    _require_complex_structure(L)
    one, zero = CycNum.one(L), CycNum.zero(L)
    return Subspace.from_rows(4, [[one, zero, zero, zero], [zero, one, zero, zero]])


def zeta_plane(L: int, m: int, j: int) -> Subspace:
    """{y = zeta_m^j x} as a real plane in (Re x, Im x, Re y, Im y)."""
    _require_complex_structure(L)
    if L % m != 0:
        raise ConductorMismatch(f"conductor {L} lacks an m-th root (m={m})")
    re, im = real_imag_parts(zeta_power(L, (L // m) * j))
    one, zero = CycNum.one(L), CycNum.zero(L)
    return Subspace.from_rows(4, [[one, zero, re, im], [zero, one, -im, re]])


def wreath_plane_list(L: int, m: int):
    """The planes x=0, y=0, y=zeta^j x of the degree-4 wreath arrangement."""
    planes = [coordinate_plane_x0(L), coordinate_plane_y0(L)]
    planes.extend(zeta_plane(L, m, j) for j in range(m))
    return planes


def complex_coords(u) -> tuple[CycNum, CycNum]:
    """Complex coordinate values (x, y) of a real 4-vector of CycNums."""
    u = list(u)
    if len(u) != 4:
        raise ValueError("need a 4-vector")
    L = u[0].conductor
    _require_complex_structure(L)
    i = zeta_power(L, L // 4)
    return u[0] + i * u[1], u[2] + i * u[3]


# ---------------------------------------------------------------------------
# phase values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhaseValue:
    """The direction of y(u)/x(u) on the unit circle, or undefined.

    The modulus of the ratio is usually irrational, so the value is stored
    as the exact ratio itself and phases are compared exactly: two nonzero
    complex field values share a phase iff z1 * conj(z2) is a positive
    conjugation-fixed number.  When the ratio happens to lie on the unit
    circle (ratio * conj(ratio) = 1) it is itself the phase.
    """

    ratio: CycNum | None

    @property
    def defined(self) -> bool:
        return self.ratio is not None

    def norm_sq(self) -> CycNum:
        if not self.defined:
            raise ValueError("undefined phase")
        return self.ratio * self.ratio.conj()

    def is_unit(self) -> bool:
        return self.defined and self.norm_sq().is_one()

    def unit_value(self) -> CycNum:
        if not self.is_unit():
            raise ValueError("ratio does not lie on the unit circle")
        return self.ratio

    def same_phase(self, other: "PhaseValue") -> bool:
        if not (self.defined and other.defined):
            raise ValueError("undefined phase")
        w = self.ratio * other.ratio.conj()
        if w.conj() != w:
            return False
        return is_positive_real(w)


def phase_ratio(u, m: int | None = None) -> PhaseValue:
    """Phase of y(u)/x(u) for a real vector u in C^2 = R^4; undefined when
    x(u) = 0 or y(u) = 0.  `m` optionally declares the root order the caller
    will compare against, enforcing that the conductor supports it."""
    x, y = complex_coords(u)
    L = u[0].conductor
    if m is not None and L % m != 0:
        raise ConductorMismatch(f"conductor {L} lacks an m-th root (m={m})")
    if x.is_zero() or y.is_zero():
        return PhaseValue(None)
    return PhaseValue(y * x.inv())


# ---------------------------------------------------------------------------
# plane meet counting
# ---------------------------------------------------------------------------

class PlanePreconditionError(ValueError):
    """The plane does not meet both coordinate planes nontrivially."""


def plane_meet_count(p: Subspace, m: int) -> int:
    """How many of the planes {y = zeta_m^j x}, j = 0..m-1, the plane p meets
    nontrivially.  Requires p to be a plane in R^4 meeting {x=0} and {y=0}
    nontrivially."""
    if p.ambient_dim != 4 or p.dim != 2:
        raise PlanePreconditionError("need a plane (dim 2) in R^4")
    L = p.conductor
    if not meets_nontrivially(p, coordinate_plane_x0(L)) or not meets_nontrivially(
        p, coordinate_plane_y0(L)
    ):
        raise PlanePreconditionError(
            "plane must meet both coordinate planes nontrivially"
        )
    count = 0
    for j in range(m):
        if meets_nontrivially(p, zeta_plane(L, m, j)):
            count += 1
    return count


def sample_rational_plane(rng: random.Random, L: int) -> Subspace:
    """A random plane spanned by a nonzero rational v in {y=0} and a nonzero
    rational w in {x=0}; coordinates have numerators/denominators <= 10."""

    def coord():
        return Fraction(rng.randint(-10, 10), rng.randint(1, 10))

    def pair():
        while True:
            a, b = coord(), coord()
            if a != 0 or b != 0:
                return a, b

    a, b = pair()
    c, d = pair()
    zero = CycNum.zero(L)
    v = [CycNum.rational(L, a), CycNum.rational(L, b), zero, zero]
    w = [zero, zero, CycNum.rational(L, c), CycNum.rational(L, d)]
    return Subspace.from_rows(4, [v, w])


# ---------------------------------------------------------------------------
# structural dichotomy for 2+2 reflection groups
# ---------------------------------------------------------------------------

def _coordinate_block_space(L: int, total: int, coords) -> Subspace:
    one, zero = CycNum.one(L), CycNum.zero(L)
    rows = []
    for c in coords:
        row = [zero] * total
        row[c] = one
        rows.append(row)
    return Subspace.from_rows(total, rows, L)


def structural_dichotomy_check(w: MatrixGroup, blocks=((0, 1), (2, 3))):
    """Verify that every plane of the reflection arrangement of w either
    equals one of the two coordinate block planes V1, V2 or meets each of
    them in a line.

    w must be a direct sum of reflection groups acting inside the two
    declared 2-dimensional blocks (degree-1 factors padded into the blocks
    are fine).  Returns (ok, report, arrangement)."""
    n, L = w.ambient_dim, w.conductor
    if n != 4 or tuple(sorted(blocks[0] + blocks[1])) != (0, 1, 2, 3):
        raise ValueError("need two complementary 2-coordinate blocks in R^4")
    b1, b2 = set(blocks[0]), set(blocks[1])
    for g in w.generators:
        moved = set()
        for i in range(4):
            for j in range(4):
                e = g.entry(i, j)
                if (i == j and not e.is_one()) or (i != j and not e.is_zero()):
                    moved.add(i)
                    moved.add(j)
        if not (moved <= b1 or moved <= b2):
            raise ValueError("generators must act inside one declared block")
        if classify(g).tag != "reflection":
            raise ValueError("generators must be reflections")
    v1 = _coordinate_block_space(L, 4, blocks[0])
    v2 = _coordinate_block_space(L, 4, blocks[1])
    arr = reflection_arrangement(w)
    report = []
    ok = True
    for p in arr.members_of_dim(2):
        if p.key == v1.key:
            report.append("V1")
        elif p.key == v2.key:
            report.append("V2")
        else:
            d1 = intersection_dim(p, v1)
            d2 = intersection_dim(p, v2)
            if d1 == 1 and d2 == 1:
                report.append("meets-both")
            else:
                report.append(f"violation(d1={d1},d2={d2})")
                ok = False
    return ok, report, arr


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def arrangement_to_json(arr: Arrangement) -> dict:
    return {
        "ambient": arr.ambient_dim,
        "subspaces": [subspace_to_json(s) for s in arr.subspaces],
        "provenance": list(arr.provenance),
    }
