"""Fixed-point subspace arrangements, reflection arrangements, and the
plane-geometry checks behind the degree-4 non-containment argument.

The isotropy arrangement of a finite linear group G collects the joint fixed
spaces of its nontrivial isotropy (vector-stabilizer) subgroups.  It is
computed here from the element fixed spaces: those "seed" subspaces are
closed under intersection into the fixed-space lattice, one seed at a time,
and every lattice member belongs to the arrangement.  The closure runs on
the seeds' images over F_p, where a lemma makes reduction a lattice
isomorphism; one exact basis per member is built when the members are
first read (see isotropy_arrangement).  The reflection arrangement's flat
search runs on images mod p (cyclo._ModImage) behind a lemma, which also
gives each flat's dimension; one exact basis per flat is built when the
members are first read (see reflection_arrangement).

Each route's lemma makes reduction mod p preserve containment of members,
so every containment between members is decided from their F_p keys
(_kills).  The provenance of either arrangement, which listed spaces (seeds
or hyperplanes) contain each member, is read from the keys the first time
it is read.  Exact meets go through rotref.linalg.

All outputs are deterministic: members are canonically sorted by dimension
and then by their canonical basis; witnesses are chosen by that order.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import mul

from rotref.cyclo import (
    ConductorMismatch,
    CycNum,
    _mod_image,
    is_positive_real,
    real_imag_parts,
    zeta_power,
)
from rotref.linalg import (
    MatrixF,
    Subspace,
    meets_nontrivially,
    subspace_contains,  # unused here; perfbench's install probe pins this name
    subspace_intersect,
    subspace_to_json,
)
from rotref.groups import (
    DEFAULT_CLOSURE_CAP,
    ClosureCapExceeded,
    MatrixGroup,
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

@dataclass(frozen=True, eq=False)
class Arrangement:
    """A finite set of proper subspaces in canonical order (dimension, then
    canonical basis), with a per-member provenance witness.

    `keys` holds one F_p key per member, in the order the route found them:
    the F_p RREF of a basis of the member's reduction red X, whose length
    is dim X by the route's lemma.  `size` and `dim_counts()` read the keys
    and no subspace.  The exact members are built the first time
    `subspaces` or `provenance` is read: `_build()` gives each member's
    exact basis, in the order of `keys`, and `_witnesses(keys)` the
    provenance of the members with those keys, in canonical order."""

    ambient_dim: int
    conductor: int
    keys: tuple
    _build: Callable = field(repr=False)
    _witnesses: Callable = field(repr=False)

    @cached_property
    def _ranked(self) -> list:
        """(exact basis, F_p key) of each member, in canonical order."""
        return sorted(zip(self._build(), self.keys), key=lambda pair: pair[0].sort_key())

    @cached_property
    def subspaces(self) -> tuple:
        return tuple(u for u, _ in self._ranked)

    @cached_property
    def provenance(self) -> tuple:
        return self._witnesses([key for _, key in self._ranked])

    @property
    def size(self) -> int:
        return len(self.keys)

    def members_of_dim(self, d: int):
        return [s for s in self.subspaces if s.dim == d]

    def dim_counts(self) -> dict:
        return dict(Counter(len(k) for k in self.keys))


def _kernel_mod_p(key, n: int, p: int) -> list:
    """A basis over F_p of the common kernel of the rows of the RREF `key`:
    one vector per free column f, with 1 at f and -row[f] at each pivot."""
    pivots = [row.index(1) for row in key]  # each row's first nonzero is 1
    return [
        [-key[pivots.index(c)][f] % p if c in pivots else int(c == f) for c in range(n)]
        for f in range(n)
        if f not in pivots
    ]


def _kills(rows, vectors, p: int) -> bool:
    """Whether every row of `rows` kills every vector of `vectors` mod p:
    whether the span of `vectors` lies in the common kernel of `rows`."""
    return not any(sum(map(mul, a, v)) % p for a in rows for v in vectors)


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

    The lattice is closed over F_p (cyclo._ModImage, p = 1 mod L), by this
    lemma (README, "Isotropy lattice mod p").  G has p-integral entries
    (the residue map refuses a denominator divisible by p), reduction mod p
    is injective on G (_Elements confirms it), and |G| <= cap < p.  For a
    subgroup H <= G, pi_H = (1/|H|) sum(h, h in H) is the projector onto
    Fix(H); it is p-integral and reduces to the projector onto Fix(H-bar),
    and rank equals trace on both sides, each less than p, so dim Fix(H) =
    dim Fix(H-bar).  Fix(S) = Fix(<S>) for any subset S; write U-bar for
    Fix(S-bar), the common kernel of the residues, for a member U = Fix(S).
    Then U meet U' = Fix(S + S') gives (U meet U')-bar = U-bar meet U'-bar,
    with dim U-bar = dim U, so U-bar = U'-bar only when U = U' (else the
    meet would have the dimension of both), and U contains U' exactly when
    U-bar contains U'-bar (both say that the meet is U').  So U -> U-bar is
    a lattice isomorphism: it decides equality, containment and meets of
    members exactly.  It is a theorem, not a filter; no member is
    confirmed exactly.

    The closure keys each member U-bar by the F_p RREF of rows spanning its
    annihilator: a seed by the rows of g - I mod p (_Elements.fixed_keys),
    a meet by the RREF of its two parents' stacked keys.  s contains u when
    every row of s's key kills the F_p basis read off u's key
    (_kernel_mod_p, _kills).

    The closure adds one seed at a time.  If M is closed under meets, so is
    M + {s} + {s meet u : u in M}, since (s meet u) meet v = s meet (u meet
    v).  A seed already in M adds nothing, and s meet u = u, already in M,
    when s contains u.  Seeds are taken in order of decreasing dimension, so
    most of the smaller ones are already meets of larger ones when their
    turn comes.  Each new member records how it was found: as the seed of
    element i (the smallest index with that key), or as the meet of members
    a and b.

    The arrangement's key of a member is the F_p RREF of that basis of
    U-bar, whose length is dim U, so `size` and `dim_counts()` come from
    the closure alone.  The exact bases are built the first time
    `subspaces` is read, once per member in discovery order: a seed's is
    fixed_space(g_i), a meet's the subspace_intersect of its two exact
    parents.  The route uses no reflection, so it stays an oracle for
    reflection_arrangement.

    The provenance of a member lists one fixing element per seed containing
    it; the common fixed space of those elements is the member itself.  It
    is read mod p the first time `provenance` is read: a seed is listed
    when its key is the member's closure key, or when it has the larger
    dimension and its key rows kill the member's stored basis.  (A seed of
    the member's dimension contains it only when it is the member; the key
    comparison decides those seeds with no product.)
    """
    n, L = group.ambient_dim, group.conductor
    elems = group.elements
    p = elems.p
    seeds = {}  # F_p key -> smallest element index, in increasing index
    for i, key in enumerate(elems.fixed_keys()[1:], 1):
        seeds.setdefault(key, i)
    members = {}  # F_p key -> how it was found, in discovery order
    for s, i in sorted(seeds.items(), key=lambda seed: len(seed[0])):
        if s not in members:
            a = len(members)
            new = [(elems.img.rref(u + s), (a, b)) for b, u in enumerate(members)]
            for key, move in [(s, (None, i))] + new:
                members.setdefault(key, move)

    def build():
        exact = []
        for a, b in members.values():
            exact.append(
                fixed_space(elems[b]) if a is None else subspace_intersect(exact[a], exact[b])
            )
        return exact

    def provenance(canonical):
        annihilator = dict(zip(keys, members))
        return tuple(
            {"fixing_elements": [
                i for s, i in seeds.items()
                if s == key or len(s) < len(key) and _kills(s, basis, p)
            ]}
            for basis, key in zip(canonical, map(annihilator.get, canonical))
        )

    keys = tuple(elems.img.rref(_kernel_mod_p(key, n, p)) for key in members)
    return Arrangement(n, L, keys, build, provenance)


def reflection_arrangement(w: MatrixGroup) -> Arrangement:
    """The flats of a reflection group: its reflecting hyperplanes and all
    their intersections, the full space excluded.

    One breadth-first search over flats, with no group closure, run on their
    images mod p (_flat_moves); an exact basis is built once per flat, the
    first time the members are read.
    Let R be a set of reflections generating w (its generators when they
    all are reflections, else a generating subset of the reflections among
    its elements).  The search starts from the hyperplanes H_s, s in R, and
    from a member u makes the flats s.u and u meet H_s for each s in R.
    Both moves lead from flats to flats, and the search reaches every flat:

    (1) R meets every conjugacy class of reflections.  The abelianization
        of a finite reflection group has one Z/2 factor per class: a sign
        character is -1 on the reflections of one class and +1 on all
        others (on a Coxeter generating set it respects the relations,
        since generators joined by an odd bond are conjugate; for complex
        reflections see Stanley, J. Algebra 49, 1977).  A class missed by R
        would make that character trivial on R, hence on w.  So the orbits
        of the H_s are all the reflecting hyperplanes.
    (2) A flat X of codimension k >= 2 lies in some hyperplane, so by (1)
        some conjugate X' of X lies in an H_s.  X' is cut out by k
        hyperplanes with independent normals, H_s among them; the other
        k - 1 meet in a flat Y of codimension k - 1 with X' = Y meet H_s.
        By induction on k the search reaches Y, then X', then X.
    (3) There are at most |w| - 1 proper flats.  The product of the
        reflections in k hyperplanes through X with independent normals (a
        Coxeter element of the parabolic subgroup fixing X; Steinberg 1964,
        Humphreys, *Reflection Groups and Coxeter Groups* 1.12) has fixed
        space exactly X, so distinct flats give distinct elements.  A
        search that grows past DEFAULT_CLOSURE_CAP members therefore raises
        ClosureCapExceeded, as the closure would.

    Flats mod p (README, design notes).  W = w is finite and generated by
    R, and p = 1 (mod L) is the prime of cyclo._ModImage, whose kernel is a
    prime P above p with local ring O_P.  p must not divide a denominator
    of R: the residue map (cyclo._ModImage.residues) raises ValueError for
    such a reflection, as the closure does.  Write red(U) for the image of
    U meet O_P^n in F_p^n; it is the F_p-span of the reduced rows of any
    P-integral basis of U whose reduction has full rank.

    (a) W lies in GL_n(O_P), and p does not divide |W|: an element of order
        p would have the eigenvalue zeta_p, whose degree over Q(zeta_L) is
        p - 1 > n.
    (b) For H <= W, pi_H = (1/|H|) sum(h, h in H) maps O_P^n onto
        Fix(H) meet O_P^n and reduces to the projector onto Fix(H-bar).
        Its rank equals its trace, which is at most n < p, so red(Fix H) =
        Fix(H-bar).
    (c) A flat X is the meet of the mirrors that contain it, so X =
        Fix(H_X) for the group H_X they generate, and X meet Y =
        Fix(<H_X, H_Y>).  Hence red(X meet Y) = red X meet red Y and
        red(s.X) = s-bar.red X.  Also X != Y implies red X != red Y: else
        red(X meet Y) = red X, so X meet Y has the dimension of X and of Y.
        So X contains Y exactly when red X contains red Y (both say X meet Y = Y).

    So the search over F_p visits exactly the reductions of the exact flats,
    in the same order: it starts from the mirrors ker(s-bar - I), makes
    s-bar.u and u meet H_s-bar from a flat u, skips a pair when u lies in
    H_s-bar (exactly when the exact flat lies in H_s), and keys each flat
    by its canonical F_p RREF.  Only the mirrors' keys come from an
    elimination; every other key is built in RREF by construction, from
    its parent's key by the cut/turn lemma (_flat_moves; README, "Flats
    mod p").  Its members, their order of discovery, the
    cap behaviour and the involution marks below are those of the exact
    search.  By (b), the dimension of each flat is the length of its key;
    the search's keys are the arrangement's keys, so `size`,
    `dim_counts()` and structural_dichotomy_check come from the search
    alone.  The exact bases are built the first time `subspaces` is read
    (_exact_flats): in discovery order, each by applying the one move that
    found it exactly to its parent's basis, with linalg's public
    operations: fixed_space(s) for a mirror, the rows of B @ s^T for s.u,
    with B the basis rows of u, and subspace_intersect(u, H_s) for u meet
    H_s.  On H4 that is 2098 exact RREFs, one per member but the 4 mirrors
    and the origin, which is cut from a line and certified 0 mod p.  An
    over-cap group raises before anything is returned.

    The facts above hold for finite groups only.  w is one: a group of
    unknown order is enumerated and proved finite when it is made
    (groups.MatrixGroup).

    Moves that only repeat earlier ones are skipped.  I - s-bar = v f^T
    for a normal f of H_s-bar (see _mirror_mod_p), so s-bar^2 = I -
    (2 - f . v) v f^T, and s-bar is an involution exactly when f . v = 2
    (exactly when s is, as reduction is injective on the finite group
    <s>; see groups).  Then w = s.u gives s.w = u, and w meet H_s =
    u meet H_s, as s fixes H_s pointwise: both moves from (w, s) repeat
    those from (u, s), so the pair (w, s) is marked done when w is made.  A
    reflection of order > 2 is never marked (s.w = s^2.u differs from u).
    A skipped move reaches only known members, so the members, their order
    of discovery and the cap behaviour are those of the full search.

    The provenance of a member lists the positions, in the canonical order
    of the arrangement's hyperplanes (its members of dimension n - 1), of
    every hyperplane containing it, read off the F_p keys the first time
    `provenance` is read: by (c), H contains X exactly when the normal of
    red H, the kernel of its key (_kernel_mod_p), kills X's key."""
    refl = generating_reflections(w)
    if refl is None:
        raise ValueError("group is not generated by its reflections")
    n, L = w.ambient_dim, w.conductor
    img = _mod_image(L)
    moves, keys = _flat_moves(refl, img)

    def provenance(canonical):
        normals = [_kernel_mod_p(key, n, img.p) for key in canonical if len(key) == n - 1]
        return tuple(
            {"hyperplanes": [j for j, h in enumerate(normals) if _kills(h, key, img.p)]}
            for key in canonical
        )

    return Arrangement(n, L, tuple(keys), lambda: _exact_flats(n, refl, moves), provenance)


def _exact_flats(n: int, refl, moves) -> list:
    """The exact flats of reflection_arrangement in discovery order, each
    built from its parent by the one move of `moves` that found it: the
    mirror of s is fixed_space(s), which is cached on s; the turn s.u is the
    RREF of the rows of B @ s^T, one product, with B the basis rows of u
    (never empty: no move leaves a flat inside H_s, so the zero flat has no
    turn); the cut u meet H_s is subspace_intersect(u, H_s), one hyperplane
    cut, or no exact work when u is a line, whose meet with H_s is 0 by its
    mod-p certificate."""
    mirrors = [fixed_space(s) for s in refl]
    transposes = [s.transpose() for s in refl]
    flats = []
    for j, i, turn in moves:
        if j is None:
            flats.append(mirrors[i])
        elif turn:
            moved = MatrixF.from_rows(flats[j].basis) @ transposes[i]
            flats.append(Subspace.from_rows(n, map(moved.row, range(moved.rows))))
        else:
            flats.append(subspace_intersect(flats[j], mirrors[i]))
    return flats


def _mirror_mod_p(img, s: MatrixF):
    """The mirror of the reflection s mod p, as (key, f, v, involution).

    I - s-bar has rank 1 by (b) of reflection_arrangement for the group
    <s>, so I - s-bar = v f^T, with f its first nonzero row scaled to a
    leading 1 at column c, v column c, and s-bar.x = x - (f . x) v.  The
    mirror {x : f . x = 0} is the kernel of f, keyed by its F_p RREF."""
    n, p = s.rows, img.p
    r = img.residues(s)
    d = [[(int(i == j) - r[i * n + j]) % p for j in range(n)] for i in range(n)]
    normal = img.rref([next(row for row in d if any(row))])
    f = normal[0]
    v = [row[f.index(1)] for row in d]
    return img.rref(_kernel_mod_p(normal, n, p)), f, v, sum(map(mul, f, v)) % p == 2


def _flat_moves(refl, img) -> tuple:
    """The breadth-first flat search of reflection_arrangement, run on
    images mod p, each flat keyed by its F_p RREF.  Returns two lists over
    the flats in order of discovery: the move that found each, (None, i,
    False) for the mirror of refl[i], else (j, i, turn) for refl[i].u (turn)
    or u meet H_i (not turn), with u the j-th flat; and the key of each,
    whose length is the flat's dimension by (b).

    Only the mirrors' keys are eliminated (_mirror_mod_p).  Every other key
    is built in RREF by construction, from its parent's key, by the
    cut/turn lemma (README, "Flats mod p").  Let u have RREF rows r_0, ...,
    r_{d-1} with pivots c_0 < ... < c_{d-1}, let t_m = f . r_m, and let k
    be the last m with t_m != 0.  The cut rows r_m - (t_m/t_k) r_k, m != k, are the RREF
    of u meet H_s: each lies in u and is killed by f, they are d - 1
    independent rows, and r_k has zeros at the other pivots and its leading
    1 at c_k > c_m for every m with t_m != 0, so each keeps its leading 1
    at c_m and zeros at the other kept pivots (rows after k are unchanged).
    As s.x = x - (f . x) v, s.r_m - (t_m/t_k) s.r_k is that same cut row,
    so s.u is the cut plus the row w = s.r_k = r_k - t_k v, which lies
    outside the cut as s.u has dimension d.  Reduced at the cut's pivots
    and scaled to a leading 1 at column c, w clears column c from the cut
    rows (which changes no column left of c, nor any pivot column) and is
    inserted by its pivot.  The RREF is unique, so these are the keys that
    eliminating the stacked rows would give."""
    p = img.p
    mirrors = [_mirror_mod_p(img, s) for s in refl]
    position = {}
    flats = []
    moves = []
    done = []  # bit i of done[j]: the moves from (flats[j], s_i) repeat others

    def visit(key, move):
        j = position.get(key)
        if j is None:
            if len(flats) >= DEFAULT_CLOSURE_CAP:
                raise ClosureCapExceeded(
                    f"more than {DEFAULT_CLOSURE_CAP} flats: group too large "
                    "or not finite"
                )
            j = position[key] = len(flats)
            flats.append(key)
            moves.append(move)
            done.append(0)
        return j

    for i, (h, _, _, _) in enumerate(mirrors):
        visit(h, (None, i, False))
    qi = 0
    while qi < len(flats):
        u = flats[qi]
        pivots = [row.index(1) for row in u]  # each row's first nonzero is 1
        for i, (_, f, v, involution) in enumerate(mirrors):
            if done[qi] >> i & 1:
                continue
            ts = [sum(map(mul, f, row)) % p for row in u]
            for k in range(len(u) - 1, -1, -1):
                if ts[k]:
                    break
            else:
                continue  # u lies in H_s, so s.u = u = u meet H_s
            rk, tk = u[k], ts[k]
            cut = list(u)  # the cut u meet H_s: rows after k stay as they are
            del cut[k]
            if any(ts[:k]):
                inv = pow(tk, -1, p)
                for m, t in enumerate(ts[:k]):
                    if t:
                        c = t * inv % p
                        cut[m] = tuple([(a - c * b) % p for a, b in zip(cut[m], rk)])
            kept = pivots[:k] + pivots[k + 1:]
            w = [(a - tk * b) % p for a, b in zip(rk, v)]  # the turn s.u: cut + <s.r_k>
            for row, c in zip(cut, kept):
                if x := w[c]:
                    w = [(a - x * b) % p for a, b in zip(w, row)]
            col = next(c for c, a in enumerate(w) if a)
            x = pow(w[col], -1, p)
            w = tuple([a * x % p for a in w])
            turned = [
                tuple([(a - y * b) % p for a, b in zip(row, w)]) if (y := row[col]) else row
                for row in cut
            ]
            turned.insert(bisect(kept, col), w)
            j = visit(tuple(turned), (qi, i, True))
            if involution:
                done[j] |= 1 << i
            visit(tuple(cut), (qi, i, False))
        qi += 1
    return moves, flats


def arrangement_contains(big: Arrangement, small: Arrangement):
    """Set containment of arrangements; on failure returns one member of
    `small` absent from `big` (largest dimension first, canonical order)."""
    if big.ambient_dim != small.ambient_dim:
        raise ValueError("ambient dimensions differ")
    L = math.lcm(big.conductor, small.conductor)
    big_keys = {s.embed(L).key for s in big.subspaces}
    candidates = sorted(
        (s.embed(L) for s in small.subspaces), key=lambda s: (-s.dim,) + s.sort_key()[1:]
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


def _block_rank(basis, cols) -> int:
    """Rank of the 2x2 block of a two-row basis in the columns `cols`: 0 when
    its four entries are zero, 2 when its determinant is nonzero, else 1."""
    (a, b), (c, d) = ([row[j] for j in cols] for row in basis)
    if all(e.is_zero() for e in (a, b, c, d)):
        return 0
    return 1 if (a * d - b * c).is_zero() else 2


def plane_meet_count(p: Subspace, m: int) -> int:
    """How many of the planes {y = zeta_m^j x}, j = 0..m-1, the plane p meets
    nontrivially.  Requires p to be a plane in R^4 meeting {x=0} and {y=0}
    nontrivially.  For its basis B (2 x 4, of rank 2), c B lies in {x = 0}
    exactly when c B[:, (0, 1)] = 0, so p meets {x = 0} exactly when
    rank B[:, (0, 1)] <= 1, and {y = 0} exactly when rank B[:, (2, 3)] <= 1
    (_block_rank)."""
    if p.ambient_dim != 4 or p.dim != 2:
        raise PlanePreconditionError("need a plane (dim 2) in R^4")
    L = p.conductor
    _require_complex_structure(L)
    if _block_rank(p.basis, (0, 1)) == 2 or _block_rank(p.basis, (2, 3)) == 2:
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

def structural_dichotomy_check(w: MatrixGroup):
    """Verify that every plane of the reflection arrangement of w either
    equals one of the two coordinate block planes V1 = span(e0, e1), V2 =
    span(e2, e3) or meets each of them in a line.

    Contract: every generator of w acts inside the block of coordinates
    (0, 1) or inside (2, 3) (degree-1 factors padded into the blocks are
    fine), else ValueError; w must be generated by reflections, which
    reflection_arrangement checks, but its generators need not be
    reflections.  So W = W1 x W2, with W_i acting inside V_i.

    Each meet is read from the plane's F_p key K (2 x 4, the RREF of a
    basis of red X; reflection_arrangement) by lemma (d), which extends
    (a)-(c) of reflection_arrangement:

    (d) dim(X meet V1) = 2 - rank_p K[:, (2, 3)] and dim(X meet V2) =
        2 - rank_p K[:, (0, 1)] for every flat X.  By (c), X = Fix(H) for
        some H <= W.  Let H1 <= W1 be the projection of H onto the first
        block; then H1 x 1 <= W.  For x in V1, h.x = h1.x, so Fix(H1 x 1)
        = (X meet V1) + V2, and mod p Fix(H1-bar x 1) = (red X meet
        F_p V1) + F_p V2.  (b) for H1 x 1 gives dim(X meet V1) =
        dim(red X meet F_p V1), and c K lies in F_p V1 exactly when
        c K[:, (2, 3)] = 0.  The same holds for V2.  Neither block plane
        has to be a flat (in A1x1xI2(5), V2 is not one).

    X = V1 exactly when dim(X meet V1) = 2.  No exact flat is built.  The
    report lists one entry per plane, in the order the search found the
    planes.  Returns (ok, report, arrangement)."""
    if w.ambient_dim != 4:
        raise ValueError("need a group acting on R^4")
    for g in w.generators:
        moved = set()
        for i in range(4):
            for j in range(4):
                e = g.entry(i, j)
                if (i == j and not e.is_one()) or (i != j and not e.is_zero()):
                    moved.add(i)
                    moved.add(j)
        if not (moved <= {0, 1} or moved <= {2, 3}):
            raise ValueError("generators must act inside one coordinate block")
    arr = reflection_arrangement(w)
    rank = _mod_image(arr.conductor).rank
    report = []
    ok = True
    for key in arr.keys:
        if len(key) != 2:
            continue
        d1 = 2 - rank([row[2:] for row in key])
        d2 = 2 - rank([row[:2] for row in key])
        if d1 == 2:
            report.append("V1")
        elif d2 == 2:
            report.append("V2")
        elif d1 == 1 and d2 == 1:
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
