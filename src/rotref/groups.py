"""Finite matrix groups with exact entries: wreath-type rotation groups,
the real reflection catalog in degree <= 4, realification, breadth-first
closure and element classification.

Groups are stored as generator lists plus a lazily computed, deterministic
element enumeration (breadth-first from the identity, generators applied in
order).  All matrices live over a fixed conductor chosen so that every entry
is exact: rational families use conductor 4, the pentagonal families use
conductor 20 (where sqrt(5) = z5 - z5^2 - z5^3 + z5^4), and dihedral-plane
families I2(k) use lcm(4, k).

The enumeration runs on the images of the elements mod a prime p = 1 (mod
L), and an element's exact matrix is built only when it is read.  Reduction
mod p is injective on a finite group with p-integral entries (Minkowski
1887; Serre, "Bounds for the orders of the finite subgroups of G(k)",
2007), and the projector argument reads dim Fix(g) off the rank of g - I
mod p.  The README's design note "Closing groups mod p" has the proofs and
the exact checks that back them (_Elements).

The catalog is one table, _FACTORS: each family's degree, order, conductor
and generator builder, with I2(k) derived from k.  parse_label is the one
check on a label, and _Elements the one proof of a group's size and
finiteness: a group of unknown order is enumerated when it is made.
"""

from __future__ import annotations

import itertools
import math
import re
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from rotref.cyclo import (
    CONDUCTOR_CAP,
    ConductorMismatch,
    CycNum,
    _mod_image,
    int_from_json,
    real_imag_parts,
    zeta_power,
)
from rotref.linalg import (
    MatrixF,
    Subspace,
    kernel,
    matrix_from_json,
    matrix_to_json,
)

__all__ = [
    "AMBIENT_CAP",
    "DEFAULT_CLOSURE_CAP",
    "ClosureCapExceeded",
    "ElementClass",
    "MatrixGroup",
    "CatalogEntry",
    "closure",
    "gmpn_generators",
    "gmpn_order",
    "realify",
    "realified_gmpn_group",
    "fixed_space",
    "classify",
    "is_rotation_group",
    "generated_by_reflections",
    "generating_reflections",
    "parse_label",
    "catalog_group",
    "direct_sum",
    "pad_trivial",
    "enumerate_degree4_catalog",
    "IRREDUCIBLE_LABELS",
    "BIG_FACTOR_LABELS",
    "group_to_json",
    "group_from_json",
]

DEFAULT_CLOSURE_CAP = 20000

# largest ambient dimension of a JSON group: a group with no generators builds
# its n x n identity, which at n = 30000 exhausts memory
AMBIENT_CAP = 16


class ClosureCapExceeded(RuntimeError):
    """The closure grew past the cap: group too large or not finite at this
    conductor."""


# ---------------------------------------------------------------------------
# groups and closure
# ---------------------------------------------------------------------------

class MatrixGroup:
    """A finite matrix group: generators, plus the full element list in
    deterministic BFS order, enumerated modulo p (_Elements).

    `order` is the group order when theory gives it; the enumeration, run
    on first use, must then reach exactly that many elements.  Without it
    the group is proved finite here: each generator must be invertible
    (_check_generators), and the group is enumerated and confirmed exactly,
    or ClosureCapExceeded is raised."""

    def __init__(self, generators, ambient_dim=None, conductor=None, name=None,
                 order=None):
        generators = tuple(generators)
        if generators:
            ambient_dim = generators[0].rows
            conductor = generators[0].conductor
            for g in generators:
                if g.rows != g.cols or g.rows != ambient_dim:
                    raise ValueError("generators must be square of equal size")
                if g.conductor != conductor:
                    raise ConductorMismatch("generators must share one conductor")
        elif ambient_dim is None or conductor is None:
            raise ValueError("empty generator list needs ambient_dim and conductor")
        self.generators = generators
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self.name = name
        self.known_order = order
        self._elements = None
        if order is None:
            _check_generators(generators)
            self.ensure_elements()

    def ensure_elements(self):
        """The elements as a sequence of exact matrices in BFS order; each
        matrix is built the first time it is read."""
        if self._elements is None:
            self._elements = _Elements(self)
        return self._elements

    @property
    def elements(self):
        return self.ensure_elements()

    @property
    def order(self) -> int:
        return len(self.elements)

    def fixed_dims(self) -> tuple:
        """dim Fix(g) = n - rank(g - I mod p) for every element g, in element
        order: n minus the length of its key (_Elements.fixed_keys).

        Let k be the order of g and P = (1/k)(I + g + ... + g^(k-1)).  P is
        the projector onto Fix(g), so dim Fix(g) = rank P = tr P.  As k
        divides |G|, and |G| <= cap < p, P is p-integral, and its image P' is
        the projector onto ker(g - I mod p): g P' = P', and P' v = v when g
        fixes v mod p.  So dim ker(g - I mod p) = rank P' = tr P' = tr P
        mod p, and both dimensions lie in [0, n] with n < p."""
        return tuple(self.ambient_dim - len(k) for k in self.elements.fixed_keys())

    def element_classes(self) -> tuple:
        """The ElementClass of every element, in element order."""
        n = self.ambient_dim
        return tuple(ElementClass.of_codim(n - d) for d in self.fixed_dims())

    def __repr__(self):
        populated = self._elements is not None
        size = f", order={len(self._elements)}" if populated else ""
        return f"MatrixGroup({self.name!r}, dim={self.ambient_dim}, L={self.conductor}{size})"


def _columns(r: tuple, n: int) -> tuple:
    return tuple(r[j::n] for j in range(n))


def _times(a: tuple, cols: tuple, n: int, p: int) -> tuple:
    """a @ b mod p, for b given by its columns."""
    return tuple(
        sum(map(mul, a[i : i + n], c)) % p for i in range(0, n * n, n) for c in cols
    )


def _residue_bfs(generators, n: int, p: int, cap: int):
    """Breadth-first closure mod p of residue matrices from the identity,
    generators applied in order to each element.  Returns the residues in
    discovery order, their positions, and for each element but the
    identity its (parent position, generator position)."""
    ident = tuple(int(i == j) for i in range(n) for j in range(n))
    cols = [_columns(g, n) for g in generators]
    found = [ident]
    position = {ident: 0}
    parents = [None]
    queue = 0
    while queue < len(found):
        cur = found[queue]
        for s, c in enumerate(cols):
            r = _times(cur, c, n, p)
            if r not in position:
                if len(found) >= cap:
                    raise ClosureCapExceeded(
                        f"closure exceeded cap {cap}: group too large or not finite"
                    )
                position[r] = len(found)
                found.append(r)
                parents.append((queue, s))
        queue += 1
    return found, position, parents


class _Elements(Sequence):
    """The elements of a group, found by one breadth-first search over their
    images mod p and built exactly only when read.

    Reduction mod p (cyclo._ModImage, p = 1 mod L) is injective on every
    finite group with p-integral entries (Minkowski 1887; Serre 2007; see
    the README's design note), so the search meets the same elements in the
    same order as an exact one would.  That is never taken on trust:

    * with an order from theory (group.known_order), the search must reach
      exactly that many elements, or ArithmeticError is raised;
    * without one, every Schreier relation t_i s = t_j, for element t_i,
      generator s and t_j the element with the image of t_i s, is checked
      exactly.  Then the t_i are closed under the generators, so they are
      the whole group, and their images are distinct.  A relation that
      fails shows two distinct elements with one image; reduction is not
      injective, so the group is infinite and ClosureCapExceeded is raised.

    This is the one size guard on a group: a known order above
    DEFAULT_CLOSURE_CAP is refused before any search, and any other search
    stops at that cap (ClosureCapExceeded).

    Element i is its parent times one generator, (parent, generator) =
    parents[i], and its exact matrix costs that one product."""

    def __init__(self, group: MatrixGroup):
        if (group.known_order or 0) > DEFAULT_CLOSURE_CAP:
            raise ClosureCapExceeded(
                f"{group.name or 'the group'} has order {group.known_order}, "
                f"above the closure cap {DEFAULT_CLOSURE_CAP}"
            )
        n, L = group.ambient_dim, group.conductor
        self.img = _mod_image(L)
        self.p = self.img.p
        self.n = n
        self.generators = group.generators
        self._gen_residues = [self.img.residues(g) for g in self.generators]
        self.residues, self.position, self.parents = _residue_bfs(
            self._gen_residues, n, self.p, DEFAULT_CLOSURE_CAP
        )
        self._exact = [None] * len(self.residues)
        self._exact[0] = MatrixF.identity(n, L)
        self._keys = None
        if group.known_order is None:
            self._confirm()
        elif len(self.residues) != group.known_order:
            raise ArithmeticError(
                f"closure mod p found {len(self.residues)} elements, but the "
                f"group has order {group.known_order}"
            )

    def _confirm(self):
        n, p = self.n, self.p
        cols = [_columns(g, n) for g in self._gen_residues]
        for i, r in enumerate(self.residues):
            for s, c in enumerate(cols):
                j = self.position[_times(r, c, n, p)]
                if self.parents[j] == (i, s):
                    continue  # element j is built as this very product
                if self[i] @ self.generators[s] != self[j]:
                    raise ClosureCapExceeded(
                        "group not finite: two distinct elements have one "
                        f"image mod {p}"
                    )

    def __len__(self) -> int:
        return len(self.residues)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[k] for k in range(*i.indices(len(self))))
        exact = self._exact
        if i < 0:
            i += len(exact)
        g = exact[i]
        if g is None:
            path = []
            while exact[i] is None:
                path.append(i)
                i = self.parents[i][0]
            g = exact[i]
            for k in reversed(path):
                g = g @ self.generators[self.parents[k][1]]
                exact[k] = g
        return g

    def fixed_keys(self) -> tuple:
        """For every element g, the F_p RREF (cyclo._ModImage.rref) of the
        rows of g - I mod p: a canonical key of the annihilator of
        ker(g - I mod p)."""
        if self._keys is None:
            n, rref = self.n, self.img.rref
            self._keys = tuple(
                rref([[r[i * n + j] - (i == j) for j in range(n)] for i in range(n)])
                for r in self.residues
            )
        return self._keys


def _null_space(m: MatrixF) -> Subspace:
    """{v : m v = 0} for a square m.  Full rank mod p of the integral
    matrix den * m certifies that this is 0, as det m then reduces to a
    nonzero value (cyclo._ModImage); otherwise the exact kernel decides, as
    a singular image proves nothing."""
    n = m.rows
    img = _mod_image(m.conductor)
    rows = [[img.integral(v) for v in m.nums[i * n : (i + 1) * n]] for i in range(n)]
    if img.rank(rows) == n:
        return Subspace.zero_space(n, m.conductor)
    return kernel(m)


def _check_generators(generators):
    """Each generator of a group of unknown order must be invertible, else
    ValueError "generator i is not invertible": the closure mod p would
    close a finite semigroup as if it were a group."""
    for i, g in enumerate(generators):
        if not _null_space(g).is_zero():
            raise ValueError(f"generator {i} is not invertible")


def closure(generators, name=None) -> MatrixGroup:
    """The group of unknown order that the generators generate, enumerated
    and confirmed exactly when it is made (MatrixGroup)."""
    return MatrixGroup(generators, name=name)


# ---------------------------------------------------------------------------
# classification by fixed spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElementClass:
    tag: str  # identity | reflection | rotation | bireflection_plus
    fix_codim: int

    @staticmethod
    def of_codim(codim: int) -> "ElementClass":
        tags = ("identity", "reflection", "rotation")
        return ElementClass(tags[codim] if codim < 3 else "bireflection_plus", codim)


def fixed_space(g: MatrixF) -> Subspace:
    """The 1-eigenspace of g, the null space of g - I (_null_space), cached
    on g."""
    fs = g._fixed
    if fs is None:
        fs = g._fixed = _null_space(g - MatrixF.identity(g.rows, g.conductor))
    return fs


def classify(g: MatrixF) -> ElementClass:
    return ElementClass.of_codim(g.rows - fixed_space(g).dim)


def _greedy_generated(group: MatrixGroup, candidate_indices):
    """Greedily pick generators from candidate elements until their closure
    stops growing; returns (covers_group, chosen_indices, span), with span
    the residues of the chosen elements' closure.  Reduction mod p is
    injective on the group, so the closures mod p are the exact ones."""
    elems = group.elements
    residues, order = elems.residues, len(elems)
    chosen = []
    span = {residues[0]}
    for idx in candidate_indices:
        if residues[idx] in span:
            continue
        chosen.append(idx)
        span = _residue_bfs(
            [residues[i] for i in chosen], group.ambient_dim, elems.p, order
        )[1]
        if len(span) == order:
            break
    return len(span) == order, chosen, span


def _indices_of(group: MatrixGroup, tag: str) -> list:
    return [i for i, c in enumerate(group.element_classes()) if c.tag == tag]


def is_rotation_group(group: MatrixGroup):
    """Whether the rotations of the group generate it.

    Returns (flag, certificate); the certificate carries a generating set of
    rotations on success or the first unreachable element index on failure.
    The trivial group is not considered a rotation group.
    """
    elems = group.elements
    if len(elems) == 1:
        return False, {"reason": "trivial group", "rotation_generators": []}
    rotations = _indices_of(group, "rotation")
    if not rotations:
        return False, {"reason": "no rotation elements", "rotation_generators": []}
    ok, chosen, span = _greedy_generated(group, rotations)
    if ok:
        return True, {"rotation_generators": chosen, "rotation_count": len(rotations)}
    missing = next(i for i, r in enumerate(elems.residues) if r not in span)
    return False, {
        "rotation_generators": chosen,
        "rotation_count": len(rotations),
        "missing_element_index": missing,
    }


def generating_reflections(group: MatrixGroup):
    """A tuple of reflections that generates the group, or None when the
    reflections of the group do not generate it.

    When every generator is a reflection the generators themselves are
    returned and no closure is computed; otherwise the answer is a subset of
    the reflections among the enumerated elements that generates the group."""
    gens = group.generators
    if gens and all(classify(g).tag == "reflection" for g in gens):
        return gens
    elems = group.elements
    if len(elems) == 1:
        return None
    refl = _indices_of(group, "reflection")
    if not refl:
        return None
    ok, chosen, _ = _greedy_generated(group, refl)
    return tuple(elems[i] for i in chosen) if ok else None


def generated_by_reflections(group: MatrixGroup) -> bool:
    return generating_reflections(group) is not None


# ---------------------------------------------------------------------------
# G(m, p, n) and realification
# ---------------------------------------------------------------------------

def gmpn_order(m: int, p: int, n: int) -> int:
    return m**n * math.factorial(n) // p


def gmpn_generators(m: int, p: int, n: int):
    """Generators of the imprimitive unitary group G(m, p, n): diagonal
    matrices of m-th roots with determinant an (m/p)-th root, plus the
    adjacent transposition matrices.

    Matrices are emitted over conductor lcm(4, m) so that realification can
    be applied directly.
    """
    if m < 1 or n < 1 or p < 1 or m % p != 0:
        raise ValueError("need m, n >= 1 and p | m")
    L = math.lcm(4, m)
    if L > CONDUCTOR_CAP:
        raise ValueError(
            f"G({m},{p},{n}) needs conductor {L}, above the conductor cap {CONDUCTOR_CAP}"
        )
    one, zero = CycNum.one(L), CycNum.zero(L)
    z = zeta_power(L, L // m)  # a primitive m-th root

    def diag(vals):
        return MatrixF.from_rows(
            [[vals[i] if i == j else zero for j in range(n)] for i in range(n)]
        )

    gens = []
    if m > 1 and p < m:
        zp = zeta_power(L, (L // m) * p)
        gens.append(diag([zp] + [one] * (n - 1)))
    if m > 1 and p > 1 and n > 1:
        zinv = zeta_power(L, -(L // m))
        for i in range(n - 1):
            vals = [one] * n
            vals[i] = z
            vals[i + 1] = zinv
            gens.append(diag(vals))
    for i in range(n - 1):
        rows = [[one if (j == k and j not in (i, i + 1)) else zero for k in range(n)]
                for j in range(n)]
        rows[i][i + 1] = one
        rows[i + 1][i] = one
        gens.append(MatrixF.from_rows(rows))
    return gens


def realify(m: MatrixF) -> MatrixF:
    """View a complex n x n matrix as a real 2n x 2n matrix, sending each
    entry a+bi to the block ((a, -b), (b, a)); coordinates are ordered
    (Re x1, Im x1, Re x2, Im x2, ...)."""
    if m.conductor % 4 != 0:
        raise ConductorMismatch("realification needs 4 | conductor")
    n = m.rows
    if m.cols != n:
        raise ValueError("realify needs a square matrix")
    L = m.conductor
    zero = CycNum.zero(L)
    rows = [[zero] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(n):
            a = m.entry(i, j)
            re, im = real_imag_parts(a)
            if re.conj() != re or im.conj() != im:
                raise ArithmeticError("real/imag parts not conjugation-fixed")
            rows[2 * i][2 * j] = re
            rows[2 * i][2 * j + 1] = -im
            rows[2 * i + 1][2 * j] = im
            rows[2 * i + 1][2 * j + 1] = re
    return MatrixF.from_rows(rows)


_WREATH_CACHE: dict[int, MatrixGroup] = {}


def realified_gmpn_group(m: int) -> MatrixGroup:
    """The rotation group of interest: G(m,1,2) realified into O_4.  Its
    order 2m^2 is known, so a group above the closure cap is refused before
    any search (_Elements), and the search must reach exactly that order.

    The group is cached per m within the process (groups are immutable), so
    every caller shares one residue search, one tuple of fixed keys and
    every exact element any of them has read.  A build that raises caches
    nothing."""
    cached = _WREATH_CACHE.get(m)
    if cached is not None:
        return cached
    gens = [realify(g) for g in gmpn_generators(m, 1, 2)]
    grp = MatrixGroup(gens, name=f"G({m},1,2)r", order=gmpn_order(m, 1, 2))
    grp.ensure_elements()
    _WREATH_CACHE[m] = grp
    return grp


# ---------------------------------------------------------------------------
# the degree <= 4 real reflection catalog
# ---------------------------------------------------------------------------

def _reflection_in_root(root, L):
    """Orthogonal reflection fixing the hyperplane perpendicular to root."""
    n = len(root)
    norm = CycNum.zero(L)
    for v in root:
        norm = norm + v * v
    scale = (CycNum.rational(L, 2)) * norm.inv()
    ident = MatrixF.identity(n, L)
    rows = []
    for a in range(n):
        row = []
        for b in range(n):
            e = ident.entry(a, b) - scale * root[a] * root[b]
            row.append(e)
        rows.append(row)
    return MatrixF.from_rows(rows)


def _gens_from_int_roots(roots, L=4):
    out = []
    for root in roots:
        vec = [CycNum.rational(L, Fraction(v)) for v in root]
        out.append(_reflection_in_root(vec, L))
    return out


def _gens_I2(k: int):
    L = math.lcm(4, k)
    c, s = real_imag_parts(zeta_power(L, L // k))  # cos, sin of 2 pi / k
    one, zero = CycNum.one(L), CycNum.zero(L)
    s1 = MatrixF.from_rows([[one, zero], [zero, -one]])
    s2 = MatrixF.from_rows([[c, s], [s, -c]])
    return [s1, s2]


def _gens_A4():
    # S_5 on the sum-zero hyperplane of Q^5, written in an exact orthonormal
    # basis B over Q(sqrt 5): the adjacent transposition (t, t+1) is the
    # reflection in the root e_t - e_{t+1}, whose coordinates are B(e_t - e_{t+1})
    L = 20
    sqrt5 = (
        zeta_power(L, 4) - zeta_power(L, 8) - zeta_power(L, 12) + zeta_power(L, 16)
    )
    half = CycNum.rational(L, Fraction(1, 2))
    w = [
        [1, 1, -1, -1, 0],
        [1, -1, 1, -1, 0],
        [1, -1, -1, 1, 0],
        [1, 1, 1, 1, -4],
    ]
    basis = []
    for idx, vec in enumerate(w):
        if idx < 3:
            basis.append([CycNum.rational(L, v) * half for v in vec])
        else:
            scale = sqrt5 * CycNum.rational(L, Fraction(1, 10))  # 1/(2 sqrt5)
            basis.append([CycNum.rational(L, v) * scale for v in vec])
    return [
        _reflection_in_root([b[t] - b[t + 1] for b in basis], L) for t in range(4)
    ]


def _gens_H(rank: int):
    L = 20
    c, s = real_imag_parts(zeta_power(L, 2))  # cos, sin of pi / 5
    tau = c + c
    tau_inv = tau - CycNum.one(L)
    zero = CycNum.zero(L)
    half = CycNum.rational(L, Fraction(1, 2))
    inv2s = (s + s).inv()
    roots3 = [
        [CycNum.one(L), zero, zero],
        [-c, s, zero],
        [zero, -inv2s, tau_inv * inv2s],
    ]
    if rank == 3:
        roots = roots3
    else:
        roots = [r + [zero] for r in roots3]
        roots.append([zero, zero, -(s * tau), tau_inv * half])
    return [_reflection_in_root(r, L) for r in roots]


# family -> (degree, order, conductor, generator builder), irreducible
# families first; the trivial padding "1" adds a coordinate that every
# generator fixes.  I2(k) is derived from k (_factor).
_FACTORS = {
    "A1": (1, 2, 4, lambda: [_reflection_in_root([CycNum.one(4)], 4)]),
    "A2": (2, 6, 12, lambda: _gens_I2(3)),
    "A3": (3, 24, 4, lambda: _gens_from_int_roots([[1, -1, 0], [0, 1, -1], [0, 1, 1]])),
    "A4": (4, 120, 20, _gens_A4),
    "B2": (2, 8, 4, lambda: _gens_I2(4)),
    "B3": (3, 48, 4, lambda: _gens_from_int_roots([[1, -1, 0], [0, 1, -1], [0, 0, 1]])),
    "B4": (4, 384, 4, lambda: _gens_from_int_roots(
        [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1]]
    )),
    "D4": (4, 192, 4, lambda: _gens_from_int_roots(
        [[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 1, 1]]
    )),
    "F4": (4, 1152, 4, lambda: _gens_from_int_roots(
        [[0, 1, -1, 0], [0, 0, 1, -1], [0, 0, 0, 1], [Fraction(1, 2)] + [Fraction(-1, 2)] * 3]
    )),
    "H3": (3, 120, 20, lambda: _gens_H(3)),
    "H4": (4, 14400, 20, lambda: _gens_H(4)),
    "1": (1, 1, 4, list),
}

IRREDUCIBLE_LABELS = tuple(fam for fam in _FACTORS if fam != "1")

# degree-4 products with an irreducible factor of degree 3 or 4; the
# k-independent finite list used by the counting threshold
BIG_FACTOR_LABELS = (
    "A4", "B4", "D4", "F4", "H4",
    "A3xA1", "B3xA1", "H3xA1",
    "A3x1", "B3x1", "H3x1",
)

_FACTOR_RE = re.compile("|".join(map(re.escape, _FACTORS)) + r"|I2\(([0-9]+)\)")


def _factor(fam: str, k) -> tuple:
    """(degree, order, conductor, generator builder) of one factor."""
    if fam == "I2":
        return 2, 2 * k, math.lcm(4, k), lambda: _gens_I2(k)
    return _FACTORS[fam]


@dataclass(frozen=True)
class CatalogEntry:
    """A structured catalog label: product of irreducible factors plus
    trivial paddings, e.g. 'H3xA1', 'I2(5)xI2(7)', 'B3x1'."""

    factors: tuple  # tuple of (family, k for I2(k) or None)

    @property
    def label(self) -> str:
        return "x".join(f"I2({k})" if fam == "I2" else fam for fam, k in self.factors)

    @property
    def degree(self) -> int:
        return sum(_factor(*f)[0] for f in self.factors)

    @property
    def conductor_required(self) -> int:
        return math.lcm(*(_factor(*f)[2] for f in self.factors))

    @property
    def has_big_factor(self) -> bool:
        return any(_factor(*f)[0] >= 3 for f in self.factors)

    def __str__(self):
        return self.label


def parse_label(label: str) -> CatalogEntry:
    """The entry of a catalog label: factors of _FACTORS or I2(k), k in ASCII
    digits, joined by "x".  This is where every label is checked: an unknown
    factor, k < 2, a degree above 4 or a conductor above CONDUCTOR_CAP raises
    ValueError."""
    factors = []
    for part in label.split("x"):
        m = _FACTOR_RE.fullmatch(part)
        if not m:
            raise ValueError(f"unknown catalog factor {part!r} in {label!r}")
        if m[1] is None:
            factors.append((part, None))
        elif int(m[1]) < 2:
            raise ValueError("I2(k) needs k >= 2")
        else:
            factors.append(("I2", int(m[1])))
    entry = CatalogEntry(tuple(factors))
    if entry.degree > 4:
        raise ValueError(
            f"{label} has degree {entry.degree}; the catalog stops at degree 4"
        )
    if entry.conductor_required > CONDUCTOR_CAP:
        raise ValueError(
            f"{label} needs conductor {entry.conductor_required}, above the "
            f"conductor cap {CONDUCTOR_CAP}"
        )
    return entry


def _block_diagonal(blocks, L: int, name, order) -> MatrixGroup:
    """The group acting on consecutive coordinate blocks, one block per
    (dimension, generators) pair: each generator acts on its own block, as
    the identity elsewhere.  `order` is the group order, when known."""
    total = sum(d for d, _ in blocks)
    one, zero = CycNum.one(L), CycNum.zero(L)
    gens = []
    offset = 0
    for d, block_gens in blocks:
        for g in block_gens:
            g = g.embed(L)
            gens.append(MatrixF.from_rows(
                [
                    g.entry(a - offset, b - offset)
                    if offset <= a < offset + d and offset <= b < offset + d
                    else (one if a == b else zero)
                    for b in range(total)
                ]
                for a in range(total)
            ))
        offset += d
    return MatrixGroup(gens, ambient_dim=total, conductor=L, name=name, order=order)


_CATALOG_CACHE: dict[str, MatrixGroup] = {}


def catalog_group(entry) -> MatrixGroup:
    """Build the standard-position group for a catalog label or entry.

    Its order is the product of the factor orders.  Elements are computed
    lazily; results are cached per label within the process (groups are
    immutable)."""
    if isinstance(entry, str):
        entry = parse_label(entry)
    cached = _CATALOG_CACHE.get(entry.label)
    if cached is not None:
        return cached
    rows = [_factor(*f) for f in entry.factors]
    grp = _block_diagonal(
        [(degree, build()) for degree, _, _, build in rows],
        entry.conductor_required,
        entry.label,
        math.prod(order for _, order, _, _ in rows),
    )
    _CATALOG_CACHE[entry.label] = grp
    return grp


def direct_sum(a: MatrixGroup, b: MatrixGroup) -> MatrixGroup:
    """The product group acting in orthogonal coordinate blocks."""
    name = f"{a.name}x{b.name}" if a.name and b.name else None
    known = a.known_order is not None and b.known_order is not None
    return _block_diagonal(
        [(a.ambient_dim, a.generators), (b.ambient_dim, b.generators)],
        math.lcm(a.conductor, b.conductor),
        name,
        a.known_order * b.known_order if known else None,
    )


def pad_trivial(g: MatrixGroup, extra: int) -> MatrixGroup:
    """Append identity-acted coordinates."""
    if extra < 0:
        raise ValueError("extra must be nonnegative")
    if extra == 0:
        return g
    return _block_diagonal(
        [(g.ambient_dim, g.generators), (extra, ())],
        g.conductor,
        (g.name or "?") + "x1" * extra,
        g.known_order,
    )


def enumerate_degree4_catalog(k_max: int):
    """All standard-position degree-4 reflection groups assembled from the
    shipped irreducibles, with I2(k) instantiated for 2 <= k <= k_max.

    Factor order inside a label: degree-4 factor alone; degree-3 factor then
    its degree-1 slot; I2 pairs with ascending parameters; degree-1 slots
    with A1 before trivial padding.  The enumeration is deterministic.
    Every label is parsed, and so checked, before any group is built: a
    k_max whose I2 pairs need a conductor above CONDUCTOR_CAP (k_max >= 17:
    I2(15)xI2(17) needs 1020) is rejected at its first such label.
    """
    if k_max < 2:
        raise ValueError("k_max must be >= 2")
    ks = range(2, k_max + 1)
    labels = itertools.chain(
        ("A4", "B4", "D4", "F4", "H4", "A3xA1", "A3x1", "B3xA1", "B3x1", "H3xA1", "H3x1"),
        (f"I2({p})xI2({q})" for p in ks for q in ks[p - 2:]),
        (f"I2({k})x{rest}" for k in ks for rest in ("A1xA1", "A1x1", "1x1")),
        ("A1xA1xA1xA1", "A1xA1xA1x1", "A1xA1x1x1", "A1x1x1x1"),
    )
    entries = [parse_label(lbl) for lbl in labels]
    return [catalog_group(e) for e in entries]


# ---------------------------------------------------------------------------
# JSON group files
# ---------------------------------------------------------------------------

def group_to_json(g: MatrixGroup) -> dict:
    return {
        "name": g.name,
        "ambient": g.ambient_dim,
        "conductor": g.conductor,
        "generators": [matrix_to_json(m) for m in g.generators],
    }


def group_from_json(d: dict) -> MatrixGroup:
    """Parse a group file; a missing key, a value of the wrong JSON type or
    an ambient or conductor above its cap (checked first) raises
    ValueError.  The group has no known order, so MatrixGroup enumerates it
    and proves it finite, or raises."""
    try:
        L = int_from_json(d["conductor"])
        n = int_from_json(d["ambient"])
        if not (1 <= n <= AMBIENT_CAP and L <= CONDUCTOR_CAP):
            raise ValueError(f"JSON group needs 1 <= ambient <= {AMBIENT_CAP} and "
                             f"conductor <= {CONDUCTOR_CAP}, not {n} and {L}")
        gens = [matrix_from_json(m).embed(L) for m in d["generators"]]
        name = d.get("name")
        if name is not None and not isinstance(name, str):
            raise TypeError(f"a group name must be a string, not {name!r}")
    except KeyError as exc:
        raise ValueError(f"JSON group lacks the key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"JSON group has a value of the wrong type: {exc}") from None
    if any(m.rows != n or m.cols != n for m in gens):
        raise ValueError(
            f"JSON group declares ambient {n}, but a generator is not {n}x{n}"
        )
    return MatrixGroup(gens, ambient_dim=n, conductor=L, name=name)
