"""Exact linear algebra over Q(zeta_L): matrices, kernels, and canonical
subspaces.

Matrices carry a single shared positive denominator and integer coefficient
vectors per entry, normalized so the matrix-wide content is 1; this makes the
representation canonical and hashable.  Subspaces are stored as
reduced-row-echelon bases with pivots 1 and deterministic leftmost-pivot
selection, so set equality of subspaces is structural equality of their
fields.

Rank and meet each have one route, behind a one-sided modular certificate:
entries are mapped through a ring homomorphism Z[zeta_L] -> F_p for a prime
p = 1 (mod L) (cyclo._ModImage).  A nonzero image certifies a nonzero exact
value, and a full rank mod p certifies the exact rank; a zero image or a
short rank proves nothing, and the exact computation runs.  Containment is
checked exactly; arrangement members decide theirs from their F_p keys
instead (rotref.arrangements).

Everything here is immutable and pure.
"""

from __future__ import annotations

import math
from itertools import chain

from rotref.cyclo import (
    ConductorMismatch,
    CycNum,
    cyc_from_json,
    cyc_to_json,
    int_from_json,
    _content,
    _mod_image,
    _reduce,
    _tables,
    _terms,
)

__all__ = [
    "MatrixF",
    "Subspace",
    "kernel",
    "subspace_intersect",
    "intersection_dim",
    "subspace_sum",
    "subspace_contains",
    "meets_nontrivially",
    "matrix_to_json",
    "matrix_from_json",
    "subspace_to_json",
    "subspace_from_json",
]


class MatrixF:
    """A rows x cols matrix over Q(zeta_L) in canonical shared-denominator
    form; equality and hashing are structural."""

    __slots__ = ("rows", "cols", "conductor", "den", "nums", "_key", "_entries", "_fixed")

    def __init__(self, rows, cols, conductor, den, nums):
        self.rows = rows
        self.cols = cols
        self.conductor = conductor
        self.den = den
        self.nums = nums
        self._key = None
        self._entries = None
        self._fixed = None

    # -- construction ---------------------------------------------------

    @staticmethod
    def _normalized(rows, cols, L, den, nums):
        if den < 0:
            den = -den
            nums = [tuple(-v for v in vec) for vec in nums]
        g = _content(chain.from_iterable(nums), den)
        if g > 1:
            den //= g
            nums = [tuple(v // g for v in vec) for vec in nums]
        return MatrixF(rows, cols, L, den, tuple(nums))

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "MatrixF":
        entries = list(entries)
        if not entries or len(entries) != rows * cols:
            raise ValueError("entry count must equal rows*cols, and be positive")
        L = entries[0].conductor
        for e in entries:
            if e.conductor != L:
                raise ConductorMismatch("matrix entries must share one conductor")
        den = 1
        for e in entries:
            den = den * e.den // math.gcd(den, e.den)
        nums = [tuple(v * (den // e.den) for v in e.num) for e in entries]
        return MatrixF._normalized(rows, cols, L, den, nums)

    @staticmethod
    def from_rows(rows_of_entries) -> "MatrixF":
        rows_of_entries = [list(r) for r in rows_of_entries]
        r = len(rows_of_entries)
        c = len(rows_of_entries[0]) if r else 0
        flat = [e for row in rows_of_entries for e in row]
        return MatrixF.from_entries(r, c, flat)

    @staticmethod
    def identity(n: int, L: int) -> "MatrixF":
        phi = _tables(L).phi
        zero = (0,) * phi
        one = (1,) + (0,) * (phi - 1)
        nums = [one if i == j else zero for i in range(n) for j in range(n)]
        return MatrixF(n, n, L, 1, tuple(nums))

    # -- views ------------------------------------------------------------

    @property
    def key(self):
        k = self._key
        if k is None:
            k = (self.conductor, self.rows, self.cols, self.den, self.nums)
            self._key = k
        return k

    @property
    def entries(self) -> tuple[CycNum, ...]:
        ents = self._entries
        if ents is None:
            L, den = self.conductor, self.den
            ents = tuple(CycNum.make(L, vec, den) for vec in self.nums)
            self._entries = ents
        return ents

    def entry(self, i: int, j: int) -> CycNum:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[CycNum, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def is_identity(self) -> bool:
        return self.rows == self.cols and self == MatrixF.identity(self.rows, self.conductor)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "MatrixF") -> "MatrixF":
        if self.conductor != other.conductor:
            raise ConductorMismatch("matrix conductors differ; embed first")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        t = _tables(self.conductor)
        phi = t.phi
        n, m, p = self.rows, self.cols, other.cols
        a = [_terms(v) for v in self.nums]
        b = [_terms(v) for v in other.nums]
        columns = [b[j::p] for j in range(p)]
        zero = (0,) * phi
        out = []
        for i in range(n):
            arow = a[i * m : (i + 1) * m]
            for col in columns:
                pairs = [(at, bt) for at, bt in zip(arow, col) if at and bt]
                if not pairs:
                    out.append(zero)
                    continue
                acc = [0] * (2 * phi - 1)
                for at, bt in pairs:
                    for s, x in at:
                        for u, y in bt:
                            acc[s + u] += x * y
                _reduce(acc, t)
                out.append(tuple(acc[:phi]))
        return MatrixF._normalized(n, p, self.conductor, self.den * other.den, out)

    def __sub__(self, other: "MatrixF") -> "MatrixF":
        if self.conductor != other.conductor:
            raise ConductorMismatch("matrix conductors differ; embed first")
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("dimension mismatch in matrix subtraction")
        d1, d2 = self.den, other.den
        g = math.gcd(d1, d2)
        m1, m2 = d2 // g, d1 // g
        nums = [
            tuple(x * m1 - y * m2 for x, y in zip(u, v))
            for u, v in zip(self.nums, other.nums)
        ]
        return MatrixF._normalized(self.rows, self.cols, self.conductor, d1 * m1, nums)

    def transpose(self) -> "MatrixF":
        nums = [
            self.nums[i * self.cols + j]
            for j in range(self.cols)
            for i in range(self.rows)
        ]
        return MatrixF(self.cols, self.rows, self.conductor, self.den, tuple(nums))

    def embed(self, L2: int) -> "MatrixF":
        if L2 == self.conductor:
            return self
        return MatrixF.from_entries(
            self.rows, self.cols, [e.embed(L2) for e in self.entries]
        )

    # -- identity ----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatrixF):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"MatrixF({self.rows}x{self.cols}, L={self.conductor})"


# ---------------------------------------------------------------------------
# row-echelon machinery over CycNum rows
# ---------------------------------------------------------------------------

def _rref(rows):
    """Reduced row echelon form of a list of CycNum rows (destructive on the
    list passed in; rows themselves are rebuilt).  Pivot selection is
    leftmost column, then lowest row index.  Returns (rref_rows, pivot_cols)
    with zero rows dropped."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    prow = 0
    for col in range(ncols):
        sel = None
        for r in range(prow, len(rows)):
            if not rows[r][col].is_zero():
                sel = r
                break
        if sel is None:
            continue
        rows[prow], rows[sel] = rows[sel], rows[prow]
        pivot = rows[prow][col]
        if not pivot.is_one():
            inv = pivot.inv()
            rows[prow] = [e * inv for e in rows[prow]]
        for r in range(len(rows)):
            if r != prow:
                f = rows[r][col]
                if not f.is_zero():
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[prow])]
        pivots.append(col)
        prow += 1
        if prow == len(rows):
            break
    return rows[:prow], pivots


class Subspace:
    """A linear subspace of F^n in canonical RREF-basis form.

    The zero subspace has an empty basis and is a first-class value.  Two
    subspaces are equal as sets iff their canonical fields coincide.
    """

    __slots__ = (
        "ambient_dim", "conductor", "basis", "pivot_cols",
        "_key", "_ann", "_mod_basis",
    )

    def __init__(self, ambient_dim, conductor, basis, pivot_cols):
        self.ambient_dim = ambient_dim
        self.conductor = conductor
        self.basis = basis
        self.pivot_cols = pivot_cols
        self._key = None
        self._ann = None
        self._mod_basis = None

    @staticmethod
    def from_rows(ambient_dim: int, rows, conductor: int | None = None) -> "Subspace":
        rows = [list(r) for r in rows]
        if rows:
            conductor = rows[0][0].conductor
            for r in rows:
                if len(r) != ambient_dim:
                    raise ValueError("row length must equal ambient dimension")
        elif conductor is None:
            raise ValueError("zero subspace needs an explicit conductor")
        rref_rows, pivots = _rref(rows)
        return Subspace(
            ambient_dim,
            conductor,
            tuple(tuple(r) for r in rref_rows),
            tuple(pivots),
        )

    @staticmethod
    def full(n: int, L: int) -> "Subspace":
        ident = MatrixF.identity(n, L)
        return Subspace(n, L, tuple(ident.row(i) for i in range(n)), tuple(range(n)))

    @staticmethod
    def zero_space(n: int, L: int) -> "Subspace":
        return Subspace(n, L, (), ())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    @property
    def key(self):
        k = self._key
        if k is None:
            k = (
                self.ambient_dim,
                self.conductor,
                tuple(tuple((e.num, e.den) for e in row) for row in self.basis),
            )
            self._key = k
        return k

    def sort_key(self):
        return (self.dim, self.key[2])

    def embed(self, L2: int) -> "Subspace":
        if L2 == self.conductor:
            return self
        # embedding is an injective field map fixing 0 and 1, so the RREF
        # structure is preserved entrywise
        basis = tuple(tuple(e.embed(L2) for e in row) for row in self.basis)
        return Subspace(self.ambient_dim, L2, basis, self.pivot_cols)

    def annihilator_rows(self):
        """Rows spanning {a : B a = 0}; the subspace is exactly the common
        kernel of these functionals."""
        ann = self._ann
        if ann is None:
            if self.is_zero():
                ident = MatrixF.identity(self.ambient_dim, self.conductor)
                ann = tuple(ident.row(i) for i in range(self.ambient_dim))
            else:
                ann = _kernel_of_rows(
                    list(self.basis), self.ambient_dim, self.conductor
                )
            self._ann = ann
        return ann

    def mod_basis_rows(self) -> tuple:
        """The basis rows, each cleared of denominators and reduced mod p
        (cyclo._ModImage.row)."""
        rows = self._mod_basis
        if rows is None:
            img = _mod_image(self.conductor)
            rows = tuple(img.row(r) for r in self.basis)
            self._mod_basis = rows
        return rows

    def reduce_vector(self, vec):
        """Remainder of vec after elimination against this RREF basis."""
        vec = list(vec)
        for row, col in zip(self.basis, self.pivot_cols):
            f = vec[col]
            if not f.is_zero():
                vec = [a - f * b for a, b in zip(vec, row)]
        return vec

    def contains_vector(self, vec) -> bool:
        return all(e.is_zero() for e in self.reduce_vector(vec))

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim}, L={self.conductor})"


def _kernel_of_rows(rows, ncols, L):
    """Basis rows (not yet canonical) of {v : R v = 0} for CycNum rows R."""
    rref_rows, pivots = _rref(rows)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    zero = CycNum.zero(L)
    one = CycNum.one(L)
    out = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, c in enumerate(pivots):
            vec[c] = -rref_rows[r][f]
        out.append(tuple(vec))
    return tuple(out)


def kernel(m: MatrixF) -> Subspace:
    """Null space {v : m v = 0} as a canonical Subspace."""
    rows = [list(m.row(i)) for i in range(m.rows)]
    vecs = _kernel_of_rows(rows, m.cols, m.conductor)
    return Subspace.from_rows(m.cols, vecs, m.conductor)


def _check_ambient(u: Subspace, v: Subspace):
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimensions differ")
    if u.conductor != v.conductor:
        raise ConductorMismatch("subspace conductors differ; embed first")


def _dot(a, b) -> CycNum:
    acc = None
    for x, y in zip(a, b):
        if not (x.is_zero() or y.is_zero()):
            acc = x * y if acc is None else acc + x * y
    if acc is None:
        return CycNum.zero(a[0].conductor)
    return acc


def _meet_hyperplane(u: Subspace, ts) -> Subspace:
    """Intersection of u with the hyperplane {x : normal . x = 0}, given the
    dots ts[i] = normal . u.basis[i]."""
    pivot = next((idx for idx, t in enumerate(ts) if not t.is_zero()), None)
    if pivot is None:
        return u
    inv = ts[pivot].inv()
    prow = u.basis[pivot]
    rows = []
    for idx, row in enumerate(u.basis):
        if idx == pivot:
            continue
        f = ts[idx] * inv
        if f.is_zero():
            rows.append(list(row))
        else:
            rows.append([a - f * b for a, b in zip(row, prow)])
    return Subspace.from_rows(u.ambient_dim, rows, u.conductor)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """u meet v.  When dim u + dim v <= n and the stacked bases have full
    rank mod p, that is their exact rank (see _rank), so the meet is 0 and
    nothing exact is built.  Otherwise u is cut by the hyperplanes of v's
    annihilator rows one at a time; v is the common kernel of those rows, so
    the last cut is exactly u meet v."""
    _check_ambient(u, v)
    if u.is_full():
        return v
    if v.is_full():
        return u
    d = u.dim + v.dim
    img = _mod_image(u.conductor)
    if u.is_zero() or v.is_zero() or (
        d <= u.ambient_dim
        and img.rank(u.mod_basis_rows() + v.mod_basis_rows()) == d
    ):
        return Subspace.zero_space(u.ambient_dim, u.conductor)
    for normal in v.annihilator_rows():
        u = _meet_hyperplane(u, [_dot(normal, row) for row in u.basis])
    return u


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_rows(
        u.ambient_dim, list(u.basis) + list(v.basis), u.conductor
    )


def subspace_contains(u: Subspace, v: Subspace) -> bool:
    """Whether u contains v as a set: whether each basis row of v reduces
    to zero against u's basis."""
    _check_ambient(u, v)
    if v.dim > u.dim:
        return False
    return all(u.contains_vector(row) for row in v.basis)


def _rank(rows, mod_rows=None) -> int:
    """Rank of a list of CycNum rows.

    First the rank mod p is taken, of the rows cleared of denominators
    (mod_rows, when the caller has them; cyclo._ModImage.row otherwise).
    Each minor of the image is the image of the same minor, so the rank mod
    p is at most the exact rank, and when it equals min(rows, cols) it is
    the exact rank.  Otherwise the rank is that of the exact RREF."""
    if rows and rows[0]:
        img = _mod_image(rows[0][0].conductor)
        if mod_rows is None:
            mod_rows = [img.row(r) for r in rows]
        rank = img.rank(mod_rows)
        if rank == min(len(rows), len(rows[0])):
            return rank
    return len(_rref(rows)[0])


def intersection_dim(u: Subspace, v: Subspace) -> int:
    """dim(u meet v) = dim u + dim v - dim(u + v), with the rank of the
    stacked bases found by _rank; no basis of the meet is built."""
    _check_ambient(u, v)
    return u.dim + v.dim - _rank(
        list(u.basis) + list(v.basis), u.mod_basis_rows() + v.mod_basis_rows()
    )


def meets_nontrivially(u: Subspace, v: Subspace) -> bool:
    _check_ambient(u, v)
    return u.dim + v.dim > u.ambient_dim or intersection_dim(u, v) >= 1


# ---------------------------------------------------------------------------
# JSON encoding
# ---------------------------------------------------------------------------

def matrix_to_json(m: MatrixF) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [cyc_to_json(e) for e in m.entries],
    }


def matrix_from_json(d: dict) -> MatrixF:
    entries = [cyc_from_json(e) for e in d["entries"]]
    return MatrixF.from_entries(
        int_from_json(d["rows"]), int_from_json(d["cols"]), entries
    )


def subspace_to_json(s: Subspace) -> dict:
    return {
        "ambient": s.ambient_dim,
        "basis": [[cyc_to_json(e) for e in row] for row in s.basis],
    }


def subspace_from_json(d: dict, conductor: int | None = None) -> Subspace:
    rows = [[cyc_from_json(e) for e in row] for row in d["basis"]]
    return Subspace.from_rows(int_from_json(d["ambient"]), rows, conductor)
