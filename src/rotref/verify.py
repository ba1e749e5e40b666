"""End-to-end verification of the degree-4 non-containment argument, with
machine-readable certificates.

Claims and their checkers:

* ``lemma-AG``     -- the arrangement of the realified wreath group G(m,1,2)
                      consists of the m+2 planes x=0, y=0, y = zeta^j x plus
                      the origin, all pairwise plane intersections trivial.
* ``rotation``     -- the group is generated by its rotations and contains
                      no reflections.
* ``lemma-plane``  -- seeded random planes through both coordinate planes
                      meet at most one of the zeta-planes.  For even m this
                      claim is FALSE as stated: such a plane can meet one
                      antipodal pair {j, j+m/2} (the direction of y/x on a
                      plane is constant only up to sign).  The checker
                      reports the literal claim faithfully and additionally
                      certifies the corrected bound (at most one antipodal
                      phase class).
* ``dichotomy``    -- every plane of a 2+2 block reflection arrangement is a
                      block plane or meets both block planes in lines.
* ``threshold``    -- explicit plane-count and total-count thresholds beyond
                      which counting alone rules out every reflection group
                      with an irreducible factor of degree 3 or 4.
* ``theorem``      -- the three-part non-containment certificate.

Reports are deterministic given (parameters, seed); the canonical JSON form
omits the volatile runtime field so that repeated runs produce byte-identical
files.
"""

from __future__ import annotations

import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field

from rotref.cyclo import CONDUCTOR_CAP
from rotref.linalg import (
    intersection_dim,
    meets_nontrivially,
    subspace_to_json,
)
from rotref.groups import (
    BIG_FACTOR_LABELS,
    catalog_group,
    enumerate_degree4_catalog,
    is_rotation_group,
    realified_gmpn_group,
)
from rotref.arrangements import (
    Arrangement,
    arrangement_contains,
    isotropy_arrangement,
    reflection_arrangement,
    sample_rational_plane,
    structural_dichotomy_check,
    wreath_plane_list,
    zeta_plane,
)

__all__ = [
    "VerificationReport",
    "ThresholdResult",
    "DIRECT_ARRANGEMENT_M_CAP",
    "verify_lemma_AG",
    "verify_rotation_group",
    "verify_lemma_plane",
    "verify_dichotomy",
    "compute_threshold",
    "verify_threshold",
    "verify_theorem",
    "survey_containments",
    "wreath_arrangement",
    "catalog_arrangement",
]

# largest m that survey computes; theorem certificates cite it as the range
# where the m+2-plane description was recomputed exhaustively
DIRECT_ARRANGEMENT_M_CAP = 12


@dataclass
class VerificationReport:
    """A claim's verdict and certificate, and the lines a person reads: its
    verifier writes a `summary` and the `detail` that explains a failure,
    which the canonical JSON (to_json_dict) leaves out."""

    claim_id: str
    parameters: dict
    verdict: str  # "pass" | "fail"
    certificate: dict
    runtime_ms: int
    summary: tuple = ()
    detail: tuple = ()

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "parameters": self.parameters,
            "verdict": self.verdict,
            "certificate": self.certificate,
        }

    def human_lines(self):
        """The summary, then the verdict line with the runtime, then the
        detail when the claim failed."""
        yield from self.summary
        yield f"[{self.verdict.upper()}] {self.claim_id} {self.parameters} ({self.runtime_ms} ms)"
        if not self.passed:
            yield from self.detail


def _report(claim_id, parameters, verdict, certificate, t0, **lines) -> VerificationReport:
    """The report, timed from t0; `lines` gives its summary and detail."""
    runtime_ms = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(claim_id, parameters, verdict, certificate, runtime_ms, **lines)


# ---------------------------------------------------------------------------
# shared per-process caches (pure recomputable values)
# ---------------------------------------------------------------------------

_WREATH_ARR_CACHE: dict[int, Arrangement] = {}
_CATALOG_ARR_CACHE: dict[str, Arrangement] = {}


def wreath_arrangement(m: int) -> Arrangement:
    if m not in _WREATH_ARR_CACHE:
        _WREATH_ARR_CACHE[m] = isotropy_arrangement(realified_gmpn_group(m))
    return _WREATH_ARR_CACHE[m]


def catalog_arrangement(label: str) -> Arrangement:
    if label not in _CATALOG_ARR_CACHE:
        _CATALOG_ARR_CACHE[label] = reflection_arrangement(catalog_group(label))
    return _CATALOG_ARR_CACHE[label]


# ---------------------------------------------------------------------------
# lemma-AG
# ---------------------------------------------------------------------------

def verify_lemma_AG(m: int) -> VerificationReport:
    """Check that the computed wreath arrangement matches the explicit m+2
    plane description, with pairwise-trivial plane intersections."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    t0 = time.perf_counter()
    arr = wreath_arrangement(m)
    L = arr.conductor
    expected_planes = wreath_plane_list(L, m)
    got_planes = arr.members_of_dim(2)
    planes_match = {p.key for p in got_planes} == {p.key for p in expected_planes}
    counts = arr.dim_counts()
    origin_ok = counts.get(0, 0) == (1 if m >= 2 else 0)
    sizes_ok = counts.get(2, 0) == m + 2 and sum(counts.values()) == (
        m + 3 if m >= 2 else m + 2
    )
    pairwise_trivial = True
    for i, p in enumerate(got_planes):
        for q in got_planes[i + 1 :]:
            if intersection_dim(p, q) != 0:
                pairwise_trivial = False
    ok = planes_match and origin_ok and sizes_ok and pairwise_trivial
    cert = {
        "member_dim_counts": {str(k): v for k, v in sorted(counts.items())},
        "expected_plane_count": m + 2,
        "planes_match_equations": planes_match,
        "pairwise_intersections_trivial": pairwise_trivial,
        "canonical_plane_bases": [subspace_to_json(p) for p in got_planes],
    }
    if m == 1:
        cert["degenerate_note"] = (
            "m=1 leaves only the swap, whose fixed plane y=x is the sole "
            "member; the m+2 description needs m >= 2"
        )
    if not ok:
        cert["computed_members"] = [subspace_to_json(s) for s in arr.subspaces]
    return _report("lemma-AG", {"m": m}, "pass" if ok else "fail", cert, t0)


# ---------------------------------------------------------------------------
# rotation group
# ---------------------------------------------------------------------------

def verify_rotation_group(m: int) -> VerificationReport:
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = time.perf_counter()
    grp = realified_gmpn_group(m)
    ok_rot, cert_rot = is_rotation_group(grp)
    codims = Counter(grp.ambient_dim - d for d in grp.fixed_dims()[1:])
    no_reflections = set(codims) <= {2, 4}
    cert = {
        "order": grp.order,
        "nonidentity_scanned": grp.order - 1,
        "fix_codim_histogram": {str(k): v for k, v in sorted(codims.items())},
        "no_reflections": no_reflections,
        "rotation_certificate": cert_rot,
    }
    verdict = "pass" if (ok_rot and no_reflections) else "fail"
    return _report("rotation", {"m": m}, verdict, cert, t0)


# ---------------------------------------------------------------------------
# lemma-plane
# ---------------------------------------------------------------------------

def verify_lemma_plane(m: int, samples: int, seed: int) -> VerificationReport:
    """Seeded random planes spanned by rational v in {y=0}, w in {x=0}.

    Asserts the literal claim (at most one zeta-plane met).  Samples meeting
    an antipodal pair {j, j + m/2} (possible for even m) are counted as
    witnesses against the literal claim but satisfy the corrected bound,
    which is certified separately.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if samples < 1:
        raise ValueError("samples must be positive")
    L = math.lcm(4, m)
    if L > CONDUCTOR_CAP:
        raise ValueError(
            f"m = {m} needs conductor lcm(4, m) = {L}, above the conductor "
            f"cap {CONDUCTOR_CAP}"
        )
    t0 = time.perf_counter()
    rng = random.Random(seed)
    zeta_planes = [zeta_plane(L, m, j) for j in range(m)]
    histogram = Counter()
    witnesses = []
    corrected_ok = True
    for _ in range(samples):
        p = sample_rational_plane(rng, L)
        met = [j for j, z in enumerate(zeta_planes) if meets_nontrivially(p, z)]
        count = len(met)
        histogram[count] += 1
        if count >= 2:
            if count > 2 or (met[1] - met[0]) % m != m // 2:
                corrected_ok = False
            if len(witnesses) < 5:
                witnesses.append(
                    {"plane": subspace_to_json(p), "met_indices": met}
                )
    ok = max(histogram) <= 1
    cert = {
        "histogram": {str(k): v for k, v in sorted(histogram.items())},
        "samples": samples,
        "seed": seed,
        "corrected_bound": {
            "statement": "at most one antipodal phase class {j, j+m/2}",
            "holds": corrected_ok,
        },
    }
    detail = ()
    if witnesses:
        cert["witnesses"] = witnesses
        cert["note"] = (
            "counts of 2 occur exactly when the sampled ratio is real or "
            "pure imaginary; the literal at-most-one claim fails for even m"
        )
        # witnesses exist exactly when the literal claim fails
        detail = (
            "falsification witnesses (literal at-most-one claim):",
            *(f"  met zeta-plane indices {w['met_indices']}" for w in witnesses),
            "corrected bound (one antipodal phase class): "
            + ("holds" if corrected_ok else "FAILS"),
        )
    return _report(
        "lemma-plane",
        {"m": m, "samples": samples, "seed": seed},
        "pass" if ok else "fail",
        cert,
        t0,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# dichotomy
# ---------------------------------------------------------------------------

def verify_dichotomy(p: int, q: int) -> VerificationReport:
    if p < 2 or q < 2:
        raise ValueError("p, q must be >= 2")
    t0 = time.perf_counter()
    ok, report, _ = structural_dichotomy_check(catalog_group(f"I2({p})xI2({q})"))
    tally = Counter(report)
    cert = {
        "group": f"I2({p})xI2({q})",
        "plane_count": len(report),
        "classification": {k: tally[k] for k in sorted(tally)},
    }
    return _report("dichotomy", {"p": p, "q": q}, "pass" if ok else "fail", cert, t0)


# ---------------------------------------------------------------------------
# threshold
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThresholdResult:
    max_planes_big_factor: int
    max_total_big_factor: int
    m0_planes: int
    m0_total: int
    per_group: dict = field(compare=False)

    def to_json_dict(self) -> dict:
        return {
            "max_planes_big_factor": self.max_planes_big_factor,
            "max_total_big_factor": self.max_total_big_factor,
            "m0_planes": self.m0_planes,
            "m0_total": self.m0_total,
            "per_group": {
                k: dict(v) for k, v in sorted(self.per_group.items())
            },
        }


def compute_threshold() -> ThresholdResult:
    """Plane and total counts of the eleven big-factor degree-4 reflection
    arrangements, and the smallest m whose wreath arrangement outgrows them.

    The wreath arrangement has m+2 planes and m+3 members (m >= 2), both
    invariant under orthogonal change of basis, so the derived m bounds
    apply to every position of a big-factor group."""
    per_group = {}
    for label in BIG_FACTOR_LABELS:
        arr = catalog_arrangement(label)
        per_group[label] = {"planes": arr.dim_counts().get(2, 0), "total": arr.size}
    max_planes = max(v["planes"] for v in per_group.values())
    max_total = max(v["total"] for v in per_group.values())
    return ThresholdResult(
        max_planes_big_factor=max_planes,
        max_total_big_factor=max_total,
        m0_planes=max(2, max_planes - 1),  # least m with m+2 > max_planes
        m0_total=max(2, max_total - 2),    # least m with m+3 > max_total
        per_group=per_group,
    )


def verify_threshold() -> VerificationReport:
    t0 = time.perf_counter()
    res = compute_threshold()
    ok = res.m0_planes <= res.m0_total and res.max_planes_big_factor > 0
    dominant = max(res.per_group, key=lambda k: res.per_group[k]["planes"])
    cert = res.to_json_dict()
    cert["dominant_plane_count_group"] = dominant
    summary = (
        *(f"  {label:8s} planes={row['planes']:4d} total={row['total']:5d}"
          for label, row in sorted(res.per_group.items())),
        f"  m0_planes={res.m0_planes}  m0_total={res.m0_total}",
    )
    return _report("threshold", {}, "pass" if ok else "fail", cert, t0, summary=summary)


# ---------------------------------------------------------------------------
# theorem
# ---------------------------------------------------------------------------

def _real_cos_in_field(m: int, N: int) -> bool:
    """Whether cos(2 pi/m) = Re(zeta_m) lies in Q(zeta_N), decided with
    integers only.

    phi(m) <= 2 exactly when m is 1, 2, 3, 4 or 6, and then the cosine is
    rational.  Otherwise Q(cos 2pi/m) is real, of degree phi(m)/2 > 1 and
    index 2 in Q(zeta_m).  Q(zeta_N) meets Q(zeta_m) in Q(zeta_gcd(m,N)),
    which is Q or not real, so it contains the cosine iff it is the whole
    Q(zeta_m), i.e. iff m | N, or m = 2 mod 4 with m/2 | N."""
    if m in (1, 2, 3, 4, 6) or N % m == 0:
        return True
    return m % 4 == 2 and N % (m // 2) == 0


def _witness_against(label: str, m: int):
    """Part (i) for one group: a member of the wreath arrangement absent
    from the standard-position arrangement of `label`, or None when that
    arrangement contains the wreath arrangement.  The field obstruction
    decides first, the computed arrangements otherwise (see
    verify_theorem)."""
    N = catalog_group(label).conductor
    if not _real_cos_in_field(m, N):
        return {
            "witness_plane": f"y = zeta_{m} x",
            "justification": "field-obstruction",
            "detail": (
                f"canonical basis entries of the plane involve Re(zeta_{m}); "
                f"Q(cos 2pi/{m}) is real, not Q, and of index 2 in "
                f"Q(zeta_{m}), while Q(zeta_{N}) meets Q(zeta_{m}) in "
                f"Q(zeta_gcd({m},{N})) = Q(zeta_{math.gcd(m, N)}), a proper "
                f"subfield that is Q or not real"
            ),
        }
    ok, w = arrangement_contains(catalog_arrangement(label), wreath_arrangement(m))
    if ok:
        return None
    return {
        "witness_dim": w.dim,
        "witness": subspace_to_json(w),
        "justification": "computed-arrangement",
    }


def verify_theorem(m: int) -> VerificationReport:
    """Three-part certificate that the wreath arrangement is contained in no
    degree-4 real reflection arrangement.

    Part (i): direct non-containment against the eleven big-factor groups
    (an irreducible factor of degree 3 or 4) in standard position, by one
    route for every m.  A flat of a group with entries in Q(zeta_N) is a
    meet of hyperplanes defined over Q(zeta_N), so its unique RREF basis has
    entries in Q(zeta_N); the RREF basis of y = zeta_m x has the entry
    cos(2pi/m).  So when cos(2pi/m) lies outside Q(zeta_N) that plane is no
    flat of the group (the field obstruction, _real_cos_in_field).  Only
    otherwise are the computed arrangements compared, and the field allows
    that only at m in {1, 2, 3, 4, 6} for N = 4 and m in {1, 2, 3, 4, 5, 6,
    10, 20} for N = 20, so the largest wreath closure built is G(20,1,2),
    of order 800.
    Part (ii): the counting certificate, applicable when m >= m0_planes,
    which covers every position of the big-factor groups.  Part (iii): every
    other group, all irreducible factors of degree <= 2 and I2(k) for every
    k, in every position, for m >= 3, by a proof that computes nothing:

    Lemma 1 (blocks).  Let W = W1 x W2 act on V1 + V2, each Wi on Vi only,
    in any invertible linear position.  Every plane of A_W is V1, V2 or
    l1 + l2 with li a line of Vi.  Proof: a reflection (s1, s2) fixes
    Fix(s1) + Fix(s2), of codimension the sum of theirs, so one si is 1 and
    the mirror is H1 + V2 or V1 + H2.  A meet of mirrors is X1 + X2 with Xi
    a meet of mirrors of Wi (Vi when there are none), and a plane of that
    form is V1 + 0, 0 + V2 or l1 + l2.  No inner product enters.

    Lemma 2 (meet bound).  A plane P of C^2 = R^4 that meets x = 0 and
    y = 0 is span((a, 0), (0, b)), a, b != 0.  It meets y = cx, c != 0,
    exactly when c is in R.(b/a), so it meets at most one antipodal pair of
    the planes y = zeta^j x.  Proof: s(a, 0) + t(0, b) != 0 lies on y = cx
    iff tb = csa, which forces st != 0 and c = (t/s)(b/a); c = r(b/a) gives
    (s, t) = (1, r).  The unit numbers in R.(b/a) are +-(b/a)/|b/a|.

    Conclusion for m >= 3.  Such a group is a W as in Lemma 1 with
    dim V1 = dim V2 = 2.  Let all m + 2 wreath planes, which meet pairwise
    in 0, be planes of A_W.  If one is V1, the other m + 1 >= 4 are
    transverse to V1, so by Lemma 1 each is V2: impossible.  Likewise for
    V2.  So each is l1 + l2 and meets V1.  Then V1 meets x = 0 and y = 0,
    and by Lemma 2 it meets at most 2 of the m >= 3 planes y = zeta^j x, a
    contradiction.  At m = 2 containments do exist."""
    if m < 2:
        raise ValueError("m must be >= 2")
    t0 = time.perf_counter()
    threshold = compute_threshold()
    labels = BIG_FACTOR_LABELS

    # -- part (i): standard positions --------------------------------------
    payloads = [_witness_against(label, m) for label in labels]
    arrangement_source = {
        "wreath": (
            f"m+2-plane description (recomputed exhaustively for m <= "
            f"{DIRECT_ARRANGEMENT_M_CAP}; each plane is the fixed space of "
            f"an explicit group element)"
        ),
        "catalog": (
            "field obstruction when cos(2pi/m) lies outside the group's "
            "field, else the reflection flat search (reflection_arrangement)"
        ),
    }
    containments = [g for g, p in zip(labels, payloads) if p is None]
    part_i_entries = [
        {"group": g, "containment": True} if p is None else {"group": g, **p}
        for g, p in zip(labels, payloads)
    ]
    part_i_ok = not containments
    part_i = {
        "checked_groups": len(labels),
        "arrangement_source": arrangement_source,
        "witnesses": part_i_entries,
        "containments_found": containments,
        "pass": part_i_ok,
    }

    # -- part (ii): counting certificate ------------------------------------
    applicable = m >= threshold.m0_planes
    part_ii = {
        "applicable": applicable,
        "m0_planes": threshold.m0_planes,
        "max_planes_big_factor": threshold.max_planes_big_factor,
        "wreath_plane_count": m + 2,
        "scope": (
            "every invertible linear change of basis of every degree-4 "
            "reflection group with an irreducible factor of degree 3 or 4 "
            "(an invertible linear map preserves plane counts)"
        ),
    }
    if applicable:
        part_ii["inequality"] = (
            f"{m}+2 = {m + 2} > {threshold.max_planes_big_factor}"
        )
        part_ii_line = "applicable: " + part_ii["inequality"]
    else:
        part_ii_line = part_ii["note"] = "not applicable, m < m0_planes"

    # -- part (iii): structural certificate, proved in the docstring -------
    part_iii = {
        "route": "proof from Lemma 1 (blocks) and Lemma 2 (meet bound)",
        "lemma_1_blocks": (
            "if W = W1 x W2 acts on V1 + V2, each Wi on Vi only, every plane "
            "of A_W is V1, V2 or l1 + l2 with li a line of Vi"
        ),
        "lemma_2_meet_bound": (
            "a plane that meets x = 0 and y = 0 is span((a, 0), (0, b)); it "
            "meets y = cx exactly when c is in R.(b/a), so it meets at most "
            "one antipodal pair of the planes y = zeta^j x"
        ),
        "position": (
            "every invertible linear change of basis: Lemma 1 uses the "
            "decomposition V1 + V2 and no inner product"
        ),
        "bound_for_this_m": 1 if m % 2 == 1 else 2,
        "pairwise_triviality": {
            "verified_exhaustively_for": f"m <= {DIRECT_ARRANGEMENT_M_CAP}",
            "argument": (
                "the planes y = zeta^j x for distinct j mod m intersect "
                "trivially since zeta^j != zeta^k; with x=0 and y=0 all "
                f"{m + 2} members are pairwise transverse"
            ),
        },
        "conclusion": (
            "by Lemma 1 a wreath plane equal to V1 (or V2) would force the "
            "other m+1 >= 4 pairwise-transverse planes all to equal V2 (or "
            "V1), so all m+2 are l1 + l2 and meet V1; V1 then meets both "
            "coordinate planes, so by Lemma 2 it meets at most one antipodal "
            "pair of the m >= 3 planes y = zeta^j x"
        ),
        "applicable": m >= 3,
        "pass": m >= 3,
    }
    if m == 2:
        part_iii["note"] = (
            "for m = 2 the four wreath planes can all meet one plane (for "
            "example the span of e1 and e3), so the structural exclusion "
            "fails; containments do exist at m = 2"
        )

    verdict = "pass" if (part_i_ok and m >= 3) else "fail"
    summary = (
        f"part (i)   direct non-containment: {'pass' if part_i_ok else 'FAIL'} "
        f"({len(labels)} groups)",
        f"part (ii)  counting certificate:   {part_ii_line}",
        f"part (iii) structural certificate: {'pass' if m >= 3 else 'FAIL'}",
    )
    detail = (
        f"containment found in standard position(s): {containments}",
        "the non-containment statement concerns sufficiently large m;",
        "see the threshold subcommand for the explicit bound",
    ) if containments else ()
    cert = {
        "part_i_direct": part_i,
        "part_ii_counting": part_ii,
        "part_iii_structural": part_iii,
        "open_question": (
            "for 3 <= m < m0_planes, big-factor groups in non-standard "
            "positions are not decided by this computation; standard "
            "positions are checked directly"
        ),
    }
    return _report("theorem", {"m": m}, verdict, cert, t0, summary=summary, detail=detail)


# ---------------------------------------------------------------------------
# exploratory survey (unverified listing)
# ---------------------------------------------------------------------------

def survey_containments(m_min: int, m_max: int, k_max: int):
    """For each m, list the standard-position catalog groups whose
    arrangement contains the wreath arrangement.  Exploratory output, not a
    verification: positions beyond the standard ones are not searched."""
    if not (1 <= m_min <= m_max <= DIRECT_ARRANGEMENT_M_CAP):
        raise ValueError(
            f"survey supports 1 <= m_min <= m_max <= {DIRECT_ARRANGEMENT_M_CAP}"
        )
    groups = enumerate_degree4_catalog(k_max)
    out = []
    for m in range(m_min, m_max + 1):
        ag = wreath_arrangement(m)
        containing = [
            g.name for g in groups if arrangement_contains(catalog_arrangement(g.name), ag)[0]
        ]
        out.append({"m": m, "contained_in": containing})
    return out
