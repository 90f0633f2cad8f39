"""Decision procedure for period-length behavior of recurrence sequences over K.

Given a sequence A over K = Q(sqrt(d)), the procedure inspects the minimal
characteristic polynomials of D_n = A_n - conj(A_n) and S_n = A_n + conj(A_n)
and emits one of:

* ClassA           -- D vanishes identically (A is rational);
* ClassB_b         -- D_n = (+-1)^n * beta for an irrational beta, S unital;
* ClassC_c         -- D's polynomial is unital Pisot and S's factors carry the
                      matching integrality flags ("possibly bounded");
* ProvenUnbounded  -- with a step tag B.1-B.4 / C.1-C.6 naming the exact
                      violated condition and machine-checkable evidence;
* DegenerateInput  -- the sequence was split into arithmetic subsequences
                      first, each classified recursively.

Degenerate inputs are detected over Q (ratios range over field conjugates of
the roots) so that the splitting also repairs conjugate-pair ratios.

Steps B.1-C.6 read one table of the factors of P_D (over K) and P_S (over Q):
multiplicity, whether conjugation fixes it, circle profile, integrality flags.
Over Q the table is read from primitive integer forms (polyalg's one form
over Q): P_S and P_D are each converted once, their factors and the
integrality flags of C.4-C.6 come from factor_q's forms, and a Q-factor is
read as a monic rational KPoly only for its circle profile and the printed
report.  A conjugation-fixed factor of P_D is such a KPoly too, so it
shares its profile with an equal P_S factor.
The paper's C.2 (a moved factor with a root on the circle) is implied by C.1:
such a factor pi is not linear (+-1 is rational, so fixed), so its roots z
and 1/z (= complex conjugate) make it self-reciprocal, and so is conj(pi),
whose roots pair up as w, 1/w and cannot all lie inside.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import memo
from .errors import DegreeTooLarge, InternalInvariantError
from .kpoly import KPoly
from .polyalg import (
    CircleProfile,
    _monic_from_ints,
    _over_q,
    _profile_irreducible,
    _zz_exact_div,
    factor_k,
    factor_q,
    root_integrality_flags,
)
from .qfield import QuadElem
from .recurrence import (
    LinRec,
    ZeroSequence,
    diff_sum_parts,
    seq_min_charpoly,
    split_degenerate,
)

# the classify budget: P_D is factored over K and P_S over Q up to these degrees
FACTOR_K_MAX_DEGREE = 12
FACTOR_Q_MAX_DEGREE = 24


@dataclass(frozen=True)
class EvidenceReport:
    """Everything the verdict cites; factor/divisibility claims re-verified."""

    p_a_min: object = None          # KPoly | ZeroSequence | None
    p_d: object = None              # KPoly | ZeroSequence | None
    p_s: object = None              # rational KPoly | ZeroSequence | None
    conj_fixed: object = None       # conj-fixed part of P_D
    conj_moved: object = None
    fixed_profile: object = None    # CircleProfile of the conj-fixed part
    moved_factors: tuple = ()       # (pi, mult, profile(pi), profile(conj pi))
    s_factors: tuple = ()           # (q, mult, profile, integrality flags)
    s_unital: object = None         # every root of P_S a unit
    notes: tuple = ()

    def __post_init__(self):
        if isinstance(self.p_d, KPoly):
            if isinstance(self.conj_fixed, KPoly) and isinstance(self.conj_moved, KPoly):
                if self.conj_fixed * self.conj_moved != self.p_d:
                    raise InternalInvariantError("P_D decomposition does not multiply back")
            for pi, mult, _pr, _pc in self.moved_factors:
                if not (self.p_d % pi ** mult).is_zero:
                    raise InternalInvariantError(f"cited factor {pi} does not divide P_D")


@dataclass(frozen=True)
class Classification:
    verdict: str                    # ClassA | ClassB_b | ClassC_c | ProvenUnbounded | DegenerateInput
    step: str | None = None
    evidence: EvidenceReport | None = None
    beta: QuadElem | None = None    # ClassB_b: D_0
    sign: int | None = None         # ClassB_b: +1 / -1
    split_modulus: int | None = None        # DegenerateInput: d
    subresults: tuple = ()          # DegenerateInput: ((j, Classification), ...)


def _s_rows(p_s, p_a: KPoly) -> tuple:
    """(q, mult, profile, integrality flags) for each factor of P_S over Q.

    S_n = A_n + conj(A_n) is an exponential polynomial over the roots of P_A
    and conj(P_A), so P_S divides the pool N = P_A * conj(P_A) (P_A itself
    when it is rational) of the over-Q degeneracy test the input has passed:
    S is non-degenerate as well.  The division is checked exactly, on the
    primitive integer forms (Gauss's lemma).  Each factor is read over Q
    as its form; its row holds the monic rational KPoly q that its profile
    reads and the report prints.
    """
    if isinstance(p_s, ZeroSequence):
        return ()
    form = _over_q(p_s)
    if _zz_exact_div(_over_q(p_a), form) is None:
        raise InternalInvariantError("P_S does not divide P_A * conj(P_A)")
    rows = []
    for f, m in factor_q(form):
        q = _monic_from_ints(f, p_s.d)
        rows.append((q, m, _profile_irreducible(q), root_integrality_flags(f)))
    return tuple(rows)


def classify(r: LinRec) -> Classification:
    """Run the full decision procedure on a recurrence sequence.

    Polynomial facts (minimal polynomials, factorizations, degeneracy
    witnesses) are computed once per call and reused by every stage.
    """
    with memo.scope():
        return _classify(r)


def _classify(r: LinRec) -> Classification:
    p_a = seq_min_charpoly(r)

    d_step, parts = split_degenerate(r)
    if d_step > 1:  # a witness order is at least 2
        subs = tuple((j, classify(part)) for j, part in enumerate(parts))
        return Classification(
            "DegenerateInput",
            evidence=EvidenceReport(p_a_min=p_a),
            split_modulus=d_step,
            subresults=subs,
        )

    p_d, p_s = diff_sum_parts(r)

    if isinstance(p_d, ZeroSequence):
        return Classification("ClassA", evidence=EvidenceReport(
            p_a_min=p_a, p_d=p_d, p_s=p_s,
            notes=("difference sequence vanishes identically: every A_n is rational",)))

    # refuse before P_D and P_S are factored; a degenerate input was split
    # above, and its parts may fit the budget even when the whole does not
    for p, cap in ((p_d, FACTOR_K_MAX_DEGREE), (p_s, FACTOR_Q_MAX_DEGREE)):
        if not isinstance(p, ZeroSequence) and p.degree > cap:
            raise DegreeTooLarge(f"degree {p.degree} exceeds factor cap {cap}")
    d_rows = []  # (pi, mult, profile, conjugation fixes pi)
    for pi, m in factor_k(p_d):
        fx = pi.conj() == pi  # then pi is rational and Q-irreducible
        d_rows.append((pi, m, _profile_irreducible(pi), fx))
    s_rows, d = _s_rows(p_s, p_a), r.d
    fixed = math.prod((pi ** m for pi, m, _pr, fx in d_rows if fx), start=KPoly([1], d))
    moved = math.prod((pi ** m for pi, m, _pr, fx in d_rows if not fx), start=KPoly([1], d))
    common = dict(p_a_min=p_a, p_d=p_d, p_s=p_s, conj_fixed=fixed, conj_moved=moved,
                  s_factors=s_rows, s_unital=all(flags[2] for *_q, flags in s_rows),
                  notes=(("sum sequence is identically zero; unital holds vacuously",)
                         if isinstance(p_s, ZeroSequence) else ()))

    if fixed.degree >= 1:
        fixed_rows = [(m, pr) for _pi, m, pr, fx in d_rows if fx]
        fixed_profile = CircleProfile(sum(m * pr.inside for m, pr in fixed_rows),
                                      sum(m * pr.on for m, pr in fixed_rows),
                                      sum(m * pr.outside for m, pr in fixed_rows))
        ev = EvidenceReport(fixed_profile=fixed_profile, **common)
        if fixed_profile.inside > 0 or fixed_profile.outside > 0:
            return Classification("ProvenUnbounded", "B.1", ev)
        if not ev.s_unital:
            return Classification("ProvenUnbounded", "B.3", ev)
        (pi, m, _pr, _fx), *others = d_rows
        x_minus_one, x_plus_one = KPoly([-1, 1], d), KPoly([1, 1], d)
        if others or pi not in (x_minus_one, x_plus_one):
            return Classification("ProvenUnbounded", "B.2", ev)
        if m >= 2:
            return Classification("ProvenUnbounded", "B.4", ev)
        a0 = r.term(0)
        beta = a0 - a0.conj()
        sign = 1 if pi == x_minus_one else -1
        return Classification("ClassB_b", evidence=ev, beta=beta, sign=sign)

    # set C: P_D nonzero with every factor moved by conjugation; P_D is
    # rational, so the conjugate of each factor is a factor too
    profiles = {pi: pr for pi, _m, pr, _fx in d_rows}
    if any(pi.conj() not in profiles for pi in profiles):
        raise InternalInvariantError("the conjugate of a P_D factor is not a factor")
    moved_factors = tuple((pi, m, pr, profiles[pi.conj()]) for pi, m, pr, _fx in d_rows)
    ev = EvidenceReport(moved_factors=moved_factors, **common)

    if any((pr.on or pr.outside) and (pc.on or pc.outside)
           for _pi, _m, pr, pc in moved_factors):
        return Classification("ProvenUnbounded", "C.1", ev)
    # Pisot type: the roots of pi and of conj(pi) lie strictly on opposite
    # sides of the circle.  What C.1 leaves failing this is a pair with every
    # root inside; reversing the sequence (n -> -n) makes it a C.1 pair, so
    # C.3 is C.1 with inside and outside swapped
    if any((pr.on or pr.inside) and (pc.on or pc.inside)
           for _pi, _m, pr, pc in moved_factors):
        return Classification("ProvenUnbounded", "C.3", ev)
    if not all(root_integrality_flags(f)[2] for f, _m in factor_q(_over_q(p_d))):
        return Classification("ProvenUnbounded", "C.4", ev)
    if any((pr.on or pr.outside) and not flags[0] for _q, _m, pr, flags in s_rows):
        return Classification("ProvenUnbounded", "C.5", ev)
    if any((pr.on or pr.inside) and not flags[1] for _q, _m, pr, flags in s_rows):
        return Classification("ProvenUnbounded", "C.6", ev)
    # note: class c does NOT need all of P_S unital -- only the side conditions
    # above (a factor like X-2 with no root on or inside the circle is fine)
    return Classification("ClassC_c", evidence=ev)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_VERDICT_LABEL = {
    "ClassA": "ClassA (rational sequence; bounded period lengths)",
    "ClassB_b": "ClassB_b (sign-flip irrational offset; bounded period lengths)",
    "ClassC_c": "ClassC_c (possibly bounded)",
    "ProvenUnbounded": "ProvenUnbounded",
    "DegenerateInput": "DegenerateInput (split into arithmetic subsequences)",
}


def _fmt_poly(p) -> str:
    if p is None:
        return "-"
    if isinstance(p, ZeroSequence):
        return "0 (zero sequence)"
    return str(p)


def _fmt_profile(pr) -> str:
    return f"{pr.inside}/{pr.on}/{pr.outside}" if pr is not None else "-"


def explain(c: Classification, indent: str = "") -> str:
    """Deterministic plain-text report of a classification."""
    lines = [f"{indent}verdict: {_VERDICT_LABEL[c.verdict]}"]
    if c.step is not None:
        lines.append(f"{indent}step: {c.step}")
    if c.beta is not None:
        lines.append(f"{indent}offset beta = {c.beta}, sign = {'+1' if c.sign > 0 else '-1'}")
    e = c.evidence
    if e is not None:
        lines.append(f"{indent}minimal charpoly: {_fmt_poly(e.p_a_min)}")
        if e.p_d is not None:
            lines.append(f"{indent}difference part P_D: {_fmt_poly(e.p_d)}")
        if e.p_s is not None:
            lines.append(f"{indent}sum part P_S: {_fmt_poly(e.p_s)}")
        if e.conj_fixed is not None and not isinstance(e.conj_fixed, ZeroSequence):
            lines.append(f"{indent}conjugation-fixed part: {_fmt_poly(e.conj_fixed)}"
                         + (f"  (roots inside/on/outside = {_fmt_profile(e.fixed_profile)})"
                            if e.fixed_profile is not None else ""))
        for pi, m, pr, pc in e.moved_factors:
            lines.append(f"{indent}P_D factor {pi} (mult {m}): "
                         f"roots {_fmt_profile(pr)}; conjugate roots {_fmt_profile(pc)}")
        for q, m, pr, flags in e.s_factors:
            lines.append(f"{indent}P_S factor {q} (mult {m}): roots {_fmt_profile(pr)}, "
                         f"alg-integer={flags[0]}, reciprocal-integer={flags[1]}")
        if e.s_unital is not None:
            lines.append(f"{indent}unital(P_S): {e.s_unital}")
        for note in e.notes:
            lines.append(f"{indent}note: {note}")
    if c.split_modulus is not None:
        lines.append(f"{indent}split modulus d = {c.split_modulus}")
    for j, sub in c.subresults:
        lines.append(f"{indent}subsequence j={j}:")
        lines.append(explain(sub, indent + "  "))
    return "\n".join(lines)
