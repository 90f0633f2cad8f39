"""The per-job memo: one value per argument list, one scope only."""
import functools
import importlib
import inspect
import json
import pkgutil
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cfperiod
from cfperiod import classifier, cli, memo, polyalg
from cfperiod.classifier import classify
from cfperiod.errors import InternalInvariantError
from cfperiod.polyalg import KPoly, factor_k
from cfperiod.qfield import QuadElem
from cfperiod.recurrence import LinRec

from curated import members
from oracles import Factorization, RatPoly, factor_q_monic, rational_roots_divisors


def _counting():
    calls = []

    @memo.memoized
    def degree_plus(p, k):
        calls.append((p, k))
        return p.degree + k

    return degree_plus, calls


def test_memo_keys_on_positional_arguments_within_one_scope():
    f, calls = _counting()
    p = RatPoly([-1, -1, 1])
    with memo.scope():
        assert f(p, 1) == f(p, 1) == 3
        assert f(p, 2) == 4
        with memo.scope():  # nested scopes share the outer memo
            assert f(p, 1) == 3
        with pytest.raises(TypeError):  # called by position only
            f(p, k=1)
    assert calls == [(p, 1), (p, 2)]


def test_memoized_functions_take_positional_arguments_without_defaults():
    # the memo keys on the arguments as passed, so a default would give one
    # call two keys
    found = set()
    for info in pkgutil.iter_modules(cfperiod.__path__):
        mod = importlib.import_module(f"cfperiod.{info.name}")
        for name, fn in vars(mod).items():
            if hasattr(fn, "memo_key") and fn.__module__ == mod.__name__:
                found.add(f"{info.name}.{name}")
                for param in inspect.signature(fn.__wrapped__).parameters.values():
                    assert param.kind is param.POSITIONAL_OR_KEYWORD, (name, param)
                    assert param.default is param.empty, (name, param)
    assert {"places.arch_dominant_bounds", "polyalg.factor_q", "places.arch_dominant_log"} <= found


def test_memo_is_dropped_when_the_scope_ends():
    f, calls = _counting()
    p = RatPoly([1, 1])
    f(p, 1)
    f(p, 1)  # outside a scope nothing is kept
    with memo.scope():
        f(p, 1)
    with memo.scope():
        f(p, 1)
    assert len(calls) == 4


def test_memo_separates_types_and_fields():
    f, calls = _counting()
    with memo.scope():
        f(RatPoly([1, 1]), 1)
        f(KPoly([1, 1], 2), 1)  # equal coefficients, other type: its own entry
        f(KPoly([1, 1], 3), 1)  # other field: never compared with d = 2
    assert len(calls) == 3


def test_memo_raises_unchained_and_caches_nothing():
    calls = []

    @memo.memoized
    def refuse(p):
        calls.append(p)
        return factor_q_monic(p)

    with memo.scope():
        for _ in range(2):  # nothing was stored, so the second call runs again
            with pytest.raises(ValueError) as info:
                refuse(RatPoly([]))
            assert info.value.__context__ is None
    assert len(calls) == 2


def test_classify_leaves_no_memo_behind():
    for _name, r, _verdict, _step in members()[:3]:
        classify(r)
        assert memo._MEMO.get() is None


def test_growth_leaves_no_memo_behind(tmp_path, capsys):
    job = {"command": "growth", "d": 17, "coeffs": [["7/2", "0"], ["-3/2", "0"]],
           "initials": [["2", "0"], ["7/2", "0"]], "range": [20, 60],
           "options": {"place": {"kind": "finite", "p": 2, "branch": 1}}}
    unit_place = {"kind": "finite", "p": 3}  # no root exceeds 1 there
    for place, code in ((job["options"]["place"], 0), (unit_place, 2),
                        ({"kind": "real", "embedding": 1}, 0)):
        path = tmp_path / "growth.json"
        path.write_text(json.dumps({**job, "options": {"place": place}}))
        assert cli.main(["growth", str(path)]) == code
        assert memo._MEMO.get() is None
    capsys.readouterr()


def _factored_again(*_args):
    raise AssertionError("factored again")


def _factor_k(p):
    """factor_k's factors with p's unit, in factor_q_monic's shape."""
    return Factorization(p.lc, factor_k(p))


@pytest.mark.parametrize("factor, p", [
    # (x^2 - 2)(x^3 - x - 1)(x + 3)^2 over Q
    (factor_q_monic, RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1]) * RatPoly([3, 1]) ** 2),
    # (x^2 - 2 x - 1)(x^2 + x + 1)(x - 1 - sqrt 2) over Q(sqrt 2): irrational,
    # so each factor over Q of its norm is split by a gcd with it
    (_factor_k, KPoly([-1, -2, 1], 2) * KPoly([1, 1, 1], 2)
     * KPoly([QuadElem(-1, -1, 2), 1], 2)),
    # (x^2 - 2 x - 1)(x^2 + x + 1)(x^3 - 2) over Q(sqrt 2): rational, so it
    # is split from its factorization over Q
    (_factor_k, KPoly([-1, -2, 1], 2) * KPoly([1, 1, 1], 2) * KPoly([-2, 0, 0, 1], 2)),
], ids=["factor_q", "factor_k", "factor_k_rational"])
def test_returned_factors_are_refactored_from_the_pool(monkeypatch, factor, p):
    with memo.scope():
        factors = factor(p).distinct()
        assert len(factors) >= 3
        with monkeypatch.context() as m:
            # factor_q's one sympy call: each factor, or its norm, is pooled
            m.setattr(polyalg, "_zz_factor", _factored_again)
            again = [factor(f) for f in factors]
    # the same facts as a fresh, unscoped factorization of each factor
    assert again == [factor(f) for f in factors]
    assert all(r.factors == ((f, 1),) for r, f in zip(again, factors))


# ---------------------------------------------------------------------------
# the scope's pool of irreducibles
# ---------------------------------------------------------------------------

def _zz_factor_inputs(monkeypatch):
    """The integer polynomials (high-to-low) sympy's factorer gets from now on."""
    inputs = []
    zz_factor = polyalg._zz_factor

    def recording(ints):
        inputs.append(ints)
        return zz_factor(ints)

    monkeypatch.setattr(polyalg, "_zz_factor", recording)
    return inputs


@st.composite
def pooled_products(draw):
    """(seeds, p, d): p a rational multiple of a product of irreducibles with
    multiplicities, and seed polynomials to factor first, each the product of
    some of p's irreducibles (related) or of others (unrelated).  The
    irreducibles are the factors over Q of random integer polynomials."""
    small = st.integers(-4, 4)
    bank = []
    for _ in range(draw(st.integers(2, 4))):
        deg = draw(st.integers(1, 4))
        g = RatPoly([draw(small) for _ in range(deg)] + [draw(st.sampled_from([1, 2, -3]))])
        bank += [f for f in factor_q_monic(g).distinct() if f not in bank]
    used = draw(st.lists(st.sampled_from(bank), min_size=1, max_size=4, unique=True))
    p = RatPoly([draw(st.sampled_from([1, -2, Fraction(3, 5)]))])
    for f in used:
        p = p * f.scale(draw(st.sampled_from([1, 3, Fraction(1, 2)]))) ** draw(st.integers(1, 3))
    seeds = []
    for _ in range(draw(st.integers(0, 3))):
        part = draw(st.lists(st.sampled_from(bank), min_size=1, max_size=3, unique=True))
        seed = RatPoly([1])
        for f in part:
            seed = seed * f
        seeds.append(seed)
    return seeds, p, draw(st.sampled_from([2, 3, 5]))


@settings(max_examples=60, deadline=None)
@given(pooled_products())
@example(([RatPoly([-2, 0, 1])], RatPoly([-2, 0, 1]) ** 2 * RatPoly([-1, -1, 0, 1]), 2))
@example(([RatPoly([-1, -1, 1]), RatPoly([0, 1])], RatPoly([0, 0, -1, -1, 1]) * 4, 5))
def test_pooled_factorizations_equal_fresh_ones(case):
    seeds, p, d = case
    fresh_q, fresh_k = factor_q_monic(p), factor_k(p.lift(d))
    # an irrational K-polynomial whose norm holds p's factors
    moved = p.lift(d) * KPoly([QuadElem(0, 1, d), 1], d)
    fresh_moved = factor_k(moved)
    with pytest.MonkeyPatch.context() as m:
        inputs = _zz_factor_inputs(m)
        with memo.scope():
            pooled = set()
            for seed in seeds:
                pooled.update(factor_q_monic(seed).distinct())
            inputs.clear()
            assert factor_q_monic(p) == fresh_q
            if set(fresh_q.distinct()) <= pooled:  # nothing left for sympy
                assert inputs == []
            assert factor_k(p.lift(d)) == fresh_k
            assert factor_k(moved) == fresh_moved


def test_a_new_scope_starts_with_an_empty_pool(monkeypatch):
    inputs = _zz_factor_inputs(monkeypatch)
    assert memo.pool() is None
    with memo.scope():
        factor_q_monic(RatPoly([-2, 0, 1]))
        assert memo.pool()
    with memo.scope():
        assert memo.pool() == {}
        # x^2 - 2 is not pooled here: sympy sees the whole quintic
        factor_q_monic(RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1]))
    # a quadratic is decided by its discriminant, with no sympy call
    assert [len(f) - 1 for f in inputs] == [5]


@pytest.mark.parametrize("c", [1, 3, Fraction(-1, 2)])
def test_a_pooled_polynomial_is_answered_by_the_pool(monkeypatch, c):
    p = RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1]) * RatPoly([3, 1]) ** 2
    with memo.scope():
        factors = factor_q_monic(p).distinct()
        with monkeypatch.context() as m:
            m.setattr(polyalg, "_zz_factor", _factored_again)
            m.setattr(polyalg, "_certify_irreducible_q", _factored_again)
            pooled = [factor_q_monic(f.scale(c)) for f in factors]
    assert pooled == [factor_q_monic(f.scale(c)) for f in factors]


def test_pooled_factors_are_multiplied_back(monkeypatch):
    with memo.scope():
        factor_q_monic(RatPoly([-2, 0, 1]))
        # sympy gets the cofactor x^3 - x - 1 and answers wrongly
        monkeypatch.setattr(polyalg, "_zz_factor", lambda ints: (1, [([1, 0, 3], 1)]))
        with pytest.raises(InternalInvariantError, match="multiply-back"):
            factor_q_monic(RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1]))


def _order4_b1():
    # charpoly (x^2 - 2x - 1)(x - 3)(x - 1/2) over Q(sqrt 2), irrational initial terms
    p = RatPoly([-1, -2, 1]) * RatPoly([-3, 1]) * RatPoly([Fraction(-1, 2), 1])
    return LinRec([-p.coeffs[3 - i] for i in range(4)],
                  [QuadElem(1, 1, 2), 1, 2, QuadElem(0, 1, 2)], 2)


def _order6_sqrt2():
    # the order-6 input of the CLI golden: A_n = A_(n-1) + ... + (1 + sqrt 2) A_(n-6)
    return LinRec([1] * 5 + [QuadElem(1, 1, 2)], [QuadElem(1, 1, 2)] + [1] * 5, 2)


# The degree of each polynomial sympy factors in a curated classification.
# Rational roots are divided out before sympy, and a quadratic is decided by
# its discriminant, so a member whose pool N = P_A * conj(P_A) has only
# linear and quadratic factors sends it nothing.
ZZ_FACTOR_DEGREES = {
    "fibonacci": [],
    "n+sqrt5": [],
    "(1+sqrt2)^n": [],
    "(3+sqrt2)^n": [],
    "sqrt5*2^n": [],
    "n^2*sqrt5": [],
    "(-1)^n*(2+sqrt2)": [],
    "(5/2)^n+(-1)^n*sqrt2": [],
    "sqrt2*osc_n": [],
    "((1+sqrt2)/8)^n": [],
    "(2+sqrt2)^n": [],
    "(1+sqrt2)^n+(3/2)^n": [],
    "(2+sqrt3)^n+(2/3)^n": [],
}


@pytest.mark.parametrize("r, degrees", [
    *[pytest.param(r, ZZ_FACTOR_DEGREES[name], id=name) for name, r, verdict, _s in members()
      if verdict != "DegenerateInput"],
    # P_D and P_S are products of the pool N's factors; the roots 3 and 1/2
    # are divided out, and the quadratic x^2 - 2x - 1 is decided by its
    # discriminant
    pytest.param(_order4_b1(), [], id="order4-B.1"),
    # N once; P_D = N splits over K through the norm of a shifted copy, the
    # one polynomial whose factors are not in the pool
    pytest.param(_order6_sqrt2(), [12, 24], id="order6-sqrt2"),
])
def test_one_zassenhaus_call_per_classification(monkeypatch, r, degrees):
    inputs = _zz_factor_inputs(monkeypatch)
    classify(r)
    assert [len(f) - 1 for f in inputs] == degrees


@pytest.mark.parametrize("r", [
    *[pytest.param(r, id=name) for name, r, _verdict, _s in members()],
    pytest.param(_order4_b1(), id="order4-B.1"),
    pytest.param(_order6_sqrt2(), id="order6-sqrt2"),
])
def test_no_zassenhaus_call_sees_a_rational_root(monkeypatch, r):
    inputs = _zz_factor_inputs(monkeypatch)
    classify(r)
    for f in inputs:  # the reference enumerates divisor pairs
        assert rational_roots_divisors(RatPoly(f[::-1])) == [], f


def _computations(monkeypatch, name):
    """The argument tuples of the calls of polyalg.<name> that miss the memo."""
    fn = getattr(polyalg, name)
    raw = getattr(fn, "__wrapped__", fn)
    seen = []

    @functools.wraps(raw)
    def counting(*args):
        seen.append(args)
        return raw(*args)

    # the same name, so a memoized function shares the values stored before
    wrapper = memo.memoized(counting) if raw is not fn else counting
    for mod in (polyalg, classifier):
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, wrapper)
    return seen


@pytest.mark.parametrize("r", [
    *[pytest.param(r, id=name) for name, r, _verdict, _s in members()],
    pytest.param(_order4_b1(), id="order4-B.1"),
    pytest.param(_order6_sqrt2(), id="order6-sqrt2"),
])
def test_each_polynomial_fact_is_computed_once_per_classification(monkeypatch, r):
    profiled = _computations(monkeypatch, "_profile_irreducible")
    factored_k = _computations(monkeypatch, "factor_k")
    factored_q = _computations(monkeypatch, "factor_q")
    # an irreducible is certified when it enters the pool, not when a later
    # factor_q call divides it out of its input
    certified = _computations(monkeypatch, "_certify_irreducible_q")
    c = classify(r)
    for seen in (profiled, factored_k, factored_q, certified):
        keys = [tuple((type(a), a) for a in args) for args in seen]
        assert len(keys) == len(set(keys))
    if c.verdict not in ("ClassA", "DegenerateInput"):
        assert profiled  # every row of the table has its profile
        # P_D is factored over K once, and its rows' profiles are not refactored
        assert factored_k.count((c.evidence.p_d,)) <= 1
        for pi, *_ in c.evidence.moved_factors:
            assert (pi,) not in factored_k
