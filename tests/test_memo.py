"""The per-job memo: one value per argument list, one scope only."""
import inspect
import json

import pytest

from cfperiod import cli, memo, polyalg
from cfperiod.classifier import classify
from cfperiod.polyalg import KPoly, RatPoly, factor_k, factor_q
from cfperiod.qfield import QuadElem

from curated import members


def _counting():
    calls = []

    @memo.memoized
    def degree_plus(p, k=1):
        calls.append((p, k))
        return p.degree + k

    return degree_plus, calls


def test_memo_keys_on_bound_arguments_within_one_scope():
    f, calls = _counting()
    p = RatPoly([-1, -1, 1])
    with memo.scope():
        assert f(p) == f(p, 1) == f(p, k=1) == 3
        assert f(p, 2) == 4
        with memo.scope():  # nested scopes share the outer memo
            assert f(p) == 3
    assert calls == [(p, 1), (p, 2)]


def test_memo_is_dropped_when_the_scope_ends():
    f, calls = _counting()
    p = RatPoly([1, 1])
    f(p)
    f(p)  # outside a scope nothing is kept
    with memo.scope():
        f(p)
    with memo.scope():
        f(p)
    assert len(calls) == 4


def test_memo_separates_types_and_fields():
    f, calls = _counting()
    with memo.scope():
        f(RatPoly([1, 1]))
        f(KPoly([1, 1], 2))  # equal coefficients, other type: its own entry
        f(KPoly([1, 1], 3))  # other field: never compared with d = 2
    assert len(calls) == 3


def test_memo_raises_unchained_and_caches_nothing():
    calls = []

    @memo.memoized
    def refuse(p):
        calls.append(p)
        return factor_q(p)

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


def test_classify_binds_no_signature(monkeypatch):
    # every memoized call in a classification passes its arguments by
    # position, so the memo key needs no Signature.bind
    binds = []
    bind = inspect.Signature.bind

    def counting_bind(self, *args, **kwargs):
        binds.append(self)
        return bind(self, *args, **kwargs)

    monkeypatch.setattr(inspect.Signature, "bind", counting_bind)
    for _name, r, _verdict, _step in members():
        classify(r)
    assert len(binds) == 0


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


@pytest.mark.parametrize("factor, p", [
    # (x^2 - 2)(x^3 - x - 1)(x + 3)^2 over Q
    (factor_q, RatPoly([-2, 0, 1]) * RatPoly([-1, -1, 0, 1]) * RatPoly([3, 1]) ** 2),
    # (x^2 - 2 x - 1)(x^2 + x + 1)(x - 1 - sqrt 2) over Q(sqrt 2): the norm
    # descent splits x^2 - 2 x - 1 into its two conjugate roots
    (factor_k, KPoly([-1, -2, 1], 2) * KPoly([1, 1, 1], 2)
     * KPoly([QuadElem(-1, -1, 2), 1], 2)),
    # (x^2 - 2 x - 1)(x^2 + x + 1)(x^3 - 2) over Q(sqrt 2): rational, so it
    # is split from its factorization over Q
    (factor_k, KPoly([-1, -2, 1], 2) * KPoly([1, 1, 1], 2) * KPoly([-2, 0, 0, 1], 2)),
], ids=["factor_q", "factor_k", "factor_k_rational"])
def test_factors_are_remembered_as_irreducible(monkeypatch, factor, p):
    with memo.scope():
        factors = factor(p).distinct()
        assert len(factors) >= 3
        with monkeypatch.context() as m:
            # factor_q's one sympy call, and factor_q itself as factor_k's
            # route to it (the test holds its own reference to factor_q)
            m.setattr(polyalg, "_zz_factor", _factored_again)
            m.setattr(polyalg, "factor_q", _factored_again)
            remembered = [factor(f) for f in factors]
    # the same facts as a fresh, unscoped factorization of each factor
    assert remembered == [factor(f) for f in factors]
    assert all(r.factors == ((f, 1),) for r, f in zip(remembered, factors))
