"""A memo of polynomial and valuation facts that lives for one job only.

The job is one classification (``classify``) or one growth job
(``cfperiod growth``, whose bound column and ``growth_check`` share the
minimal polynomial, its factors, the dominant-root bounds and each term's
valuation).  Inside ``with scope():`` every function decorated with
:func:`memoized` computes its value once per distinct argument list and hands
the stored value back on later calls; outside a scope the functions run
unmemoized.  Nested scopes share the outermost memo, so a recursive
classification of the subsequences of a degenerate input reuses the facts of
its parent.  Nothing is kept between scopes: a batch of jobs pays for each one
in full.
Memoized functions must return immutable values.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect

_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "cfperiod_memo", default=None)


@contextlib.contextmanager
def scope():
    """Memoize the decorated functions until the block exits."""
    if _MEMO.get() is not None:
        yield
        return
    token = _MEMO.set({})
    try:
        yield
    finally:
        _MEMO.reset(token)


def memoized(fn):
    """Key on every argument after binding, defaults included.

    Each argument enters the key together with its type and field parameter,
    so a RatPoly never meets an equal-looking KPoly and two KPolys over
    different fields are never compared.
    """
    sig = inspect.signature(fn)
    name = fn.__qualname__
    params = sig.parameters.values()
    # a call that passes every parameter by position needs no binding
    arity = (len(params) if all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
             else -1)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args, **kwargs)
        values = args
        if kwargs or len(args) != arity:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments.values()
        key = (name,) + tuple((type(v), getattr(v, "d", None), v) for v in values)
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = fn(*args, **kwargs)
            return value

    return wrapper
