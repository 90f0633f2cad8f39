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
Memoized functions must return immutable values.  A function that learns
another call's value on the way (factor_q finds that each factor it returns
is irreducible) stores it with :func:`remember`.
The scope also holds factor_q's pool of the irreducible polynomials it has
certified (:func:`pool`), which it divides out of a later input before it
factors the rest; the pool dies with the scope like the memo.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect

_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "cfperiod_memo", default=None)
_MISSING = object()


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

    def memo_key(args, kwargs) -> tuple:
        values = args
        if kwargs or len(args) != arity:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            values = bound.arguments.values()
        return (name,) + tuple((type(v), getattr(v, "d", None), v) for v in values)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args, **kwargs)
        key = memo_key(args, kwargs)
        value = memo.get(key, _MISSING)
        if value is _MISSING:  # computed outside any handler: no exception chain
            value = memo[key] = fn(*args, **kwargs)
        return value

    wrapper.memo_key = memo_key
    return wrapper


def remember(fn, value, *args, **kwargs) -> None:
    """Inside a scope, store value as the result of fn(*args, **kwargs).

    fn is a :func:`memoized` function, possibly wrapped again by a decorator
    that sets ``__wrapped__``.  A value already stored is kept.  Outside a
    scope nothing happens.
    """
    memo = _MEMO.get()
    if memo is None:
        return
    fn = inspect.unwrap(fn, stop=lambda f: hasattr(f, "memo_key"))
    memo.setdefault(fn.memo_key(args, kwargs), value)



def pool() -> dict | None:
    """Inside a scope, the dict that factor_q keeps its pool in until the
    scope exits (empty at first); outside a scope, None."""
    memo = _MEMO.get()
    if memo is None:
        return None
    return memo.setdefault(pool, {})
