"""A memo of polynomial and valuation facts that lives for one job only.

The job is one classification (``classify``) or one growth job
(``cfperiod growth``, whose bound column and verdict share the minimal
polynomial, its factors and the dominant-root bounds; the job's one pass over
its range computes each term's valuation or log enclosure once, and the memo
keeps none of them).  Inside ``with scope():`` every function decorated with
:func:`memoized` computes its value once per distinct argument list and hands
the stored value back on later calls; outside a scope the functions run
unmemoized.  A memoized function has no parameter defaults and is called by
position only, so the arguments as passed are the key.  Nested scopes share
the outermost memo, so a recursive classification of the subsequences of a
degenerate input reuses the facts of its parent.  Nothing is kept between
scopes: a batch of jobs pays for each one in full.
Memoized functions must return immutable values.
The scope also holds factor_q's pool (:func:`pool`), the scope's one record
of the irreducible polynomials certified in it: factor_q answers a pooled
polynomial at once and divides the pool out of a later input before it
factors the rest; the pool dies with the scope like the memo.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools

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
    """Key on the positional arguments; fn has no defaults.

    Each argument enters the key together with its type and field parameter,
    so a primitive integer form never meets a KPoly and two KPolys over
    different fields are never compared.
    """
    name = fn.__qualname__

    def memo_key(args) -> tuple:
        return (name,) + tuple((type(v), getattr(v, "d", None), v) for v in args)

    @functools.wraps(fn)
    def wrapper(*args):
        memo = _MEMO.get()
        if memo is None:
            return fn(*args)
        key = memo_key(args)
        value = memo.get(key, _MISSING)
        if value is _MISSING:  # computed outside any handler: no exception chain
            value = memo[key] = fn(*args)
        return value

    wrapper.memo_key = memo_key
    return wrapper


def pool() -> dict | None:
    """Inside a scope, factor_q's pool, a dict kept until the scope exits
    (empty at first); outside a scope, None."""
    memo = _MEMO.get()
    if memo is None:
        return None
    return memo.setdefault(pool, {})
