"""Test-suite settings shared by every module.

Hypothesis runs one profile everywhere: no per-example deadline (exact
arithmetic on large integers has no fixed cost per example) and derandomized
examples, so a run is reproducible.  A test's own ``@settings`` sets only
``max_examples``.
"""
from hypothesis import settings

settings.register_profile("cfperiod", deadline=None, derandomize=True)
settings.load_profile("cfperiod")
