"""Run-wide tunables: budgets, random seed, trial counts.

A `budget(pairs, dims)` scope bounds the S-pair reductions of all the
Buchberger runs inside it, summed, and the size of each monomial
enumeration; outside any scope every Buchberger run gets a fresh default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import BudgetExceededError

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_DIM_BUDGET = 5000
DEFAULT_TRIALS = 32
SEED_ENV_VAR = "LND_SEED"


def default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        return 0


@dataclass
class RunConfig:
    """Configuration threaded through a session run; reports echo the seed."""

    seed: int = 0
    pair_budget: int = DEFAULT_PAIR_BUDGET
    dim_budget: int = DEFAULT_DIM_BUDGET
    trials: int = DEFAULT_TRIALS

    @classmethod
    def from_environment(cls) -> "RunConfig":
        return cls(seed=default_seed())


@dataclass
class Budget:
    """Pair limit and pairs used; `dims` bounds each monomial enumeration
    (a matrix side, not work, so it does not accumulate)."""

    pairs: int = DEFAULT_PAIR_BUDGET
    dims: int = DEFAULT_DIM_BUDGET
    used: int = 0

    def charge_pair(self):
        self.used += 1
        if self.used > self.pairs:
            raise BudgetExceededError(f"pair budget {self.pairs} exceeded")


_BUDGET = ContextVar("lndkit_budget", default=None)


def current_budget():
    """The innermost scope's budget, or a fresh default one outside any."""
    return _BUDGET.get() or Budget()


@contextmanager
def budget(pairs=None, dims=None):
    """Scope with a fresh pair counter; a limit left as None is inherited
    from the enclosing scope (the default outside any)."""
    outer = current_budget()
    token = _BUDGET.set(Budget(outer.pairs if pairs is None else pairs,
                               outer.dims if dims is None else dims))
    try:
        yield _BUDGET.get()
    finally:
        _BUDGET.reset(token)
