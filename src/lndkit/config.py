"""Run-wide tunables: budgets and the seed a report echoes.

A `budget(pairs, dims)` scope bounds the J-pair reductions of all the
Groebner runs inside it, summed (each pair the signature criteria keep,
charged once before it is reduced, `groebner_engine._buchberger`), and
the size of one enumeration: the
monomials up to a degree, or the products of one span.  Against the fixed
TERM_BUDGET it counts the terms formed by work a user's numbers alone can
make unbounded: every product of two polynomials (powers included;
weighted by coefficient size) and every application of a derivation to a
polynomial (nilpotency checks, Dixmier slice tests and orbits,
restrictions, `expect` and well-definedness checks, Jacobian minors).
Outside any scope, one rule: a Buchberger run, parse, application,
`iterate`, nilpotency check, `dixmier` or `reconstruct` is bounded as a
whole by one default budget (`metered`).  A statement's parse has a scope
of its own; the scope it runs in is charged first with the terms that
parse formed, so one term budget bounds both.

The seed (`--seed`, else LND_SEED, else 0) is echoed in each report and
decides no computed value: every computation is deterministic.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass

from .errors import BudgetExceededError

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_DIM_BUDGET = 5000
# About 6 s of term products whose terms collide, as in powers of dense
# polynomials, and 15 s of ones whose terms do not (5.9 and 14.6 us a term
# on a 2-core Xeon under Python 3.11).  Shorter than the minutes the pair
# budget's default allows, because the terms formed may all be held at
# once: at most 10^6 of them, some 760 MB.  (x+y+z+w)^32 is charged 974072.
TERM_BUDGET = 10**6
SEED_ENV_VAR = "LND_SEED"


def ascii_int(text, what="an integer") -> int:
    """The integer `text` spells as `-?[0-9]+`, in ASCII digits alone;
    otherwise, or past the interpreter's limit on digits, ValueError."""
    try:
        return int(re.fullmatch(r"-?[0-9]+", text)[0])
    except (TypeError, ValueError):   # no match, or too many digits
        raise ValueError(f"expected {what}, found {text!r}") from None


def default_seed() -> int:
    """The seed in LND_SEED, 0 when it is unset; ValueError when it is not
    an integer (`ascii_int`)."""
    raw = os.environ.get(SEED_ENV_VAR)
    return 0 if raw is None else ascii_int(raw, f"{SEED_ENV_VAR} to be an integer")


@dataclass
class RunConfig:
    """Configuration threaded through a session run; reports echo the seed,
    which no computation reads."""

    seed: int = 0
    pair_budget: int = DEFAULT_PAIR_BUDGET
    dim_budget: int = DEFAULT_DIM_BUDGET

    @classmethod
    def from_environment(cls) -> "RunConfig":
        return cls(seed=default_seed())


@dataclass
class Budget:
    """Pair limit and pairs used; terms used, against TERM_BUDGET; `dims`
    bounds the values of one enumeration or one span (a matrix side, not
    work, so it does not accumulate over a statement)."""

    pairs: int = DEFAULT_PAIR_BUDGET
    dims: int = DEFAULT_DIM_BUDGET
    used: int = 0
    terms_used: int = 0

    def charge_pair(self):
        self.used += 1
        if self.used > self.pairs:
            raise BudgetExceededError(f"pair budget {self.pairs} exceeded")

    def charge_terms(self, n, what):
        """Charge n terms about to be formed by `what`, before forming them."""
        self.terms_used += n
        if self.terms_used > TERM_BUDGET:
            raise BudgetExceededError(f"term budget {TERM_BUDGET} exceeded by {what}")


_BUDGET = ContextVar("lndkit_budget", default=None)


def current_budget():
    """The innermost scope's budget, or a fresh default one outside any."""
    return _BUDGET.get() or Budget()


@contextmanager
def budget(pairs=None, dims=None):
    """Scope with fresh pair and term counters; a limit left as None is
    inherited from the enclosing scope (the default outside any)."""
    outer = current_budget()
    token = _BUDGET.set(Budget(outer.pairs if pairs is None else pairs,
                               outer.dims if dims is None else dims))
    try:
        yield _BUDGET.get()
    finally:
        _BUDGET.reset(token)


def metered():
    """A context on the open budget scope, else on a fresh default one."""
    scope = _BUDGET.get()
    return nullcontext(scope) if scope else budget()
