"""The caps of one run: set once with `limits`, read with `current()` where work grows."""

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields

from .errors import BudgetError, PreconditionError


@dataclass(frozen=True)
class Budget:
    """Caps on map degree, decomposition steps, orbit points and closure iterations."""

    degree_cap: int = 5000
    ritt_steps: int = 32
    orbit_budget: int = 10_000
    kmax: int = 64

    def __post_init__(self):
        for f in fields(Budget):
            if getattr(self, f.name) < 1:
                raise PreconditionError(f"{f.name} must be positive")

    def check_degree(self, degree: int, what: str) -> None:
        """Raise BudgetError, naming what and its degree, past the cap."""
        if degree > self.degree_cap:
            raise BudgetError(f"{what} exceeds cap {self.degree_cap}")


_CURRENT = ContextVar("budget", default=Budget())


def current() -> Budget:
    """The budget of the enclosing `limits` block; Budget's defaults outside any."""
    return _CURRENT.get()


@contextmanager
def limits(budget: Budget):
    """Run the body under budget; the enclosing budget returns on any exit."""
    token = _CURRENT.set(budget)
    try:
        yield budget
    finally:
        _CURRENT.reset(token)
