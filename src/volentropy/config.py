"""Model families, defaults and the fit configuration: what the CLI parser reads.

This module imports no numpy, so the package, ``volentropy --help`` and a
usage error load none.  ``models``, ``estimation``, ``simulation`` and
``entropy`` import these names from here, and their own import paths give
the same objects (``volentropy.models.ModelFamily`` is
``volentropy.config.ModelFamily``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import DomainError, _integer

__all__ = [
    "DEFAULT_BURN_IN",
    "DEFAULT_ORDER_GRID",
    "DEFAULT_TRUNCATION",
    "INNOVATIONS",
    "FitConfig",
    "ModelFamily",
]

DEFAULT_TRUNCATION = 1000

DEFAULT_BURN_IN = 2000

DEFAULT_ORDER_GRID = (1.4, 1.45, 1.5)

INNOVATIONS = ("gaussian", "student")


class ModelFamily(enum.Enum):
    """The three supported conditional-variance families."""

    GARCH = "garch"
    IGARCH = "igarch"
    FIGARCH = "figarch"

    @classmethod
    def from_string(cls, text: str) -> "ModelFamily":
        try:
            return cls(text.strip().lower())
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DomainError(f"unknown family {text!r}; choose from {valid}") from None

    @property
    def pinned_d(self) -> float | None:
        """d as the family pins it: 0 for GARCH, 1 for IGARCH, None (free) for FIGARCH."""
        return {"garch": 0.0, "igarch": 1.0}.get(self.value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class FitConfig:
    """Estimation settings: family, innovation law, and optimizer budget.

    ``max_iters`` bounds the iterations of each BFGS run: a start's, and
    its rerun from off a face (see ``estimation._off_face``).  A step
    gaining less than ``tol`` in the per-observation negative
    log-likelihood ends a BFGS run, after one steepest-descent retry if it
    was quasi-Newton.
    """

    family: ModelFamily
    innovation: str = "student"
    T: int = DEFAULT_TRUNCATION
    max_iters: int = 2000
    tol: float = 1e-9
    restarts: int = 2
    seed: int = 0
    d_fixed: float | None = None

    def __post_init__(self) -> None:
        if self.innovation not in INNOVATIONS:
            raise DomainError(f"innovation must be one of {INNOVATIONS}, got {self.innovation!r}")
        if not self.tol > 0:
            raise DomainError(f"tol must be positive, got {self.tol}")
        _integer(self.max_iters, "max_iters")
        _integer(self.restarts, "restarts", 0)
        _integer(self.T, "truncation horizon")
        _integer(self.seed, "seed", 0)
        if self.d_fixed is not None:
            if self.family.pinned_d is not None:
                raise DomainError("d_fixed applies only to the FIGARCH family")
            if not (0.0 < self.d_fixed < 1.0):
                raise DomainError(
                    "d_fixed must lie strictly inside (0,1); the d=1 boundary is "
                    "the IGARCH family and d=0 is plain GARCH"
                )
