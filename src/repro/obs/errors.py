"""Typed exception taxonomy for the whole library.

Every error the library raises on bad input descends from
:class:`ReproError`, so callers (the CLI above all) can catch one type,
print a one-line diagnostic, and exit nonzero instead of dumping a
traceback.  Each subclass also inherits the builtin exception the seed
code raised in its place (``ValueError`` or ``KeyError``), so existing
``except ValueError`` / ``pytest.raises(ValueError)`` call sites keep
working unchanged.

Errors carry a ``context`` mapping — the offending value, the valid
range, the nearest catalog keys — which :meth:`ReproError.diagnostic`
folds into a single actionable line::

    >>> err = ValidationError("clock_mhz must be positive",
    ...                       context={"got": -100.0, "valid": "> 0"})
    >>> err.diagnostic()
    'clock_mhz must be positive [got=-100.0, valid=> 0]'
"""

from __future__ import annotations

from collections.abc import Mapping

__all__ = [
    "ReproError",
    "ValidationError",
    "CatalogLookupError",
    "ThresholdInfeasibleError",
    "TrendFitError",
    "ServiceOverloadedError",
    "DeadlineExceededError",
    "ScenarioEpochError",
]


class ReproError(Exception):
    """Base class of every error the library raises on bad input.

    Parameters
    ----------
    message:
        Human-readable description of what went wrong.
    context:
        Optional structured payload (offending value, valid range,
        nearest catalog keys, ...) for actionable diagnostics.
    """

    def __init__(self, message: str, *,
                 context: Mapping[str, object] | None = None) -> None:
        super().__init__(message)
        self.message = str(message)
        self.context: dict[str, object] = dict(context or {})

    def __str__(self) -> str:  # also overrides KeyError's repr-quoting
        return self.message

    def diagnostic(self) -> str:
        """The message plus the context payload, on one line."""
        if not self.context:
            return self.message
        detail = ", ".join(f"{k}={self._fmt(v)}"
                           for k, v in self.context.items())
        return f"{self.message} [{detail}]"

    @staticmethod
    def _fmt(value: object) -> str:
        if isinstance(value, (list, tuple)):
            return "/".join(str(v) for v in value)
        return str(value)


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong range, sign, shape, units)."""


class CatalogLookupError(ReproError, KeyError):
    """A catalog lookup missed; ``context['closest']`` names near-misses."""


class ThresholdInfeasibleError(ReproError, ValueError):
    """A threshold/bound query has no feasible answer at the given date
    (e.g. no cataloged system or control regime exists yet)."""


class TrendFitError(ReproError, ValueError):
    """A trend fit or projection is ill-posed (too few distinct
    observations, nonpositive values, non-increasing trend)."""


class ServiceOverloadedError(ReproError, RuntimeError):
    """The serving layer shed a request because a bounded queue was full
    (HTTP 429); ``context['retry_after_s']`` suggests a backoff."""


class DeadlineExceededError(ReproError, TimeoutError):
    """A request missed its deadline before a result could be produced
    (HTTP 504); ``context['deadline_ms']`` names the budget."""


class ScenarioEpochError(ReproError, RuntimeError):
    """A scenario-grid result was read after a catalog mutation changed
    the epoch it was built under; ``context`` carries ``built_at`` and
    ``current``.  Re-evaluate the grid rather than mixing worlds computed
    against different catalog states."""
