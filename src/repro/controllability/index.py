"""Composite controllability index and Table 4 classifications.

The index is a weighted average of the five product-attribute scores.
Classification thresholds are calibrated so the reconstruction reproduces
Chapter 3's verdicts: Cray vector machines and the big MPPs classify
CONTROLLABLE; the Cray CS6400 and the SGI Challenge/PowerChallenge series —
"the most powerful uncontrollable systems available in mid-1995" — classify
UNCONTROLLABLE, along with volume workstations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro._util import check_fraction
from repro.obs.errors import ValidationError
from repro.controllability.factors import FactorScores
from repro.machines.spec import MachineSpec

__all__ = [
    "Classification",
    "ControllabilityWeights",
    "DEFAULT_WEIGHTS",
    "ControllabilityAssessment",
    "assess",
    "cached_scores",
    "clear_assessment_caches",
    "score_matrix",
    "index_matrix",
    "classify_index_matrix",
    "CLASS_BY_CODE",
    "classification_table",
]


class Classification(enum.Enum):
    """Three-way controllability verdict."""

    CONTROLLABLE = "controllable"
    MARGINAL = "marginal"
    UNCONTROLLABLE = "uncontrollable"


@dataclass(frozen=True)
class ControllabilityWeights:
    """Relative weight of each factor in the composite index.

    Weights must sum to 1.  The installed base carries the most weight —
    "at some point it becomes economically infeasible for companies to
    monitor and verify this information" — followed equally by footprint,
    channel structure, and upgrade headroom.
    """

    size: float = 0.20
    units: float = 0.25
    channel: float = 0.20
    price: float = 0.15
    scalability: float = 0.20
    #: Index below which a product is UNCONTROLLABLE.
    uncontrollable_below: float = 0.50
    #: Index at or above which a product is CONTROLLABLE.
    controllable_at: float = 0.70

    def __post_init__(self) -> None:
        total = self.size + self.units + self.channel + self.price + self.scalability
        if abs(total - 1.0) > 1e-9:
            raise ValidationError(
                f"factor weights must sum to 1, got {total}",
                context={"got": total, "valid": "sum == 1"},
            )
        check_fraction(self.uncontrollable_below, "uncontrollable_below")
        check_fraction(self.controllable_at, "controllable_at")
        if self.uncontrollable_below >= self.controllable_at:
            raise ValidationError(
                "uncontrollable_below must be < controllable_at",
                context={"uncontrollable_below": self.uncontrollable_below,
                         "controllable_at": self.controllable_at},
            )


DEFAULT_WEIGHTS = ControllabilityWeights()


@dataclass(frozen=True)
class ControllabilityAssessment:
    """Result of assessing one machine."""

    machine: MachineSpec
    scores: FactorScores
    index: float
    classification: Classification

    @property
    def is_uncontrollable(self) -> bool:
        return self.classification is Classification.UNCONTROLLABLE


@lru_cache(maxsize=1024)
def cached_scores(machine: MachineSpec) -> FactorScores:
    """Memoized factor scores of one (frozen, hashable) machine spec.

    Factor scores are weight-independent, so every assessment of a catalog
    machine — across frontier queries, Monte-Carlo draws, and year grids —
    reuses one scoring pass.  Scoring walks the CTP pipeline (the
    scalability factor rates the family ceiling), which is what made the
    uncached per-query path the sensitivity analysis's bottleneck.
    """
    return FactorScores.of(machine)


def score_matrix(machines: tuple[MachineSpec, ...]) -> np.ndarray:
    """Factor-score matrix, one machine per row, columns in the composite
    order (size, units, channel, price, scalability)."""
    if not machines:
        return np.empty((0, 5))
    return np.array([
        [s.size, s.units, s.channel, s.price, s.scalability]
        for s in (cached_scores(m) for m in machines)
    ])


def index_matrix(weight_rows: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Composite indices for N weightings x M machines in one pass.

    ``weight_rows`` is ``(N, 5)`` (same column order as
    :func:`score_matrix`); the result is ``(N, M)``.  The five products are
    summed left-to-right, matching :func:`assess`'s scalar expression
    bit-for-bit so batched classifications can never disagree with the
    scalar path on a knife-edge index.
    """
    w = np.asarray(weight_rows, dtype=float)
    s = np.asarray(scores, dtype=float)
    if w.ndim != 2 or w.shape[1] != 5 or s.ndim != 2 or s.shape[1] != 5:
        raise ValidationError(
            "weight_rows and scores must have shape (*, 5)",
            context={"weights_shape": w.shape, "scores_shape": s.shape},
        )
    out = w[:, 0:1] * s[None, :, 0]
    for k in range(1, 5):
        out = out + w[:, k:k + 1] * s[None, :, k]
    return out


#: Classification per integer code used by :func:`classify_index_matrix`.
CLASS_BY_CODE: tuple[Classification, ...] = (
    Classification.UNCONTROLLABLE,
    Classification.MARGINAL,
    Classification.CONTROLLABLE,
)
#: Integer codes for vectorized classification comparisons.
_CLASS_CODES = {cls: code for code, cls in enumerate(CLASS_BY_CODE)}


def classify_index_matrix(
    indices: np.ndarray,
    uncontrollable_below: np.ndarray | float,
    controllable_at: np.ndarray | float,
) -> np.ndarray:
    """Vectorized three-way classification of composite indices.

    Returns integer codes (0 = uncontrollable, 1 = marginal,
    2 = controllable; see ``Classification`` ordering in
    ``_CLASS_CODES``).  Cut arrays broadcast against ``indices``, so
    per-draw jittered cuts classify a whole ``(draws, machines)`` index
    matrix at once.
    """
    idx = np.asarray(indices, dtype=float)
    low = np.asarray(uncontrollable_below, dtype=float)
    high = np.asarray(controllable_at, dtype=float)
    return np.where(idx < low, np.int8(0),
                    np.where(idx < high, np.int8(1), np.int8(2)))


@lru_cache(maxsize=4096)
def assess(
    machine: MachineSpec,
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
) -> ControllabilityAssessment:
    """Score, combine, and classify one machine.

    Memoized: both arguments are frozen/hashable dataclasses and the
    assessment is pure, so the market scans and policy grids that ask
    about the same machine thousands of times share one evaluation.
    Bounded, and dropped by ``clear_assessment_caches``.
    """
    scores = cached_scores(machine)
    index = (
        weights.size * scores.size
        + weights.units * scores.units
        + weights.channel * scores.channel
        + weights.price * scores.price
        + weights.scalability * scores.scalability
    )
    if index < weights.uncontrollable_below:
        cls = Classification.UNCONTROLLABLE
    elif index < weights.controllable_at:
        cls = Classification.MARGINAL
    else:
        cls = Classification.CONTROLLABLE
    return ControllabilityAssessment(
        machine=machine, scores=scores, index=float(index), classification=cls
    )


def clear_assessment_caches() -> None:
    """Drop memoized assessments and factor scores (tests and ablation
    hygiene — the assessment-side analogue of
    :func:`repro.ctp.batch.clear_credit_cache`).  Both memos key on the
    frozen spec alone, so no catalog event can stale them; they are
    bounded instead.
    """
    assess.cache_clear()
    cached_scores.cache_clear()


#: The systems Chapter 3's Table 4 discusses, by catalog key.
TABLE4_SYSTEMS: tuple[str, ...] = (
    "Cray C916",
    "Cray T3D (512)",
    "Intel Paragon XP/S (150)",
    "Thinking Machines CM-5 (128)",
    "IBM SP2 (16)",
    "Convex Exemplar SPP1000 (16)",
    "Cray CS6400 (64)",
    "SGI Challenge XL (36)",
    "SGI PowerChallenge (4)",
    "DEC AlphaServer 8400 (12)",
    "Sun SPARCstation 10",
)


def classification_table(
    weights: ControllabilityWeights = DEFAULT_WEIGHTS,
) -> list[ControllabilityAssessment]:
    """Assess the Table 4 population (most → least controllable)."""
    from repro.machines.catalog import find_machine

    rows = [assess(find_machine(key), weights) for key in TABLE4_SYSTEMS]
    return sorted(rows, key=lambda a: -a.index)
