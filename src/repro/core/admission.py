"""Cache admission policies (Section 5.2 of the paper), in one place.

For data the cache has no history about, ReCache starts caching a small sample
of records both eagerly and lazily while measuring (a) the total time spent on
the query so far and (b) the time spent specifically on caching work.  At the
end of the sample it *extrapolates* both to the end of the file — this is the
``to1/tc1 .. to2/tc2`` scheme the paper introduces to avoid being fooled by
expensive upstream operators such as joins — and compares the projected caching
overhead ``tc / to`` against a user threshold.  Above the threshold the entry
is downgraded to lazy caching (record offsets only); otherwise eager caching
continues.

:data:`ADMISSION_POLICIES` names the four behaviours the evaluation compares;
:class:`AdmissionController` is the only reader of the policy and answers the
executor's three questions: the mode before scanning, the decision from a
sample, and whether a lazy entry upgrades on reuse.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: values of ``ReCacheConfig.admission``: ``"reactive"`` samples and
#: extrapolates (Figures 12-13), ``"sample-local"`` samples with the naive
#: estimator (the extrapolation ablation), ``"eager"`` / ``"lazy"`` fix the
#: mode (the Eager / Lazy Caching baselines; lazy entries never upgrade)
ADMISSION_POLICIES = ("reactive", "sample-local", "eager", "lazy")


class AdmissionDecision(enum.Enum):
    """Outcome of the admission check for one materializer."""

    EAGER = "eager"
    LAZY = "lazy"


@dataclass
class AdmissionSample:
    """The four timestamps captured around the admission sample.

    ``to1``/``to2`` are total elapsed query times at the start and end of the
    sample; ``tc1``/``tc2`` are cumulative caching times at the same points.
    ``sample_records`` records were processed in between, out of an estimated
    ``total_records`` in the file.
    """

    to1: float
    tc1: float
    to2: float
    tc2: float
    sample_records: int
    total_records: int

    def __post_init__(self) -> None:
        if self.sample_records <= 0:
            raise ValueError("sample_records must be positive")
        if self.total_records < self.sample_records:
            # A file smaller than the sample: treat the sample as the file.
            self.total_records = self.sample_records


def validate_admission_policy(policy: str) -> None:
    if policy not in ADMISSION_POLICIES:
        raise ValueError(
            f"unknown admission policy {policy!r}; expected one of {ADMISSION_POLICIES}"
        )


class AdmissionController:
    """Decides between eager and lazy caching under one admission policy."""

    def __init__(
        self,
        policy: str = "reactive",
        overhead_threshold: float = 0.10,
        sample_records: int = 200,
    ) -> None:
        validate_admission_policy(policy)
        if not 0.0 < overhead_threshold <= 1.0:
            raise ValueError("overhead_threshold must be in (0, 1]")
        if sample_records <= 0:
            raise ValueError("sample_records must be positive")
        self.policy = policy
        self.overhead_threshold = overhead_threshold
        self.sample_records = sample_records

    # ------------------------------------------------------------------
    # The executor's three questions
    # ------------------------------------------------------------------
    def initial_mode(self, source_is_hot: bool) -> AdmissionDecision | None:
        """The mode fixed before scanning, or ``None`` to sample first.

        The sampling policies skip the sample and cache eagerly when the file
        is "hot" (Section 5.2, last paragraph): once caching it has paid off,
        ReCache assumes the file is still part of the working set.
        """
        if self.policy == "lazy":
            return AdmissionDecision.LAZY
        if self.policy == "eager" or source_is_hot:
            return AdmissionDecision.EAGER
        return None

    def decide(self, sample: AdmissionSample) -> AdmissionDecision:
        """Admission decision from the sample, with the policy's estimator."""
        if self.policy == "sample-local":
            overhead = self.naive_overhead(sample)
        else:
            overhead = self.projected_overhead(sample)
        if overhead > self.overhead_threshold:
            return AdmissionDecision.LAZY
        return AdmissionDecision.EAGER

    @property
    def upgrades_lazy(self) -> bool:
        """Whether a lazy entry becomes eager on its first reuse."""
        return self.policy != "lazy"

    # ------------------------------------------------------------------
    # The two estimators
    # ------------------------------------------------------------------
    def projected_overhead(self, sample: AdmissionSample) -> float:
        """Projected caching overhead ``tc / to`` at the end of the file."""
        scale = sample.total_records / sample.sample_records
        to_end = sample.to1 + scale * (sample.to2 - sample.to1)
        tc_end = sample.tc1 + scale * (sample.tc2 - sample.tc1)
        if to_end <= 0.0:
            return 0.0
        return max(0.0, tc_end / to_end)

    def naive_overhead(self, sample: AdmissionSample) -> float:
        """Caching overhead measured only within the sample (no extrapolation).

        This is the estimator the paper argues against: when an expensive
        upstream operator (e.g. a join) dominates ``to`` before the sample
        starts, the sample-local ratio looks deceptively small.
        """
        if sample.to2 <= 0.0:
            return 0.0
        return max(0.0, sample.tc2 / sample.to2)
