"""The update-significance criterion.

The PSN measures the delay of every packet it forwards and averages per
outgoing link over a ten-second period (the link's transmitter keeps the
sum and count: :meth:`~repro.psn.interfaces.LinkTransmitter.take_delay`).
The metric turns the average into a cost, which is compared with the
last *reported* value; if the difference passes a significance criterion a
routing update goes out.  *"The significance criterion gets adjusted
downward each time it is not satisfied ... the maximum time between
routing updates for each PSN is 50 seconds"* -- so even an idle, unchanged
link re-advertises its cost every 50 s for reliability.
"""

from __future__ import annotations

from repro.units import MAX_UPDATE_INTERVAL_S, MEASUREMENT_INTERVAL_S


#: Unsatisfied measurement intervals before an update is forced (5).
_STEPS = MAX_UPDATE_INTERVAL_S / MEASUREMENT_INTERVAL_S


class SignificanceCriterion:
    """The decaying update-generation threshold for one link.

    Starts at the metric's change threshold and steps down linearly each
    unsatisfied ``MEASUREMENT_INTERVAL_S``, reaching zero after
    ``MAX_UPDATE_INTERVAL_S`` so an update is forced at least that often.
    """

    def __init__(self, initial_threshold: float) -> None:
        if initial_threshold < 0:
            raise ValueError(
                f"threshold must be >= 0, got {initial_threshold}"
            )
        self.initial_threshold = float(initial_threshold)
        #: Decay applied after each unsatisfied interval.  After
        #: (steps - 1) failures the threshold is exactly zero, so the
        #: check on the steps-th interval always passes.
        self._decay = self.initial_threshold / (_STEPS - 1.0)
        self.threshold = self.initial_threshold

    def should_report(self, change: float) -> bool:
        """Test a cost change; decay on failure, re-arm on success."""
        if abs(change) >= self.threshold:
            self.threshold = self.initial_threshold
            return True
        self.threshold = max(self.threshold - self._decay, 0.0)
        return False
