"""Adaptive dynamic prefetch degree (Section VII-B).

"Prefetches are grouped into windows, with the window size equal to the
current degree.  A newly created stream starts with a low degree.  After
some number of confirmations within the window, the degree will be
increased.  If there are too few confirmations in the window, the degree
is decreased."
"""

from __future__ import annotations


class DynamicDegree:
    """Windowed confirmation-driven degree controller for one stream."""

    #: Fraction of the window that must confirm to raise the degree.
    RAISE_FRACTION = 0.6
    #: Fraction below which the degree is lowered.
    LOWER_FRACTION = 0.25

    def __init__(self, min_degree: int = 2, max_degree: int = 16) -> None:
        if not 1 <= min_degree <= max_degree:
            raise ValueError("need 1 <= min_degree <= max_degree")
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.degree = min_degree
        self._window_confirms = 0
        self._window_events = 0
        self.raises = 0

    def record(self, confirmed: bool) -> None:
        """Feed one window event (a prefetch that was/wasn't confirmed)."""
        self._window_events += 1
        if confirmed:
            self._window_confirms += 1
        if self._window_events >= self.degree:
            frac = self._window_confirms / self._window_events
            if frac >= self.RAISE_FRACTION and self.degree < self.max_degree:
                self.degree = min(self.max_degree, self.degree * 2)
                self.raises += 1
            elif frac <= self.LOWER_FRACTION and self.degree > self.min_degree:
                self.degree = max(self.min_degree, self.degree // 2)
            self._window_confirms = 0
            self._window_events = 0

    def reset(self) -> None:
        self.degree = self.min_degree
        self._window_confirms = 0
        self._window_events = 0

    # -- checkpointing (state_dict protocol) --------------------------------

    def state_dict(self) -> dict[str, object]:
        return {
            "degree": self.degree,
            "window_confirms": self._window_confirms,
            "window_events": self._window_events,
            "raises": self.raises,
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        self.degree = int(state["degree"])
        self._window_confirms = int(state["window_confirms"])
        self._window_events = int(state["window_events"])
        self.raises = int(state["raises"])
