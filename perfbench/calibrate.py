"""A fixed reference loop that gauges how fast the machine runs right now.

On a shared host the same code runs 20-40% faster or slower from one
minute to the next, and faster or slower again within a second, which is
more than any bound the benchmark could keep.  So while a repetition's
timed section runs, a ``SIGALRM`` timer interrupts it every ``PERIOD_S``
seconds and plays ``SLICE_ROUNDS`` rounds of this loop in the signal
handler.  The loop's time is taken out of the section's wall time, and
the rest is scaled by ``REFERENCE_ROUND_S`` over the loop's measured time
per round: a time is reported as the seconds it would have taken on a
machine that plays one round in ``REFERENCE_ROUND_S``.  Because the slices
are spread through the section, they see the same slow and fast spells
the program does.  A slower program still reads slower, because the loop
does not depend on the program under test; a slower machine reads the
same.

The loop is a small EXP3 game written against NumPy alone: 20 players, 3
arms, one round per step, so its mix of interpreter work and small-array
calls is the simulator's own.  It never imports ``repro`` and has its own
random generator, so it cannot change what the program computes.  Interval
timers are not inherited across ``fork``, so worker processes the program
starts are never interrupted.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between two slices of the loop.
PERIOD_S = 0.05
#: Rounds of the loop in one slice (about 5 ms).
SLICE_ROUNDS = 150
#: Seconds one round takes, median of many, on the 2-core Intel Xeon VM
#: (Python 3.11, NumPy 2.4) the benchmark was defined on.
REFERENCE_ROUND_S = 3.0e-5


class ReferenceLoop:
    """Context manager: slices of the reference game from a timer signal.

    After the ``with`` block, ``seconds`` is the time spent in slices and
    ``round_s`` the measured time of one round.
    """

    PLAYERS, ARMS, GAMMA = 20, 3, 0.1

    def __init__(self) -> None:
        self.rng = np.random.default_rng(12345)
        self.bandwidth = np.array([4.0, 7.0, 22.0])
        self.rows = np.arange(self.PLAYERS)
        self.log_weights = np.zeros((self.PLAYERS, self.ARMS))
        self.seconds = 0.0
        self.rounds = 0
        self._previous = None

    @property
    def round_s(self) -> float:
        return self.seconds / self.rounds

    def play(self, _signum=None, _frame=None) -> None:
        """One slice of ``SLICE_ROUNDS`` rounds."""
        started = time.perf_counter()
        gamma, arms = self.GAMMA, self.ARMS
        rows, bandwidth, log_weights = self.rows, self.bandwidth, self.log_weights
        for _ in range(SLICE_ROUNDS):
            weights = np.exp(log_weights - log_weights.max(axis=1, keepdims=True))
            probs = (1 - gamma) * weights / weights.sum(axis=1, keepdims=True) + gamma / arms
            choice = (probs.cumsum(axis=1) < self.rng.random((self.PLAYERS, 1))).sum(axis=1)
            load = np.bincount(choice, minlength=arms)
            reward = bandwidth[choice] / load[choice] / bandwidth.max()
            log_weights[rows, choice] += gamma * reward / probs[rows, choice] / arms
        log_weights -= log_weights.max(axis=1, keepdims=True)
        self.seconds += time.perf_counter() - started
        self.rounds += SLICE_ROUNDS

    def __enter__(self) -> "ReferenceLoop":
        self._previous = signal.signal(signal.SIGALRM, self.play)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
