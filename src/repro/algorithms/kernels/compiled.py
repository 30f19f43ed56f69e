"""Optional numba-compiled window kernels (the compiled fast path).

This module is the single gate between the repository and numba: it reports
availability (:data:`NUMBA_AVAILABLE`, :func:`numba_version`), resolves the
opt-in (``REPRO_COMPILED=1`` / ``REPRO_BENCH_COMPILED=1``; ``0`` keeps the
per-slot path even when numba is installed) and lazily compiles the window
mega-loops on first use.  Importing it never imports numba eagerly and never
fails — on machines without numba every query degrades to "unavailable" and
the slot engine stays on its (bit-exact) per-slot path.

The compiled contract is **distribution-exact**, not bit-exact: the uniform
draws are precomputed on the NumPy generators (stream-identical to the
scalar policies), so the *sampling* decisions match draw-for-draw, but
transcendental arithmetic (``exp``, ``**``) runs through numba's libm rather
than NumPy's ufunc loops and may differ in the last ulp.  The equivalence
suite therefore applies the statistical branch to compiled runs
(``tests/test_policy_kernels.py``), exactly as it already does for
third-party ``distribution-exact`` kernels.

The mega-loop bodies are plain Python functions (``*_impl``) compiled with
``numba.njit`` on demand; the uncompiled bodies double as the reference
implementation the test-suite runs when numba is absent, so the compiled
semantics stay covered on every platform.
"""

from __future__ import annotations

import logging
import math
import os

import numpy as np

from repro.telemetry.core import get_telemetry

logger = logging.getLogger("repro.compiled")

#: Environment variables that opt a run into the compiled path.
COMPILED_ENV_VARS = ("REPRO_COMPILED", "REPRO_BENCH_COMPILED")

try:  # pragma: no cover - exercised only where numba is installed
    import numba

    NUMBA_AVAILABLE = True
except ImportError:
    numba = None
    NUMBA_AVAILABLE = False

_warned_unavailable = False
#: The event stream the unavailable tier was last reported to.
_reported_to = None


def numba_version() -> str | None:
    """The installed numba version, or ``None`` when absent."""
    return numba.__version__ if NUMBA_AVAILABLE else None


def compiled_requested() -> bool:
    """Whether the environment opts into the compiled path (default: no).

    The compiled tier is opt-in even when numba is installed, because its
    contract is distribution-exact rather than bit-exact; the per-slot path
    (always on) keeps the bit-exactness guarantee.
    """
    for name in COMPILED_ENV_VARS:
        value = os.environ.get(name)
        if value is not None:
            return value not in ("", "0", "false", "no")
    return False


def compiled_enabled() -> bool:
    """Whether compiled window kernels should actually engage.

    Requested *and* available.  A request without numba logs one warning,
    records one ``path_fallback`` telemetry event per event stream, and
    gracefully degrades to the per-slot path (the behaviour the
    graceful-skip test asserts), so `REPRO_BENCH_COMPILED=1` is always safe
    to export.
    """
    global _warned_unavailable, _reported_to
    if not compiled_requested():
        return False
    if not NUMBA_AVAILABLE:
        if not _warned_unavailable:
            logger.warning(
                "compiled kernels requested (%s) but numba is not installed; "
                "falling back to the per-slot path",
                "/".join(COMPILED_ENV_VARS),
            )
            _warned_unavailable = True
        telemetry = get_telemetry()
        if telemetry is not None and telemetry is not _reported_to:
            telemetry.event(
                "path_fallback",
                kind="compiled_tier",
                reason="numba not installed",
            )
            _reported_to = telemetry
        return False
    return True


def exp3_window_impl(
    n_slots,
    idx_lo,
    weights,
    rounds,
    fixed_gamma,
    draws,
    draw_base,
    rows,
    cols,
    net_ids,
    bandwidths,
    num_networks,
    scale_ref,
    prev,
    delay_table,
    choices2d,
    rates2d,
    delays2d,
    switches2d,
    last_local,
    last_prob,
    probs_out,
    gamma_buf,
    counts_buf,
) -> None:
    """Advance one EXP3 group through a membership-stable window.

    One call fuses, for every slot of the window: the mixed-strategy
    computation, the categorical sample (CDF inversion on the precomputed
    uniform ``draws``), the equal-share physics (occupancy counts → rates →
    gains), the importance-weighted update with overflow rescaling, the
    stream-free switching-delay charge and the recorder writes.  Mirrors
    ``EXP3Kernel.begin_slot``/``end_slot`` plus the engine's slot phases
    operation for operation; see the module docstring for the (only)
    tolerated deviation (libm transcendentals under numba).

    Plain Python so it runs (slowly) without numba; the engine calls the
    :func:`exp3_window_kernel` jitted wrapper when compilation is enabled.
    ``prev`` holds *global* network columns (-1 = never chose); all output
    arrays are written in place.
    """
    size = weights.shape[0]
    k = weights.shape[1]
    third = -1.0 / 3.0
    for t in range(n_slots):
        idx = idx_lo + t
        for c in range(num_networks):
            counts_buf[c] = 0
        # Selection: probabilities, one uniform per row, occupancy counts.
        for i in range(size):
            rounds[i] += 1
            g = fixed_gamma[i]
            if g < 0.0:
                r = rounds[i]
                if r < 1:
                    r = 1
                g = r**third
                if g > 1.0:
                    g = 1.0
            gamma_buf[i] = g
            total = 0.0
            for j in range(k):
                total += weights[i, j]
            explore = g / k
            scale = (1.0 - g) / total
            acc = 0.0
            for j in range(k):
                p = scale * weights[i, j] + explore
                probs_out[i, j] = p
                acc += p
            u = draws[i, draw_base + t]
            cum = 0.0
            chosen = 0
            for j in range(k):
                cum += probs_out[i, j]
                if cum / acc <= u:
                    chosen += 1
            if chosen > k - 1:
                chosen = k - 1
            last_local[i] = chosen
            last_prob[i] = probs_out[i, chosen]
            counts_buf[cols[chosen]] += 1
        # Physics, reward update, recorder writes.
        for i in range(size):
            chosen = last_local[i]
            gcol = cols[chosen]
            occupancy = counts_buf[gcol]
            if occupancy < 1:
                occupancy = 1
            rate = bandwidths[gcol] / occupancy
            row = rows[i]
            choices2d[row, idx] = net_ids[gcol]
            rates2d[row, idx] = rate
            gain = rate / scale_ref
            if gain > 1.0:
                gain = 1.0
            p = last_prob[i]
            if p < 1e-12:
                p = 1e-12
            weights[i, chosen] *= math.exp(gamma_buf[i] * (gain / p) / k)
            wmax = weights[i, 0]
            for j in range(1, k):
                if weights[i, j] > wmax:
                    wmax = weights[i, j]
            if wmax > 1e100 or wmax < 1e-100:
                for j in range(k):
                    weights[i, j] /= wmax
            pv = prev[i]
            if pv != gcol:
                if pv != -1:
                    delays2d[row, idx] = delay_table[gcol]
                    switches2d[row, idx] = True
                prev[i] = gcol


_jitted_exp3_window = None


def exp3_window_kernel():
    """The jitted EXP3 window mega-loop, or ``None`` when compilation is off.

    Compiled lazily on first request (``numba.njit(cache=True)``, one
    specialisation per recorder dtype) so import time and numba-free
    machines pay nothing.
    """
    global _jitted_exp3_window
    if not compiled_enabled():
        return None
    if _jitted_exp3_window is None:  # pragma: no cover - needs numba
        _jitted_exp3_window = numba.njit(cache=True, fastmath=False)(
            exp3_window_impl
        )
    return _jitted_exp3_window
