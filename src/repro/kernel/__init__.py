"""Columnar replay kernel — the vectorized per-shard fast path.

This package is the optimization layer behind ``ExecutionSpec.kernel ==
"vectorized"``: each replay batch (up to ``KERNEL_BATCH_FLOWS`` flows before
the next control event, the periodic ticks among them walked in place)
arrives as a column chunk, is read as parallel numpy arrays without a copy
and grouped by (src, dst) host pair.  Each pair's arrival structure is then
put to its ingress switch — ``EdgeSwitch.classify_run``, the question
``forward_key`` asks for a run of one — two cross-pair hazards (table
eviction, G-FIB memo clear) are guarded, the decided pairs are applied once
for all their flows through ``EdgeSwitch.apply_run`` and
``EdgePlane.settle_run``, a rule's run is cut where its timer can fire and
each piece applied at its first flow, and everything that needs the control
plane (a packet-in, table pressure) goes flow by flow through
``EdgePlane.first_packet``, the step ``EdgePlane.flow_arrival`` takes, on the
pair's flow key and the time column: no record or result is
built.  A link meter is one more pass over columns — the batch's inter-switch
flows through ``EdgePlane.link_penalties_ms``.  The batch is then folded into
the latency recorder, the intensity window and the timeline.  The kernel is *not* a
second semantics — it holds no forwarding rule of its own, and
``tests/test_kernel_boundaries.py`` keeps it off its owners' internals —
so counters, timelines, latency totals, link matrices and every switch's end
state stay bit-identical to the scalar replayer;
``tests/test_kernel_equivalence.py`` gates exactly that.

numpy is deliberately a soft dependency: importing :mod:`repro` (and running
any scalar replay) never imports this package, and the column chunks it reads
(:mod:`repro.traffic.chunk`) are stdlib buffers — this package is the only
place they meet numpy.  Requesting
``kernel=vectorized`` without numpy installed raises a
:class:`~repro.common.errors.ConfigurationError` instead of an ImportError
deep inside a replay.
"""

from __future__ import annotations

from importlib import util as _importlib_util

from repro.common.errors import ConfigurationError
from repro.perf.recorder import NULL_RECORDER

__all__ = ["build_batch_handler", "numpy_available", "require_numpy"]


def numpy_available() -> bool:
    """Whether numpy can be imported (without importing it)."""
    return _importlib_util.find_spec("numpy") is not None


def require_numpy() -> None:
    """Raise a clear configuration error when numpy is missing."""
    if not numpy_available():
        raise ConfigurationError(
            "execution kernel 'vectorized' requires numpy, which is not "
            "installed; install the package (pip install numpy) or run with "
            "kernel=scalar"
        )


def build_batch_handler(plane, *, perf=NULL_RECORDER):
    """Build the vectorized batch handler for one control plane.

    Returns a callable accepting one replay batch (a
    :class:`~repro.traffic.chunk.FlowChunk` view), whose ``walk(batch,
    ticks)`` also walks the periodic ticks inside one, or ``None`` when
    ``plane`` is not an :class:`~repro.core.system.EdgePlane` (a design that
    implements only the ``ControlPlane`` protocol keeps the scalar path).  Raises
    :class:`~repro.common.errors.ConfigurationError` when numpy is missing.
    """
    require_numpy()
    from repro.kernel.columnar import build_kernel

    return build_kernel(plane, perf=perf)
