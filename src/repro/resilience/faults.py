"""Deterministic, seedable fault injection for the recovery paths.

Recovery code that only runs when hardware misbehaves is dead code until the
day it is load-bearing; this module makes every recovery path exercisable on
demand and *reproducibly*.  A :class:`FaultInjector` carries a registry of
fault specs — installed via ``ExecutionPolicy(faults=...)`` or the
``REPRO_FAULTS`` environment variable — and is consulted at the same guarded
boundaries the real failures would surface at:

========================  ====================================================
fault kind                injection site / effect
========================  ====================================================
``nan-in-gemm-output``    poisons entries of a sketched sample block ``Y``
                          with NaN at the backend launch boundary
``fail-nth-launch``       raises :class:`InjectedFault` at the Nth packed
                          sweep launch (simulates an engine/driver failure);
                          retried, then ``ConstructionFaultError``
``corrupt-artifact-buffer``  flips bytes inside a stored artifact's buffer
                          section after a cache ``put``
``memory-budget-exceeded``  raises
                          :class:`~repro.resilience.errors.MemoryBudgetError`
                          at the packed workspace allocation, in every mode
``stall-convergence``     caps a Krylov solve's ``maxiter`` to ``iters`` so
                          it returns ``converged=False``
========================  ====================================================

Determinism: firing is counter-based (the ``nth`` eligible event fires, for
``times`` firings), and corruption positions come from a dedicated seeded
generator — so a failing CI run replays exactly, and a recovery retry under
``times=1`` sees a clean re-execution.

Spec grammar (``REPRO_FAULTS`` / ``ExecutionPolicy(faults="...")``)::

    kind[:key=value[,key=value...]][;kind...]

e.g. ``"nan-in-gemm-output:nth=2;fail-nth-launch:nth=1,times=3"``.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from .errors import MemoryBudgetError

#: Every fault class the injector understands (also the matrix the
#: fault-injection tests sweep).
FAULT_KINDS = (
    "nan-in-gemm-output",
    "fail-nth-launch",
    "corrupt-artifact-buffer",
    "memory-budget-exceeded",
    "stall-convergence",
)


class InjectedFault(RuntimeError):
    """The raw injected failure — stands in for a backend/driver error.

    Deliberately *not* a :class:`~repro.resilience.errors.ResilienceError`:
    it models the untyped exception a real engine failure would raise; the
    guards are responsible for wrapping it into the typed hierarchy.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault class.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    nth:
        Fire on the ``nth`` eligible event (1-based) at the fault's site.
    times:
        How many times to fire once armed (``-1``: every eligible event).
    count:
        Entries to poison / bytes to flip for the corruption faults.
    iters:
        The ``maxiter`` cap imposed by ``stall-convergence``.
    """

    kind: str
    nth: int = 1
    times: int = 1
    count: int = 4
    iters: int = 3

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; registered: {list(FAULT_KINDS)}"
            )
        if self.nth < 1:
            raise ValueError("nth must be >= 1 (1-based event index)")


def _parse_spec(text: str) -> List[FaultSpec]:
    specs: List[FaultSpec] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        kind, _, params = part.partition(":")
        spec = FaultSpec(kind=kind.strip().casefold())
        for item in params.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in ("nth", "times", "count", "iters"):
                raise ValueError(
                    f"malformed fault parameter {item!r} in {part!r}; "
                    "expected nth=/times=/count=/iters="
                )
            spec = replace(spec, **{key: int(value)})
        specs.append(spec)
    return specs


class FaultInjector:
    """Counter-based deterministic fault injection at the guarded boundaries.

    Parameters
    ----------
    specs:
        A spec string (see the module grammar), a single :class:`FaultSpec`,
        or an iterable of specs/strings.
    seed:
        Seed of the generator choosing corruption positions.  Fixed per
        injector so a CI failure replays bit-identically.
    """

    def __init__(
        self,
        specs: Union[str, FaultSpec, Iterable[Union[str, FaultSpec]]] = (),
        seed: int = 0,
    ):
        self.specs: Dict[str, FaultSpec] = {}
        if isinstance(specs, (str, FaultSpec)):
            specs = [specs]
        for item in specs:
            for spec in _parse_spec(item) if isinstance(item, str) else [item]:
                self.specs[spec.kind] = spec
        self._events: Dict[str, int] = {}
        self._fired: Dict[str, int] = {}
        #: Chronological record of every firing (kind, site, event index).
        self.log: List[Dict[str, object]] = []
        self._rng = np.random.default_rng(seed)
        # One injector serves every thread of a policy (the server's worker
        # pool among them): the event counts, the firing log and the
        # generator's draws are read-modify-writes, serialised here.
        self._lock = threading.Lock()

    @classmethod
    def from_spec(cls, text: str, seed: int = 0) -> "FaultInjector":
        """Injector from the ``REPRO_FAULTS`` grammar."""
        return cls(text, seed=seed)

    # ------------------------------------------------------------------ firing
    def installed(self, kind: str) -> bool:
        return kind in self.specs

    def fired(self, kind: str) -> int:
        """How many times ``kind`` has fired so far."""
        return self._fired.get(kind, 0)

    def _fire(self, kind: str, site: str) -> Optional[FaultSpec]:
        spec = self.specs.get(kind)
        if spec is None:
            return None
        with self._lock:
            events = self._events.get(kind, 0) + 1
            self._events[kind] = events
            if events < spec.nth:
                return None
            fired = self._fired.get(kind, 0)
            if spec.times >= 0 and fired >= spec.times:
                return None
            self._fired[kind] = fired + 1
            self.log.append({"kind": kind, "site": site, "event": events})
        return spec

    # ------------------------------------------------------------- fault sites
    def fail_launch(self, site: str) -> None:
        """Raise :class:`InjectedFault` when ``fail-nth-launch`` is armed."""
        if self._fire("fail-nth-launch", site) is not None:
            raise InjectedFault(f"injected launch failure at {site}")

    def memory_budget(self, site: str) -> None:
        """Raise a typed budget breach when ``memory-budget-exceeded`` fires."""
        if self._fire("memory-budget-exceeded", site) is not None:
            raise MemoryBudgetError(
                f"injected memory-budget breach at {site}",
                stage=site,
                context={"injected": True},
            )

    def corrupt_gemm_output(self, y: np.ndarray) -> np.ndarray:
        """A NaN-poisoned copy of a sample block when the fault fires."""
        spec = self._fire("nan-in-gemm-output", "construct.sample")
        if spec is None:
            return y
        poisoned = np.array(y, dtype=np.float64, copy=True)
        k = min(max(1, spec.count), poisoned.size)
        with self._lock:
            positions = self._rng.choice(poisoned.size, size=k, replace=False)
        poisoned.flat[positions] = np.nan
        return poisoned

    def corrupt_artifact(self, path: object) -> bool:
        """Flip bytes inside the buffer section of a stored artifact.

        Offsets are drawn from the second half of the file so the corruption
        lands in buffer data (the header is a few hundred bytes at the front)
        and is caught by the per-buffer checksums, not by JSON parsing.
        """
        spec = self._fire("corrupt-artifact-buffer", "persist.put")
        if spec is None:
            return False
        size = os.path.getsize(path)
        lo = size // 2
        k = max(1, spec.count)
        with self._lock:
            offsets = self._rng.integers(lo, size, size=k)
        with open(path, "r+b") as fh:
            for offset in offsets:
                fh.seek(int(offset))
                byte = fh.read(1)
                fh.seek(int(offset))
                fh.write(bytes([byte[0] ^ 0xFF]))
        return True

    def stall_maxiter(self, default: Optional[int]) -> Optional[int]:
        """The ``maxiter`` a solve should run with (capped while firing)."""
        spec = self._fire("stall-convergence", "solve")
        if spec is None:
            return default
        if default is None:
            return spec.iters
        return min(int(default), spec.iters)

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        kinds = ",".join(sorted(self.specs))
        return f"FaultInjector([{kinds}], fired={dict(self._fired)})"
