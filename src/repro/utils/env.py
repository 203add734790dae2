"""Normalization of configuration choices and environment overrides.

Every place that accepts a *named choice* — backend names
(:mod:`repro.backends`), recovery modes, format names, the ``REPRO_*``
environment variables — must agree on how values are normalized, or the same
spelling is accepted in one spot and rejected in another (``"Vectorized"``
resolved while ``" vectorized"`` raised).  These helpers are that single
agreement: strip surrounding whitespace, then casefold.
"""

from __future__ import annotations

import os


def normalize_choice(value: str) -> str:
    """Canonical form of a configuration choice: stripped and casefolded.

    Applied to every user-supplied choice string (backend names, recovery
    modes, format names) *and* to every ``REPRO_*`` environment
    value before comparison, so ``" Vectorized "`` and ``"vectorized"`` are
    the same choice everywhere.
    """
    return value.strip().casefold()


def env_choice(name: str, default: str) -> str:
    """A normalized choice read from environment variable ``name``.

    Unset, empty or whitespace-only values fall back to ``default`` (itself
    normalized), so ``REPRO_BACKEND=""`` behaves like an absent override.
    """
    raw = os.environ.get(name)
    if raw is None:
        return normalize_choice(default)
    value = normalize_choice(raw)
    return value if value else normalize_choice(default)


def env_path(name: str) -> str | None:
    """A filesystem path read from environment variable ``name``.

    Paths are stripped of surrounding whitespace but — unlike choices — never
    casefolded (paths are case-sensitive).  Unset or blank values return
    ``None``.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    value = raw.strip()
    return value or None
