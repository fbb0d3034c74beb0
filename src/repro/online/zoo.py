"""Per-regime model zoo: remember specialists instead of retraining.

A continually-adapting student wins the *current* regime at the cost of
the old one (PR 9 measured clean-holdout MAE 533 vs the frozen parent's
94).  The survey literature's answer — MRGRP conditions couriers on
relational weather/region context; DeepETA keeps cohort-specific heads
— is to treat regimes as first-class: keep one model per regime and
*switch*, so a regime returning (the storm clears) re-activates the
version that already knows it instead of paying another fine-tune and
another round of forgetting.

The zoo is an index over :class:`~repro.deploy.ModelRegistry`
manifests, not a second store: any version whose manifest carries a
``regime`` tag — stamped at registration by the online loop (lineage
``gate_passed`` required) or explicitly via
:meth:`~repro.deploy.ModelRegistry.tag_regime` — is eligible, newest
sequence per regime wins.  Regime keys come from the labels the
:class:`~repro.online.buffer.ExperienceBuffer` already carries: the
weather code is binned into ``weather:calm`` (codes 0–1) versus
``weather:storm`` (codes 2–3), matching the coarse service-time /
ETA-delay coupling in the load harness (codes 2–3 are the ones that
move ETAs by tens of minutes).
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

STORM_WEATHER_MIN = 2   # weather codes >= this count as "storm"


def weather_regime(weather: int) -> str:
    """Bin a simulator weather code (0-3) into a coarse regime key."""
    return ("weather:storm" if int(weather) >= STORM_WEATHER_MIN
            else "weather:calm")


def majority_regime(experiences: Sequence) -> Optional[str]:
    """Strict-majority regime over experiences' weather labels.

    Returns ``None`` when no regime holds a strict majority (mixed
    traffic) — callers treat that as "don't switch".
    """
    if not experiences:
        return None
    counts: Dict[str, int] = {}
    for experience in experiences:
        weather = experience.labels.get("weather", "0")
        try:
            key = weather_regime(int(weather))
        except (TypeError, ValueError):
            continue
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        return None
    regime, votes = max(counts.items(), key=lambda item: item[1])
    if votes * 2 <= len(experiences):
        return None
    return regime


def _gate_passed(notes: str) -> bool:
    """Whether lineage notes say the anti-regression gate passed.

    Versions with no lineage (seed parents, explicit ``tag_regime``
    stamps) are trusted — only a *recorded* gate failure disqualifies.
    """
    if not notes:
        return True
    try:
        lineage = json.loads(notes)
    except (TypeError, ValueError):
        return True
    if not isinstance(lineage, dict):
        return True
    return bool(lineage.get("gate_passed", True))


class ModelZoo:
    """Regime → best registered version, indexed from manifests."""

    def __init__(self, registry):
        self.registry = registry
        self._entries: Dict[str, str] = {}
        self._sequences: Dict[str, int] = {}

    def refresh(self) -> Dict[str, str]:
        """Re-scan the registry; returns the regime → version mapping."""
        entries: Dict[str, str] = {}
        sequences: Dict[str, int] = {}
        for version in self.registry.versions():
            manifest = self.registry.manifest(version)
            regime = getattr(manifest, "regime", "") or ""
            if not regime or not _gate_passed(manifest.notes):
                continue
            if sequences.get(regime, -1) < manifest.sequence:
                sequences[regime] = manifest.sequence
                entries[regime] = manifest.version
        self._entries = entries
        self._sequences = sequences
        return dict(entries)

    def version_for(self, regime: Optional[str]) -> Optional[str]:
        """Best version for ``regime``, or None if the zoo has none."""
        if not regime:
            return None
        return self._entries.get(regime)

    def mapping(self) -> Dict[str, str]:
        """Current regime → version snapshot (refresh first)."""
        return dict(self._entries)

    def regimes(self) -> List[str]:
        return sorted(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
