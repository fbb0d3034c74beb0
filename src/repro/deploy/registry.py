"""Versioned model registry: manifests, integrity hashing, resolution.

The paper retrains M²G4RTP continuously as courier behaviour drifts
(Section VI runs it inside Cainiao's production pipeline); a serving
fleet therefore needs a durable home for *versions* of the model, not
one bare checkpoint.  :class:`ModelRegistry` lays versions out on disk
as::

    registry_dir/
      v001/
        model.npz        # atomic checkpoint (training.checkpoint)
        manifest.json    # ModelManifest: config, metrics, seed, sha256
      v002/...
      ACTIVE             # version currently promoted to serve traffic
      PINNED             # optional pin overriding "latest" resolution

Every checkpoint is SHA-256 hashed at registration and re-hashed at
load; a corrupt or tampered file raises
:class:`CheckpointIntegrityError` instead of serving garbage weights.
``resolve`` understands the symbolic refs ``latest`` (pin-aware) and
``active`` alongside literal version names.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core import M2G4RTP, M2G4RTPConfig
from ..training.checkpoint import (atomic_write, load_checkpoint,
                                   save_checkpoint)

MANIFEST_NAME = "manifest.json"
CHECKPOINT_NAME = "model.npz"
_VERSION_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


class RegistryError(RuntimeError):
    """The registry is missing a version or got an invalid request."""


class CheckpointIntegrityError(RegistryError):
    """A stored checkpoint no longer matches its manifest hash."""


def sha256_of_file(path: Union[str, Path]) -> str:
    """Streaming SHA-256 hex digest of a file."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    with atomic_write(path, "w") as handle:
        handle.write(text)


@dataclasses.dataclass
class ModelManifest:
    """Everything needed to rebuild and trust one registered version."""

    version: str
    sequence: int                      # monotonic registration order
    created_at: str                    # caller-provided timestamp string
    checkpoint_sha256: str
    model_config: Dict[str, object]    # dataclasses.asdict(M2G4RTPConfig)
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    data_seed: Optional[int] = None
    notes: str = ""
    #: Traffic regime this version specialises in (e.g. ``weather:calm``
    #: / ``weather:storm``), keyed on the labels the experience buffer
    #: carries.  Empty for regime-agnostic versions; the model zoo only
    #: indexes tagged ones.
    regime: str = ""

    def to_json(self) -> str:
        """Serialise as pretty-printed JSON."""
        return json.dumps(dataclasses.asdict(self), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelManifest":
        """Parse a manifest previously written by :meth:`to_json`."""
        return ModelManifest(**json.loads(text))


class ModelRegistry:
    """Directory of versioned checkpoints with manifests and pointers."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, model: M2G4RTP, *, version: Optional[str] = None,
                 metrics: Optional[Dict[str, float]] = None,
                 data_seed: Optional[int] = None,
                 created_at: str = "", notes: str = "",
                 regime: str = "") -> ModelManifest:
        """Store ``model`` as a new version; returns its manifest.

        ``created_at`` is passed in by the caller (a timestamp string)
        so registration is deterministic and replayable.  Auto-versions
        are ``v001``, ``v002``, … in registration order.
        """
        sequence = self._next_sequence()
        if version is None:
            version = f"v{sequence:03d}"
        if not _VERSION_RE.match(version):
            raise RegistryError(f"invalid version name {version!r}")
        version_dir = self.root / version
        if version_dir.exists():
            raise RegistryError(f"version {version!r} already registered")
        version_dir.mkdir(parents=True)
        checkpoint_path = save_checkpoint(model, version_dir / CHECKPOINT_NAME)
        manifest = ModelManifest(
            version=version,
            sequence=sequence,
            created_at=created_at,
            checkpoint_sha256=sha256_of_file(checkpoint_path),
            model_config=dataclasses.asdict(model.config),
            metrics=dict(metrics or {}),
            data_seed=data_seed,
            notes=notes,
            regime=regime,
        )
        _atomic_write_text(version_dir / MANIFEST_NAME, manifest.to_json())
        return manifest

    def tag_regime(self, version: str, regime: str) -> ModelManifest:
        """Stamp (or re-stamp) a version's regime tag in place.

        The checkpoint hash covers only the weights file, so rewriting
        the manifest is safe; the write is atomic like registration.
        """
        version = self.resolve(version)
        manifest = self.manifest(version)
        manifest = dataclasses.replace(manifest, regime=str(regime))
        _atomic_write_text(
            self.root / version / MANIFEST_NAME, manifest.to_json())
        return manifest

    def _next_sequence(self) -> int:
        manifests = [self.manifest(v) for v in self.versions()]
        return max((m.sequence for m in manifests), default=0) + 1

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def versions(self) -> List[str]:
        """Registered version names, oldest first (by sequence)."""
        found: List[Tuple[int, str]] = []
        for entry in self.root.iterdir():
            manifest_path = entry / MANIFEST_NAME
            if entry.is_dir() and manifest_path.exists():
                manifest = ModelManifest.from_json(manifest_path.read_text())
                found.append((manifest.sequence, entry.name))
        return [name for _, name in sorted(found)]

    def manifest(self, version: str) -> ModelManifest:
        """Manifest of one literal version name."""
        manifest_path = self.root / version / MANIFEST_NAME
        if not manifest_path.exists():
            raise RegistryError(
                f"unknown version {version!r}; have {self.versions()}")
        return ModelManifest.from_json(manifest_path.read_text())

    def checkpoint_path(self, version: str) -> Path:
        """Path of the version's ``.npz`` checkpoint file."""
        return self.root / version / CHECKPOINT_NAME

    def latest(self) -> str:
        """Newest registered version; the pin, if set, wins."""
        pinned = self.pinned()
        if pinned is not None:
            return pinned
        versions = self.versions()
        if not versions:
            raise RegistryError(f"registry {self.root} is empty")
        return versions[-1]

    def resolve(self, ref: str) -> str:
        """Resolve ``latest``/``active`` or a literal version name."""
        if ref == "latest":
            return self.latest()
        if ref == "active":
            active = self.active()
            if active is None:
                raise RegistryError("no version has been activated yet")
            return active
        self.manifest(ref)  # raises RegistryError if unknown
        return ref

    # ------------------------------------------------------------------
    # Pointers: pin and active
    # ------------------------------------------------------------------
    def pin(self, version: str) -> None:
        """Pin ``latest`` resolution to one version (ops override)."""
        _atomic_write_text(self.root / "PINNED", self.resolve(version))

    def unpin(self) -> None:
        """Remove the pin; ``latest`` returns to newest-registered."""
        pin_path = self.root / "PINNED"
        if pin_path.exists():
            pin_path.unlink()

    def pinned(self) -> Optional[str]:
        """Currently pinned version name, or ``None``."""
        pin_path = self.root / "PINNED"
        return pin_path.read_text().strip() if pin_path.exists() else None

    def activate(self, version: str) -> None:
        """Point ACTIVE at ``version`` and append it to the history.

        Both files are written whole and atomically, ACTIVE first: a
        failed ACTIVE write leaves both as they were, and a failed
        history write leaves the history one entry behind ACTIVE, which
        :meth:`rollback_active` tolerates.
        """
        version = self.resolve(version)
        history = self.activation_history() + [version]
        _atomic_write_text(self.root / "ACTIVE", version)
        _atomic_write_text(self.root / "ACTIVE_HISTORY",
                           "".join(entry + "\n" for entry in history))

    def active(self) -> Optional[str]:
        """The currently promoted version, or ``None``."""
        active_path = self.root / "ACTIVE"
        return active_path.read_text().strip() if active_path.exists() else None

    def activation_history(self) -> List[str]:
        """Every version ever activated, oldest first."""
        history_path = self.root / "ACTIVE_HISTORY"
        if not history_path.exists():
            return []
        return [line for line in history_path.read_text().splitlines() if line]

    def rollback_active(self) -> Optional[str]:
        """Re-activate the previously active version; returns it.

        That is the newest history entry other than ACTIVE, so a
        history write lost to a failed :meth:`activate` still rolls
        back to the version before the active one.
        """
        active = self.active()
        previous = next((version for version
                         in reversed(self.activation_history())
                         if version != active), None)
        if previous is None:
            raise RegistryError("no earlier activation to roll back to")
        self.activate(previous)
        return previous

    # ------------------------------------------------------------------
    # Integrity and loading
    # ------------------------------------------------------------------
    def verify(self, version: str) -> bool:
        """``True`` iff the stored checkpoint matches its manifest hash."""
        manifest = self.manifest(version)
        checkpoint = self.checkpoint_path(version)
        return (checkpoint.exists()
                and sha256_of_file(checkpoint) == manifest.checkpoint_sha256)

    def load(self, ref: str = "latest") -> Tuple[M2G4RTP, ModelManifest]:
        """Rebuild and weight-load one version, integrity-checked.

        Raises :class:`CheckpointIntegrityError` when the file hash
        disagrees with the manifest (bit-rot, partial copy, tampering),
        :class:`RegistryError` when the manifest's model config names a
        field :class:`~repro.core.M2G4RTPConfig` does not have, and
        :class:`~repro.training.checkpoint.CheckpointError` when the
        archive itself is unreadable or mismatched.
        """
        version = self.resolve(ref)
        manifest = self.manifest(version)
        checkpoint = self.checkpoint_path(version)
        if not checkpoint.exists():
            raise RegistryError(f"version {version!r} has no checkpoint file")
        actual = sha256_of_file(checkpoint)
        if actual != manifest.checkpoint_sha256:
            raise CheckpointIntegrityError(
                f"checkpoint {checkpoint} fails integrity check: "
                f"manifest sha256 {manifest.checkpoint_sha256[:12]}… "
                f"vs file {actual[:12]}…")
        try:
            config = M2G4RTPConfig.from_dict(manifest.model_config)
        except ValueError as exc:
            raise RegistryError(f"version {version!r}: {exc}") from exc
        model = M2G4RTP(config)
        load_checkpoint(model, checkpoint)
        model.eval()
        return model, manifest
