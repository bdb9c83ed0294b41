"""Discovery and loading of checker packs.

The paper's thesis is that system implementors write their own
checkers; this module makes that a first-class workflow.  A pack
directory (see :mod:`repro.packs.manifest`) is discovered from
``--pack-dir`` flags, the ``MC_CHECK_PACK_PATH`` environment variable,
or a project-level ``mc-check.toml``; loading it

* validates the manifest (schema, engine-version constraint),
* imports each Python checker module and registers every
  :class:`~repro.checkers.base.Checker` subclass it defines,
* parses each metal program, **lints it** with the checker-of-checkers
  (:func:`repro.metal.lint.lint_machine`) — a machine with undeclared
  targets, unreachable states, or dead rules is refused with a
  structured diagnostic — and wraps it as a registered checker,
* records provenance (:class:`~repro.checkers.base.CheckerOrigin`:
  pack name, version, source file) so cache keys, report JSON, and
  ``mc-check explain`` attribute every finding to the pack.

Loading is transactional per pack: any failure unregisters whatever
the pack had registered so far, so a broken pack leaves no residue.
Re-loading the same pack directory is idempotent; re-loading it after
a version bump replaces the previous registration (a pack upgrade).
Name collisions between packs, or with builtins, are load errors.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

from ..mc.registry import CheckerOrigin
from .manifest import MANIFEST_NAME, PackError, PackManifest, load_manifest

__all__ = [
    "LoadedPack", "discover_pack_dirs", "load_pack", "load_packs",
    "loaded_packs", "clear_packs", "project_pack_dirs",
    "PACK_PATH_ENV", "PROJECT_CONFIG",
]

#: ``os.pathsep``-separated pack directories, merged after ``--pack-dir``.
PACK_PATH_ENV = "MC_CHECK_PACK_PATH"

#: Project-level configuration file consulted in the working directory:
#: ``[packs] dirs = ["./packs/foo", ...]`` (paths relative to the file).
PROJECT_CONFIG = "mc-check.toml"


@dataclass(frozen=True)
class LoadedPack:
    """One successfully loaded pack and the checker names it provides."""

    manifest: PackManifest
    checkers: tuple

    @property
    def name(self) -> str:
        return self.manifest.name

    @property
    def version(self) -> str:
        return self.manifest.version

    @property
    def label(self) -> str:
        return self.manifest.label


#: Pack name -> LoadedPack, in load order.
_LOADED: dict[str, LoadedPack] = {}


def loaded_packs() -> list[LoadedPack]:
    """Every currently loaded pack, in load order."""
    return list(_LOADED.values())


def clear_packs() -> None:
    """Unload every pack (tests; daemon reconfiguration)."""
    for pack in list(_LOADED.values()):
        _unload(pack)
    _LOADED.clear()


def _unload(pack: LoadedPack) -> None:
    from ..checkers.base import unregister_pack_checker
    for name in pack.checkers:
        unregister_pack_checker(name)


# -- discovery ---------------------------------------------------------------

def project_pack_dirs(start: Optional[Path] = None) -> list[Path]:
    """Pack directories named by ``mc-check.toml`` in ``start`` (default:
    the working directory).  Missing file means no project packs; a
    malformed file is a structured :class:`PackError`."""
    base = Path(start) if start is not None else Path.cwd()
    config = base / PROJECT_CONFIG
    if not config.is_file():
        return []
    from .manifest import _parse_toml
    try:
        text = config.read_text()
    except OSError as exc:
        raise PackError(f"{config}: unreadable: {exc}") from None
    doc = _parse_toml(text, str(config))
    packs = doc.get("packs", {})
    if not isinstance(packs, dict):
        raise PackError(f"{config}: [packs] must be a table")
    dirs = packs.get("dirs", [])
    if not isinstance(dirs, list) or not all(
            isinstance(d, str) for d in dirs):
        raise PackError(f"{config}: [packs] dirs must be a list of paths")
    return [(base / d) if not Path(d).is_absolute() else Path(d)
            for d in dirs]


def discover_pack_dirs(cli_dirs: Iterable = (),
                       env: Optional[dict] = None,
                       project_root: Optional[Path] = None) -> list[Path]:
    """Resolve the run's pack directories, in deterministic order:
    ``--pack-dir`` flags first, then ``$MC_CHECK_PACK_PATH`` entries,
    then the project config's — each expanded so a directory that
    *contains* packs (subdirectories with a ``pack.toml``) contributes
    every pack it holds, sorted by name."""
    environ = env if env is not None else os.environ
    roots: list[Path] = [Path(d) for d in cli_dirs]
    path_var = environ.get(PACK_PATH_ENV, "")
    roots.extend(Path(part) for part in path_var.split(os.pathsep) if part)
    roots.extend(project_pack_dirs(project_root))
    result: list[Path] = []
    seen: set[str] = set()
    for root in roots:
        for pack_dir in _expand(root):
            key = str(pack_dir.resolve())
            if key in seen:
                continue
            seen.add(key)
            result.append(pack_dir)
    return result


def _expand(root: Path) -> list[Path]:
    """A pack directory itself, or every pack directory inside it."""
    if (root / MANIFEST_NAME).is_file():
        return [root]
    if not root.is_dir():
        raise PackError(f"{root}: not a directory (and no {MANIFEST_NAME})")
    found = sorted(
        (child for child in root.iterdir()
         if child.is_dir() and (child / MANIFEST_NAME).is_file()),
        key=lambda p: p.name)
    if not found:
        raise PackError(
            f"{root}: no {MANIFEST_NAME} here or in any subdirectory")
    return found


# -- loading -----------------------------------------------------------------

def load_packs(dirs: Iterable) -> list[LoadedPack]:
    """Load every pack directory in order; returns the loaded packs.

    Idempotent for already-loaded (same directory, same version) packs;
    a version change at the same directory replaces the old
    registration.  Two *different* directories claiming the same pack
    name are a structured error.
    """
    packs: list[LoadedPack] = []
    for pack_dir in dirs:
        packs.append(load_pack(pack_dir))
    return packs


def load_pack(pack_dir) -> LoadedPack:
    """Load one pack directory (manifest, modules, lint, registration).

    Importing the checkers here registers every builtin first, so the
    registry a run consults from then on holds the builtins and the
    packs, in that order.
    """
    from ..checkers.base import unregister_pack_checker
    manifest = load_manifest(pack_dir)
    previous = _LOADED.get(manifest.name)
    if previous is not None:
        same_root = (previous.manifest.root.resolve()
                     == manifest.root.resolve())
        if not same_root:
            raise PackError(
                f"{manifest.root}/{MANIFEST_NAME}: duplicate pack name "
                f"{manifest.name!r} (already loaded from "
                f"{previous.manifest.root})")
        if previous.version == manifest.version:
            return previous  # idempotent re-load (e.g. worker re-init)
        _unload(previous)   # version bump at the same root: upgrade
        _LOADED.pop(manifest.name, None)

    origin_of = lambda rel: CheckerOrigin(  # noqa: E731 - tiny helper
        pack=manifest.name, version=manifest.version,
        source=str(manifest.root / rel))
    registered: list[str] = []
    try:
        for rel in manifest.python_checkers:
            registered.extend(
                _load_python_module(manifest, rel, origin_of(rel)))
        for rel in manifest.metal_checkers:
            registered.append(
                _load_metal_checker(manifest, rel, origin_of(rel)))
    except PackError:
        for name in registered:
            unregister_pack_checker(name)
        raise
    except Exception as exc:
        for name in registered:
            unregister_pack_checker(name)
        raise PackError(
            f"pack {manifest.label}: load failed: "
            f"{type(exc).__name__}: {exc}") from None
    pack = LoadedPack(manifest=manifest, checkers=tuple(registered))
    _LOADED[manifest.name] = pack
    return pack


def _load_python_module(manifest: PackManifest, rel: str,
                        origin: CheckerOrigin) -> list[str]:
    """Import one pack module and register its checker classes."""
    from ..checkers.base import (
        Checker,
        register_pack_checker,
        unregister_pack_checker,
    )
    path = manifest.root / rel
    module_name = (f"repro_packs.{manifest.name.replace('-', '_')}"
                   f".{path.stem}")
    spec = importlib.util.spec_from_file_location(module_name, path)
    if spec is None or spec.loader is None:
        raise PackError(
            f"pack {manifest.label}: cannot import {rel!r}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[module_name] = module
    try:
        spec.loader.exec_module(module)
    except Exception as exc:
        sys.modules.pop(module_name, None)
        raise PackError(
            f"pack {manifest.label}: {rel}: import failed: "
            f"{type(exc).__name__}: {exc}") from None
    classes = [obj for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, Checker)
               and obj is not Checker and obj.__module__ == module_name]
    if not classes:
        raise PackError(
            f"pack {manifest.label}: {rel} defines no Checker subclass")
    names: list[str] = []
    try:
        for cls in classes:
            register_pack_checker(cls, origin)
            names.append(cls.name)
    except PackError:
        # A later class collided: the module's earlier registrations
        # must not survive the failed load.
        for name in names:
            unregister_pack_checker(name)
        raise
    return names


def _load_metal_checker(manifest: PackManifest, rel: str,
                        origin: CheckerOrigin) -> str:
    """Parse, lint, and wrap one textual metal program as a checker.

    The lint gate is the load-time half of the sandbox contract: a
    machine that cannot run correctly (typo'd transition target,
    unreachable state, dead rule) is refused before it can produce
    silently-wrong results in a fleet.
    """
    from ..checkers.base import Checker, register_pack_checker
    from ..errors import MetalError
    from ..metal.lint import lint_machine
    from ..metal.parser import parse_metal

    path = manifest.root / rel
    try:
        text = path.read_text()
    except OSError as exc:
        raise PackError(
            f"pack {manifest.label}: cannot read {rel}: {exc}") from None
    try:
        sm = parse_metal(text, filename=str(path))
    except MetalError as exc:
        raise PackError(
            f"pack {manifest.label}: {rel}: {exc}") from None
    findings = lint_machine(sm)
    if findings:
        details = "; ".join(str(f) for f in findings)
        raise PackError(
            f"pack {manifest.label}: {rel} fails lint "
            f"({len(findings)} finding(s)): {details}")
    checker_name = sm.name.replace("_", "-")
    loc = sum(1 for line in text.splitlines() if line.strip())

    class MetalPackChecker(Checker):
        """A pack's textual metal program, run per translation unit."""

        name = checker_name
        metal_loc = loc
        unit_parallel = True
        _metal_text = text
        _metal_name = str(path)

        def check(self, program):
            from ..mc.engine import check_unit
            result, sink = self._new_result()
            sm_local = parse_metal(self._metal_text,
                                   filename=self._metal_name)
            for unit in program.units.values():
                check_unit(sm_local, unit, sink, keep_going=True)
            result.applied = len(program.functions())
            return self._finish(result, sink)

    MetalPackChecker.__name__ = f"MetalPackChecker_{sm.name}"
    MetalPackChecker.__qualname__ = MetalPackChecker.__name__
    register_pack_checker(MetalPackChecker, origin)
    return checker_name
