"""The static builtin-checker table a warm run reads instead of importing
the checkers (``repro.mc.cache.BUILTIN_CHECKERS``), pinned to the
registry that importing ``repro.checkers`` builds."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import repro.checkers  # noqa: F401 (registers every builtin)
from repro.checkers import base as checkers_base
from repro.checkers import metal_sources
from repro.checkers.base import TwoPassChecker
from repro.mc.cache import (
    BUILTIN_CHECKERS,
    _sha256,
    checker_fingerprint,
    clear_fingerprint_memo,
    engine_fingerprint,
    package_digests,
)
from repro.mc.registry import _REGISTRY, checker_names, is_pack_checker

SRC = Path(__file__).resolve().parent.parent / "src"


def _builtins() -> list:
    return [name for name in checker_names() if not is_pack_checker(name)]


def _file_digest(module) -> str:
    return _sha256(Path(inspect.getsourcefile(module)).read_bytes())


def _old_checker_fingerprint(name: str) -> str:
    """The key the registry path has always computed: the class's own
    source file, found through the class."""
    cls = _REGISTRY[name]
    return _sha256(name.encode(),
                   Path(inspect.getsourcefile(cls)).read_bytes(),
                   _file_digest(checkers_base).encode(),
                   _file_digest(metal_sources).encode())


def _old_engine_fingerprint() -> str:
    """The engine key over the imported packages' files."""
    import repro
    import repro.cfg
    import repro.lang
    import repro.mc
    import repro.metal
    import repro.obs
    import repro.project
    from repro.flash import headers, machine, spec

    digests = package_digests(repro.lang, repro.cfg, repro.metal, repro.mc,
                              repro.obs)
    for module in (repro.project, headers, machine, spec):
        digests.append(_file_digest(module))
    files = _sha256(*(d.encode() for d in digests))
    return _sha256(files.encode(), repro.__version__.encode())


def test_table_names_the_builtins_in_registration_order():
    assert [row.name for row in BUILTIN_CHECKERS] == _builtins()


def test_table_shapes_and_modules_match_the_classes():
    for row in BUILTIN_CHECKERS:
        cls = _REGISTRY[row.name]
        if issubclass(cls, TwoPassChecker):
            shape = "link"
        elif cls.unit_parallel:
            shape = "unit"
        else:
            shape = "program"
        assert row.shape == shape, row.name
        source = Path(inspect.getsourcefile(cls))
        assert source == Path(inspect.getsourcefile(checkers_base)).with_name(
            row.module), row.name


def test_fingerprints_equal_the_registry_computation():
    clear_fingerprint_memo()
    try:
        assert engine_fingerprint() == _old_engine_fingerprint()
        for name in _builtins():
            assert checker_fingerprint(name) == _old_checker_fingerprint(name)
    finally:
        clear_fingerprint_memo()


def test_lazy_fingerprints_equal_the_registry_computation():
    """A process that never imports the checkers keys every builtin on
    the same bytes as one that imported everything."""
    probe = (
        "import json, sys\n"
        "from repro.mc.cache import BUILTIN_CHECKERS, checker_fingerprint,"
        " engine_fingerprint\n"
        "from repro.mc.registry import checker_names, checker_shape\n"
        "doc = {'engine': engine_fingerprint(),\n"
        "       'names': checker_names(),\n"
        "       'shapes': [checker_shape(n) for n in checker_names()],\n"
        "       'checkers': {row.name: checker_fingerprint(row.name)\n"
        "                    for row in BUILTIN_CHECKERS},\n"
        "       'imported': sorted(m for m in sys.modules\n"
        "                          if m.startswith('repro.checkers'))}\n"
        "print(json.dumps(doc))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["imported"] == []
    assert doc["names"] == _builtins()
    assert doc["shapes"] == [row.shape for row in BUILTIN_CHECKERS]
    assert doc["engine"] == _old_engine_fingerprint()
    assert doc["checkers"] == {name: _old_checker_fingerprint(name)
                               for name in _builtins()}
