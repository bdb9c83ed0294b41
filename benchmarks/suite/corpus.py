"""Seeded benchmark inputs: the generated FLASH protocols and their edits.

Everything derives from the benchmark seed.  One seed always yields the
same sources, specs, ground-truth manifest and edit sequence; the
program under test only ever sees the written files.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from random import Random

#: The paper's five protocols (71.6 KLOC, 1.7 MB at every seed).
PROTOCOLS = ("bitvector", "dyn_ptr", "sci", "coma", "rac")
#: The translation units every generated protocol is split into.
UNIT_SUFFIXES = ("pi", "ni", "io", "sw", "util")

#: A function definition's header line as the generator emits it:
#: ``void PILocalGet(void) {`` at column 0.
_HEADER = re.compile(r"^[A-Za-z_].*\(.*\)\s*\{\s*$")


@dataclass(frozen=True)
class Site:
    """One ground-truth manifest entry: where a checker should report."""

    file: str          # unit basename, e.g. ``bitvector_pi.c``
    line: int
    checker: str       # registered checker name, e.g. ``msg-length``
    label: str         # error, minor, violation, fp, uncounted, ...


@dataclass(frozen=True)
class Protocol:
    """One materialised protocol: paths are relative to the work dir."""

    name: str
    units: tuple       # source paths, sorted
    spec: str          # spec path
    sites: tuple       # every :class:`Site` of the generator's manifest
    loc: int           # non-blank source lines
    size: int          # source bytes

    def unit(self, suffix: str) -> str:
        return next(u for u in self.units
                    if u.endswith(f"_{suffix}.c"))


def materialise(seed: int, names, dest: Path, base: Path) -> dict:
    """Generate ``names`` from ``seed`` and write them under ``dest``.

    Returns ``{name: Protocol}`` with paths relative to ``base`` (the
    directory every ``mc-check`` invocation runs in).
    """
    from repro.flash.codegen import generate_protocol
    from repro.flash.spec import dump_spec

    out = {}
    for name in names:
        gp = generate_protocol(name, seed=seed)
        pdir = dest / name
        pdir.mkdir(parents=True)
        for filename, text in gp.files.items():
            (pdir / filename).write_text(text)
        spec = pdir / f"{name}.spec"
        spec.write_text(dump_spec(gp.info))
        rel = pdir.relative_to(base)
        out[name] = Protocol(
            name=name,
            units=tuple(sorted(str(rel / f) for f in gp.files)),
            spec=str(spec.relative_to(base)),
            sites=tuple(Site(s.file, s.line, s.checker, s.label)
                        for s in gp.manifest),
            loc=gp.loc(),
            size=sum(len(t.encode()) for t in gp.files.values()),
        )
    return out


def edit_function(path: Path, rng: Random, tag: str) -> int:
    """Append ``/* bench edit <tag> */`` to a seeded-random function's
    header line; returns the 1-based line edited.

    Only the end of the line changes, so every line and column a report
    can point at stays where it was.
    """
    lines = path.read_text().split("\n")
    heads = [i for i, line in enumerate(lines) if _HEADER.match(line)]
    if not heads:
        raise ValueError(f"{path}: no function header left to edit")
    index = rng.choice(heads)
    lines[index] += f" /* bench edit {tag} */"
    path.write_text("\n".join(lines))
    return index + 1
