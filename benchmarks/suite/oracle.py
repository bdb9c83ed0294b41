"""Ground-truth oracle for ``mc-check --format json`` documents.

Every report is matched to the code generator's manifest by
``(file, line, checker)``.  The JSON ``checker`` field carries the
state-machine name for the two metal-listing checkers (``msglen_check``
for ``msg-length``), so it is mapped to the registered checker name
first.  A verdict is wrong when:

- a report has no manifest site (or names no registered checker);
- a seeded ``error`` site has no report;
- the report-id set differs from the run's reference document for the
  same protocol (an earlier, independently checked run of it).

Each wrong verdict counts once per distinct ``(file, line, checker)``
site, so one dropped report is one wrong verdict even though it is both
missing from the manifest match and absent from the reference.
"""

from __future__ import annotations

import json
from pathlib import PurePath

#: Manifest labels that promise a report at the site.
REPORT_LABELS = ("error", "minor", "violation", "fp", "uncounted")


class Oracle:
    """Judges report documents against the manifests of ``protocols``
    (``{name: corpus.Protocol}``)."""

    def __init__(self, protocols: dict):
        from repro.campaign.properties import canonical_checker
        from repro.checkers import checker_names

        self._canonical = canonical_checker
        self._registered = frozenset(checker_names())
        self._expected = {
            name: frozenset((s.file, s.line, s.checker) for s in p.sites
                            if s.label in REPORT_LABELS)
            for name, p in protocols.items()}
        self._errors = {
            name: frozenset((s.file, s.line, s.checker) for s in p.sites
                            if s.label == "error")
            for name, p in protocols.items()}

    def site(self, report: dict) -> tuple:
        """A report's ``(unit basename, line, registered checker)``."""
        return (PurePath(report["file"]).name, report["line"],
                self._canonical(report["checker"]))

    def error_sites(self, protocol: str) -> int:
        return len(self._errors[protocol])

    def wrong_verdicts(self, protocol: str, doc: dict,
                       reference: dict | None = None) -> list:
        """The distinct sites where ``doc`` disagrees with the ground
        truth or with ``reference``; empty when every verdict is right."""
        expected = self._expected[protocol]
        found = {}
        wrong = set()
        for report in doc["reports"]:
            site = self.site(report)
            found[report["id"]] = site
            if site[2] not in self._registered or site not in expected:
                wrong.add(site)
        wrong |= self._errors[protocol] - set(found.values())
        if reference is not None:
            ref = {r["id"]: self.site(r) for r in reference["reports"]}
            for report_id in ref.keys() ^ found.keys():
                wrong.add(ref.get(report_id) or found[report_id])
        return sorted(wrong)


def crosstab_disagreements(doc: dict, reference: dict) -> list:
    """Where a campaign cross-tab differs from the reference pass's:
    report ids whose entry changed, plus each other section that moved.
    A deterministic campaign repeats its cross-tab byte for byte."""
    ours = {e["id"]: e for e in doc["reports"]}
    theirs = {e["id"]: e for e in reference["reports"]}
    wrong = sorted(i for i in ours.keys() | theirs.keys()
                   if ours.get(i) != theirs.get(i))
    for section in ("counters", "gaps", "crashes", "campaign"):
        if doc.get(section) != reference.get(section):
            wrong.append(section)
    return wrong


def failure(code: int, stderr: str, stdout: str, expect_doc: bool = True):
    """Why one invocation failed, or ``None``; also returns the parsed
    JSON document (``None`` when stdout is not one).

    An invocation fails when it exits outside {0, 1}, prints a
    traceback, or — when it should print a document — prints none, or
    reports a quarantine, a degraded or an interrupted run.
    """
    try:
        doc = json.loads(stdout)
    except ValueError:
        doc = None
    if code not in (0, 1):
        return f"exit {code}", doc
    if "Traceback (most recent call last)" in stderr:
        return "traceback", doc
    if not expect_doc:
        return None, None
    if not isinstance(doc, dict):
        return "no JSON document on stdout", None
    if doc.get("quarantines"):
        return "quarantine", doc
    if doc.get("degraded"):
        return "degraded", doc
    if doc.get("interrupted"):
        return "interrupted", doc
    return None, doc
