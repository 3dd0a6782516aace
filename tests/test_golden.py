"""Golden command-line corpus: exit status and stdout digest per argv.

``golden_cli.json`` holds five frozen groups of argv lists with the exit
status and the SHA-256 of the stdout each produced when recorded:

- ``paper_artifacts``: every paper table, figure and README command, plus
  the umpu/bias sweeps over chi-square(1..30) and four F laws;
- ``exact_tests_seed1``: 100 binomial/Fisher tests and discrete p-values
  with supports from 10 to 50,000 points;
- ``continuous_tests_seed1``: 100 variance/F tests and chi-square, F and
  truncated-normal p-values, with chi-square df up to 5000;
- ``grid_families``: ``analyze bias`` with each method on the uniform,
  triangular and truncated-normal laws; bias reports are defined for the
  chi-square and F variance tests only, so every one of them exits 3 with
  a domain error and empty stdout;
- ``anchors_and_flat_laws``: the laws and tail anchors the other groups
  never evaluate: uniform and triangular p-values; median, mode and
  ``value:V`` anchors on chi-square, F, truncated-normal (cutoffs 0.05,
  0.5 and 2; its median goes through the normal quantile), binomial,
  hypergeometric and noncentral-hypergeometric laws; the four tests with
  a median or mode anchor; and conditional ``analyze bias`` with a median
  or value anchor.

Any change to a printed digit, to the JSON layout or to an exit status
shows up here. Every JSON envelope must parse as strict JSON (no
``NaN``, ``Infinity`` or ``-Infinity``) and be written exactly as
``json.dumps(indent=2)`` writes what it parses to, so a re-recording cannot
bring in another layout. A deliberate change of output is re-recorded in
the data file, one argv at a time. Each mismatch reports the argv with the
recorded and the new exit status and SHA-256, so a re-recorded entry can be
matched against the change that explains it.

The whole corpus is also replayed in one process in two other orders, so
output that depends on what an earlier request left in a per-process cache
shows up too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pytest

from twoside.cli import main

CORPUS = json.loads((Path(__file__).with_name("golden_cli.json")).read_text(encoding="utf-8"))

# the README sample read by ``test variance --data sample.txt``
SAMPLE_TXT = "1.21\n0.37\n2.05\n0.88\n1.64\n0.52\n"


def _reject_constant(name: str):
    raise ValueError(f"{name} is not valid JSON")


def _replay(records, tmp_path, monkeypatch) -> list[str]:
    """Serve each record's argv in turn; describe every mismatch."""
    (tmp_path / "sample.txt").write_text(SAMPLE_TXT, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    mismatches = []
    for record in records:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = main(list(record["argv"]))
        text = out.getvalue()
        if text.startswith("{"):
            try:
                parsed = json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                mismatches.append(f"{' '.join(record['argv'])}: not strict JSON: {exc}")
            else:
                if text != json.dumps(parsed, indent=2, allow_nan=False) + "\n":
                    mismatches.append(f"{' '.join(record['argv'])}: not in the layout "
                                      "json.dumps(indent=2) gives")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if (status, digest) != (record["status"], record["sha256"]):
            mismatches.append(
                f"{' '.join(record['argv'])}: status {record['status']} -> {status}, "
                f"sha256 {record['sha256']} -> {digest}"
            )
    return mismatches


@pytest.mark.parametrize("group", sorted(CORPUS))
def test_golden_outputs(group, tmp_path, monkeypatch):
    mismatches = _replay(CORPUS[group], tmp_path, monkeypatch)
    assert not mismatches, f"{len(mismatches)} golden mismatch(es):\n" + "\n".join(mismatches)


@pytest.mark.parametrize("order", ["shuffled", "reversed"])
def test_golden_outputs_do_not_depend_on_earlier_requests(order, tmp_path, monkeypatch):
    # one process serves every entry of every group, in an order unlike the
    # recording's, so a per-process cache (the special-function memo, the
    # discrete-table cache) that leaked state into an output would show here
    records = [record for group in sorted(CORPUS) for record in CORPUS[group]]
    if order == "shuffled":
        random.Random(20080).shuffle(records)
    else:
        records.reverse()
    mismatches = _replay(records, tmp_path, monkeypatch)
    assert not mismatches, f"{len(mismatches)} golden mismatch(es):\n" + "\n".join(mismatches)
