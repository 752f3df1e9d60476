"""Mutants the tests must kill: plausible mistakes in the kept values and the optimised paths.

Not collected by pytest (the name does not start with ``test_``). Run from the repository root:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

Each mutant names a file of the repository, a text that occurs in it exactly once, the text that
replaces it, why the mistake is plausible, and the test files (or single tests) that must kill it.
The runner copies the repository into a temporary directory, applies the one mutant there, and runs
those tests with ``-x`` under the ``ci`` Hypothesis profile, importing ``trackfuse`` from the copy. A
mutant whose tests all pass survives. The run exits 1 if any mutant survives, and 2 if a mutant's text
does not occur exactly once (the code it mutates has changed: mend the entry) or pytest fails other
than by a failed test.

Every new optimised path or kept value adds its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    why: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "read-kept-drops-context", "src/trackfuse/records.py",
        "key = None if context is None else (hashlib.sha256(data).digest(), context)",
        "key = None if context is None else (hashlib.sha256(data).digest(), None)",
        "a file read against another dataset would return the value checked against the first",
        ("tests/test_cli.py", "tests/test_records.py"),
    ),
    Mutant(
        "detection-line-filed-under-previous-view", "src/trackfuse/records.py",
        "for view, det in lines:",
        "for (view, _), (_, det) in zip(lines[:1] + lines, lines):",
        "a line would be filed by the view of the line before it, which holds only while views stay in order",
        ("tests/test_records.py::TestRoundTrip::test_lines_out_of_view_order_load_to_the_same_columns",),
    ),
    Mutant(
        "dataset-key-drops-file-digests", "src/trackfuse/records.py",
        'kept("dataset", digests, lambda',
        'kept("dataset", digests[:1], lambda',
        "a dataset would be kept by its manifest's bytes alone: an edited detections or embeddings file "
        "would load as the dataset read before",
        ("tests/test_records.py",),
    ),
    Mutant(
        "manifest-reads-a-dropped-key", "src/trackfuse/records.py",
        """    for key, flag in _MOVED.items():
        if key in obj:
            raise SchemaError(f"manifest names {key!r}, which no stage reads from a manifest: pass that file to {flag}")
""",
        "",
        "a manifest naming tracks or descriptions would load with that entry silently ignored, dropping "
        "the tracks or long queries it was written for",
        ("tests/test_cli.py::TestBadInput::test_manifest_naming_a_stage_input_exits_two_naming_it",),
    ),
    Mutant(
        "ious-key-drops-ground-truth", "src/trackfuse/metrics.py",
        "None if ds.key is None or gt.key is None else (ds.key, gt.key), build)",
        "None if ds.key is None or gt.key is None else (ds.key,), build)",
        "eval or a sweep against other ground truth would score with the first one's IoU table",
        ("tests/test_records.py",),
    ),
    Mutant(
        "member-table-keyed-by-dataset", "src/trackfuse/consensus.py",
        "key = None if ds.key is None else (ds.key, tuple((t.track_id, t.members) for t in tracks))",
        "key = None if ds.key is None else (ds.key,)",
        "a consensus, eval or sweep of other tracks of one dataset would vote the first tracks",
        ("tests/test_records.py", "tests/test_one_process.py"),
    ),
    Mutant(
        "vote-without-cluster-offset", "src/trackfuse/consensus.py",
        "label_cluster = np.stack([c.cluster for c in clusterings]) + offset[:, None]",
        "label_cluster = np.stack([c.cluster for c in clusterings])",
        "every clustering after the first would read the first one's cluster names",
        ("tests/test_consensus.py", "tests/test_metrics.py"),
    ),
    Mutant(
        "accuracy-without-no-track-column", "src/trackfuse/metrics.py",
        "voted = np.column_stack([result.winner, np.full(len(result.winner), -1)])[:, table.owner[rows]]",
        "voted = result.winner[:, table.owner[rows]]",
        "a detection of no track (owner -1) would take the last track's winner",
        ("tests/test_consensus.py",),
    ),
    Mutant(
        "tally-rank-reversed", "src/trackfuse/consensus.py",
        "order = np.lexsort((rank[pair_cluster], -areas, -votes, pair_track))",
        "order = np.lexsort((-rank[pair_cluster], -areas, -votes, pair_track))",
        "a tie in votes and area would go to the largest surface form, not the smallest",
        ("tests/test_consensus.py",),
    ),
    Mutant(
        "cut-one-merge-early", "src/trackfuse/consensus.py",
        'done = int(np.searchsorted(tree.peak, 1.0 - tau_sem, side="right"))',
        'done = int(np.searchsorted(tree.peak, 1.0 - tau_sem, side="right")) - 1',
        "an off-by-one in the count of merges a cut keeps",
        ("tests/test_consensus.py",),
    ),
    # ">=" for the first ">" of binarize_logits, "logits > 0.0", is no mutant the tests can kill: a
    # logit of 0 then falls in the band, whose sigmoid, exactly 0.5, is not above 0.5
    Mutant(
        "binarize-band-at-half", "src/trackfuse/field.py",
        "out[band] = 1.0 / (1.0 + np.exp(-logits[band])) > 0.5",
        "out[band] = 1.0 / (1.0 + np.exp(-logits[band])) >= 0.5",
        "a tiny positive logit, whose sigmoid rounds to exactly 0.5, would be in the mask",
        ("tests/test_field.py",),
    ),
    Mutant(
        "agglomerate-tie-to-higher-slot", "src/trackfuse/consensus.py",
        "closer = live & ((row < row_min) | ((row == row_min) & (a < nearest)))",
        "closer = live & ((row < row_min) | ((row == row_min) & (a > nearest)))",
        "a row whose new distance to the merged cluster ties its minimum would keep the higher slot",
        ("tests/test_consensus.py",),
    ),
)


def _ignore(directory: str, names: list[str]) -> set[str]:
    skip = {"__pycache__", ".git", ".hypothesis", ".pytest_cache", "runs", "build"}
    if Path(directory) == ROOT / "perfbench":
        skip.add("out")
    return {n for n in names if n in skip or n.endswith(".egg-info")}


def run(mutant: Mutant) -> bool:
    """Whether the mutant's test files kill it, in a mutated copy of the repository."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_ignore)
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            print(f"{mutant.name}: {mutant.file} holds its text {text.count(mutant.old)} times, not once")
            sys.exit(2)
        target.write_text(text.replace(mutant.old, mutant.new))
        env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [str(copy / "src"),
                                                                         os.environ.get("PYTHONPATH")]))}
        where = subprocess.run([sys.executable, "-c", "import trackfuse; print(trackfuse.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(copy):
            print(f"{mutant.name}: trackfuse imports from {where}, not from the mutated copy")
            sys.exit(2)
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-profile=ci",
             *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
        # 1 is a failed test; any other failure (a collection error, say) says nothing of the mutant
        if proc.returncode not in (0, 1):
            print(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
            sys.exit(2)
        for line in proc.stdout.splitlines():
            if line.startswith("FAILED "):
                print(f"{mutant.name}: {line}")
        return proc.returncode == 1


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    survived = []
    for mutant in MUTANTS:
        if names and mutant.name not in names:
            continue
        start = time.perf_counter()
        killed = run(mutant)
        print(f"{mutant.name}: {'killed' if killed else 'SURVIVED'} ({time.perf_counter() - start:.1f} s)")
        if not killed:
            survived.append(mutant.name)
    if survived:
        print(f"{len(survived)} mutant(s) survived: {', '.join(survived)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
