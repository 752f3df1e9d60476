"""One-process sequences of stage calls, each checked against the same call in a new process.

A process keeps what it read, wrote and built (``records.kept``), keyed by what each value depends
on. Hypothesis runs sequences of ``associate``, ``consensus``, ``keyframe``, ``train``, ``eval`` and
both sweeps on two small scenes in one process, varying the settings and overwriting the inputs in
place. After each call, the same call runs again with nothing kept, as a new process starts, into a
second directory: the exit code, the error message and every byte written must be the same. Then
what the sequence kept is put back, and it goes on.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test

from trackfuse import records
from trackfuse.cli import main
from trackfuse.keyframes import STRATEGIES
from trackfuse.records import forget_kept

NOISE = {"synonym_rate": 0.4, "wrong_label_rate": 0.15, "mask_jitter": 1, "strip_track_ids": True}
# two 5-view 32x32 scenes: in "a", dropout breaks tracks, so each max_gap of 0 and 1 gives other
# tracks of one dataset; "assoc" and "train" are the sections every call runs with
CONFIGS = {
    "a": {"seed": 5, "synth": {"n_views": 5, "height": 32, "width": 32, "n_objects": 3,
                               "noise": NOISE | {"dropout_rate": 0.35}}},
    "b": {"seed": 8, "synth": {"n_views": 5, "height": 32, "width": 32, "n_objects": 4, "noise": NOISE}},
}
SETTINGS = {"assoc": {"mode": "greedy"}, "train": {"epochs": 1, "spread": 4.0}}
TAU_SEMS = (0.05, 0.5, 0.7, 0.8, 0.85, 0.9, 0.95, 0.99)
SIGMAS = (0.5, 1.0, 2.0, 4.0, 8.0)


@pytest.fixture(scope="module")
def scenes(tmp_path_factory):
    """Each scene's directory and config files, one per ``consensus.tau_sem`` (eval reads it)."""
    root = tmp_path_factory.mktemp("scenes")
    out = {}
    for name, cfg in CONFIGS.items():
        configs = {}
        for tau_sem in TAU_SEMS:
            path = root / f"{name}-{tau_sem}.json"
            path.write_text(json.dumps(cfg | SETTINGS | {"consensus": {"tau_sem": tau_sem}}))
            configs[tau_sem] = str(path)
        assert main(["synth", "--config", configs[TAU_SEMS[0]], "--out", str(root / name)]) == 0
        out[name] = (root / name, configs)
    forget_kept()
    return out


class OneProcess(RuleBasedStateMachine):
    def __init__(self, scenes, root):
        super().__init__()
        forget_kept()  # each sequence starts as a new process does
        self.scenes = scenes
        run = Path(tempfile.mkdtemp(dir=root))
        self.one, self.own = run / "one", run / "own"
        self.tau_sem = {}  # each scene's consensus.tau_sem of its last consensus call
        for name in scenes:
            (self.one / name).mkdir(parents=True)
            (self.own / name).mkdir(parents=True)

    def ready(self, *files: str) -> list[str]:
        """The scenes whose directory in ``one`` holds every one of ``files``."""
        return [name for name in self.scenes if all((self.one / name / f).is_file() for f in files)]

    def call(self, name: str, command: str, argv, outputs: tuple[str, ...], tau_sem: float = 0.85) -> None:
        """``command`` on scene ``name`` in this process, writing into ``one``, then with nothing
        kept, writing into ``own``; ``argv(out)`` gives the flags for the output directory ``out``,
        and every input is read from ``one``."""
        scene, configs = self.scenes[name]
        common = [command, "--config", configs[tau_sem], "--manifest", str(scene / "dataset" / "manifest.json")]

        def run(out: Path) -> tuple[int, str]:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([*common, *argv(out / name)])
            return code, err.getvalue().replace(str(self.own), str(self.one))

        got = run(self.one)
        kept = dict(records._kept)
        forget_kept()  # as a new process starts
        try:
            want = run(self.own)
        finally:
            records._kept.clear()
            records._kept.update(kept)
        assert got == want, (command, argv(self.one / name))
        for f in outputs:
            mine, fresh = self.one / name / f, self.own / name / f
            assert (mine.read_bytes() if mine.exists() else None) == (
                fresh.read_bytes() if fresh.exists() else None), (command, f)

    def inputs(self, name: str, *files: str) -> list[str]:
        return [arg for f in files for arg in (f"--{f.split('.')[0]}", str(self.one / name / f))]

    def scene_with(self, data, *files: str) -> str:
        return data.draw(st.sampled_from(self.ready(*files)), label="scene")

    def run_associate(self, name, max_gap):
        self.call(name, "associate", lambda out: ["--max-gap", str(max_gap), "--out", f"{out}/tracks.jsonl"],
                  ("tracks.jsonl",))

    def run_consensus(self, name, tau_sem):
        self.tau_sem[name] = tau_sem
        self.call(name, "consensus", lambda out: [*self.inputs(name, "tracks.jsonl"), "--tau-sem", str(tau_sem),
                                                  "--out", f"{out}/consensus.jsonl"], ("consensus.jsonl",))

    def run_keyframe(self, name, sigma, strategy):
        self.call(name, "keyframe", lambda out: [*self.inputs(name, "consensus.jsonl"), "--sigma", str(sigma),
                                                 "--strategy", strategy, "--out", f"{out}/descriptions.jsonl"],
                  ("descriptions.jsonl",))

    def run_train(self, name, long_only):
        geometry = str(self.scenes[name][0] / "field_geometry.json")
        self.call(name, "train", lambda out: [
            *self.inputs(name, "consensus.jsonl", "descriptions.jsonl"), "--geometry", geometry,
            *(["--long-only"] if long_only else []), "--loss-curve", f"{out}/loss_curve.csv",
            "--out", f"{out}/model.json"], ("model.json", "loss_curve.csv"))

    @initialize(name=st.sampled_from(sorted(CONFIGS)), tau_sem=st.sampled_from(TAU_SEMS))
    def pipeline(self, name, tau_sem):
        """One scene's inputs of every stage, so that each rule can run from the first step."""
        self.run_associate(name, 1)
        self.run_consensus(name, tau_sem)
        self.run_keyframe(name, 2.0, "weighting")
        self.run_train(name, False)

    @rule(name=st.sampled_from(sorted(CONFIGS)), max_gap=st.integers(0, 2))
    def associate(self, name, max_gap):
        self.run_associate(name, max_gap)

    @precondition(lambda self: self.ready("tracks.jsonl"))
    @rule(data=st.data(), tau_sem=st.sampled_from(TAU_SEMS))
    def consensus(self, data, tau_sem):
        self.run_consensus(self.scene_with(data, "tracks.jsonl"), tau_sem)

    @precondition(lambda self: self.ready("consensus.jsonl"))
    @rule(data=st.data(), sigma=st.sampled_from(SIGMAS), strategy=st.sampled_from(STRATEGIES))
    def keyframe(self, data, sigma, strategy):
        self.run_keyframe(self.scene_with(data, "consensus.jsonl"), sigma, strategy)

    @precondition(lambda self: self.ready("consensus.jsonl", "descriptions.jsonl"))
    @rule(data=st.data(), long_only=st.booleans())
    def train(self, data, long_only):
        self.run_train(self.scene_with(data, "consensus.jsonl", "descriptions.jsonl"), long_only)

    @precondition(lambda self: self.ready("consensus.jsonl", "descriptions.jsonl", "model.json"))
    @rule(data=st.data())
    def eval(self, data):
        name = self.scene_with(data, "consensus.jsonl", "descriptions.jsonl", "model.json")
        # mostly the tau_sem the records were voted at; another may refuse them (exit 2)
        tau_sem = data.draw(st.just(self.tau_sem[name]) | st.sampled_from(TAU_SEMS), label="tau_sem")
        gt = str(self.scenes[name][0] / "ground_truth.json")
        self.call(name, "eval", lambda out: [
            *self.inputs(name, "consensus.jsonl", "descriptions.jsonl", "model.json"), "--ground-truth", gt,
            "--out", f"{out}/report.json"], ("report.json",), tau_sem)

    @precondition(lambda self: self.ready("tracks.jsonl"))
    @rule(data=st.data(), param=st.sampled_from(["tau_sem", "sigma"]))
    def sweep(self, data, param):
        name = self.scene_with(data, "tracks.jsonl")
        # unsorted, and a value may repeat
        values = data.draw(st.lists(st.sampled_from(TAU_SEMS if param == "tau_sem" else SIGMAS), min_size=1,
                                    max_size=5), label="values")
        gt = str(self.scenes[name][0] / "ground_truth.json")
        csv = f"sweep-{param}.csv"
        self.call(name, "sweep", lambda out: [
            *self.inputs(name, "tracks.jsonl"), "--ground-truth", gt, "--param", param,
            "--values", ",".join(map(str, values)), "--out", f"{out}/{csv}"], (csv,))


def test_one_process_sequences_write_what_new_processes_write(scenes, tmp_path):
    run_state_machine_as_test(lambda: OneProcess(scenes, tmp_path),
                              settings=settings(max_examples=20, stateful_step_count=20, deadline=None))
