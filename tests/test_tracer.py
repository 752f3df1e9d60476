"""What perfbench/tracer.py reads from trackfuse, checked without installing the tracer.

``Recorder.install()`` patches the trackfuse modules for the whole process,
so these tests only load the tracer's module and read its tables.
"""

import importlib
import runpy
from pathlib import Path

from trackfuse.field import field_from_ground_truth, load_field, save_field

TRACER = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"))


def test_field_shape_of_a_loaded_field(tmp_path, clean_scene):
    ds, gt, _ = clean_scene
    save_field(field_from_ground_truth(gt, ds.n_views, ds.height, ds.width, dim=ds.dim), tmp_path / "f.json")
    field_ = load_field(tmp_path / "f.json", ds)
    assert TRACER["_field_shape"](field_) == (5 * len(gt.objects), ds.height * ds.width, ds.dim)


def test_every_wrapped_name_resolves_but_the_features_matrix():
    # the features are one matrix on each field, not a method, so that
    # name is reported as not traced and its calls metric reads 0
    missing = []
    for module_name, attr in TRACER["WRAPPED"]:
        owner = importlib.import_module(f"trackfuse.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module_name}.{attr}")
    assert missing == ["field.ToyReferringField.features"]
