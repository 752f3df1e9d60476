import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trackfuse as tf
import trackfuse.keyframes as keyframes
from trackfuse.consensus import ConsensusRecord
from trackfuse.errors import SchemaError
from trackfuse.keyframes import (
    STRATEGIES,
    ExternalDescriptions,
    TemplateSynthesizer,
    check_keyframe_settings,
    median_area,
    run_keyframes,
    select_keyframe,
    template_referral,
    visibility_score,
)
from trackfuse.records import text_embedding

from oracles import oracle_visibility, smallest_accepted


class TestMedianArea:
    def test_single(self):
        assert median_area([7]) == 7

    def test_odd(self):
        assert median_area([1, 2, 3]) == 2

    def test_even_uses_mean_of_middles(self):
        assert median_area([1, 2, 3, 10]) == 2.5

    def test_unsorted_input(self):
        assert median_area([3, 1, 2]) == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_area([])


class TestVisibilityScore:
    def test_at_median_equals_area(self):
        assert visibility_score(10000, 10000, 100.0) == 10000

    def test_zero_area(self):
        assert visibility_score(0, 10000, 100.0) == 0.0

    def test_direct_evaluation(self):
        got = visibility_score(40000, 10000, 100.0)
        assert got == pytest.approx(40000 * math.exp(-0.5), rel=1e-12)
        assert got == pytest.approx(24261.226388505335, rel=1e-9)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError):
            visibility_score(10, 10, 0.0)

    @given(
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.floats(1.0, 1e3),
    )
    @settings(max_examples=300, deadline=None)
    def test_bounded_by_area(self, area, med, sigma):
        # pixel areas are integers; equality holds only at the median
        v = visibility_score(area, med, sigma)
        assert v <= area
        if area != med and area > 0 and sigma <= 100.0:
            assert v < area

    def test_strictly_increasing_below_median(self):
        med, sigma = 10000.0, 100.0
        areas = np.linspace(med / 1000, med, 1000)
        values = [visibility_score(a, med, sigma) for a in areas]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_vanishes_for_huge_areas(self):
        assert visibility_score(1e12, 10000, 100.0) < 1e-6

    def test_matches_oracle_on_random_triples(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            area = float(rng.uniform(0, 1e6))
            med = float(rng.uniform(0, 1e6))
            sigma = float(rng.uniform(1, 1e3))
            got = visibility_score(area, med, sigma)
            want = oracle_visibility(area, med, sigma)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestSelectKeyframe:
    def test_weighting_picks_max_score(self):
        # areas 100 / 10000 / 40000 with sigma=100: the scores are
        # 100*e^{-0.405} ~ 66.7, 10000, 40000*e^{-0.5} ~ 24261.2,
        # so the literal argmax is the 40000-area view.
        view_areas = [(0, 100), (1, 10000), (2, 40000)]
        view = select_keyframe(view_areas, "weighting", 100.0)
        assert view == 2
        scores = {v: visibility_score(a, 10000, 100.0) for v, a in view_areas}
        assert scores[2] == pytest.approx(24261.226388505335)
        assert all(scores[view] >= s for s in scores.values())

    def test_single_member_under_every_strategy(self):
        for strategy in ("weighting", "maximum", "minimum", "random", "medium"):
            assert select_keyframe([(4, 123)], strategy, 100.0) == 4

    def test_equal_areas_tie_to_earliest(self):
        assert select_keyframe([(3, 50), (1, 50), (2, 50)], "weighting", 100.0) == 1

    def test_maximum_minimum_medium(self):
        va = [(0, 10), (1, 500), (2, 90)]
        assert select_keyframe(va, "maximum", 100.0) == 1
        assert select_keyframe(va, "minimum", 100.0) == 0
        assert select_keyframe(va, "medium", 100.0) == 2  # median is 90

    def test_random_is_seeded(self):
        va = [(v, 10 * v + 10) for v in range(6)]
        first = select_keyframe(va, "random", 100.0, seed=11)
        again = select_keyframe(va, "random", 100.0, seed=11)
        assert first == again

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            select_keyframe([(0, 1)], "best", 100.0)

    @pytest.mark.parametrize("strategy", ["weighting", "maximum", "minimum", "random", "medium"])
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, 1e-200, 5e-324, "below"])
    def test_nonpositive_sigma_rejected_by_every_strategy(self, strategy, sigma):
        # a positive sigma whose 2 sigma^2 underflows to 0 would divide by zero
        if sigma == "below":  # one ulp below the smallest accepted sigma
            sigma = math.nextafter(smallest_accepted(accepts_sigma), 0.0)
        with pytest.raises(ValueError, match="sigma"):
            select_keyframe([(0, 1), (1, 4)], strategy, sigma)
        with pytest.raises(ValueError, match="sigma"):
            visibility_score(1, 4, sigma)

    def test_smallest_accepted_sigma_scores(self):
        sigma = smallest_accepted(accepts_sigma)
        assert 1e-162 < sigma < 1.2e-162
        assert visibility_score(4, 4, sigma) == 4.0  # on the median: no penalty
        assert visibility_score(1, 4, sigma) == 0.0
        for strategy in STRATEGIES:
            assert select_keyframe([(0, 1), (1, 4), (2, 9)], strategy, sigma) in (0, 1, 2)
        assert select_keyframe([(0, 1), (1, 4), (2, 9)], "weighting", sigma) == 1

    @given(st.lists(st.tuples(st.integers(0, 30), st.integers(0, 10**6)), min_size=1, max_size=12, unique_by=lambda t: t[0]))
    @settings(max_examples=200, deadline=None)
    def test_weighting_choice_dominates_members(self, view_areas):
        view = select_keyframe(view_areas, "weighting", 100.0)
        assert view in {v for v, _ in view_areas}
        med = median_area([a for _, a in view_areas])
        scores = {v: visibility_score(a, med, 100.0) for v, a in view_areas}
        assert all(scores[view] >= s for s in scores.values())


def accepts_sigma(sigma):
    try:
        check_keyframe_settings("weighting", sigma)
    except ValueError:
        return False
    return True


class TestTemplates:
    def test_referral_composition(self):
        assert template_referral("cup", "blue") == "the blue cup"
        assert (
            template_referral("cup", "blue", "to the left of the plate")
            == "the blue cup to the left of the plate"
        )


def one_member_record(track_id, view, canonical="bowl"):
    return ConsensusRecord(track_id=track_id, canonical=canonical, votes={canonical: 1}, members=((view, 0),))


class TestAttachDescriptions:
    def test_external_passthrough(self, clean_scene, tmp_path):
        ds, _, _ = clean_scene
        vec = text_embedding("the red bowl of ramen on the table", 8)
        path = tmp_path / "ext.jsonl"
        path.write_text(
            json.dumps(
                {
                    "track": 3,
                    "view": 2,
                    "texts": ["the red bowl of ramen on the table"],
                    "vecs": [vec.tolist()],
                }
            )
            + "\n"
        )
        ext = ExternalDescriptions.load(path)
        (desc,) = run_keyframes(ds, [one_member_record(3, 2)], external=ext)
        assert desc.referrals[0][0] == "the red bowl of ramen on the table"
        assert np.array_equal(desc.referrals[0][1], vec)
        assert desc.keyframe == 2
        assert (desc.track_id, desc.category) == (3, "bowl")

    def test_missing_entry_names_track_and_view(self, clean_scene, tmp_path):
        ds, _, _ = clean_scene
        path = tmp_path / "ext.jsonl"
        path.write_text("")
        ext = ExternalDescriptions.load(path)
        with pytest.raises(SchemaError, match=r"track 7.*view 4"):
            run_keyframes(ds, [one_member_record(7, 4)], external=ext)

    def test_empty_referrals_name_the_track(self, clean_scene):
        ds, _, _ = clean_scene
        ext = ExternalDescriptions({(5, 1): []})
        with pytest.raises(SchemaError, match="no referrals produced for track 5"):
            run_keyframes(ds, [one_member_record(5, 1)], external=ext)

    def test_each_distinct_text_is_embedded_once(self, monkeypatch):
        # half the detections dropped and no gap allowed: many short tracks, some of whose texts repeat
        noise = tf.NoiseSpec(dropout_rate=0.5, strip_track_ids=True)
        cfg = tf.SynthConfig(n_views=16, height=32, width=32, n_objects=3, seed=5, noise=noise)
        ds, gt = tf.generate_scene(cfg)
        ds = tf.corrupt(ds, gt, cfg)
        records = tf.run_consensus(ds, tf.associate_greedy(ds, tf.AssocParams(max_gap=0))).records
        embedded = Counter()
        real = keyframes.text_embedding
        monkeypatch.setattr(keyframes, "text_embedding", lambda text, dim: embedded.update([text]) or real(text, dim))
        referrals = [r for d in run_keyframes(ds, records) for r in d.referrals]
        assert len(referrals) > len(embedded) and set(embedded.values()) == {1}
        first = {}
        for text, vec in referrals:
            assert first.setdefault(text, vec) is vec
            assert not vec.flags.writeable
            assert vec.tobytes() == real(text, ds.dim).tobytes()

    def test_template_synthesizer_output(self, clean_scene):
        ds, _, trajs = clean_scene
        result = tf.run_consensus(ds, trajs)
        descs = run_keyframes(ds, result.records)
        assert len(descs) == len(result.records)
        for desc in descs:
            assert desc.category
            assert len(desc.referrals) == 2
            short, long_ = desc.referrals[0][0], desc.referrals[1][0]
            assert short.startswith("the ")
            assert desc.category in short
            assert long_.startswith(short)
            for _, vec in desc.referrals:
                assert vec.shape == (ds.dim,)
                assert np.isclose(np.linalg.norm(vec), 1.0)

    def test_relation_mentions_other_object(self, clean_scene):
        ds, _, trajs = clean_scene
        result = tf.run_consensus(ds, trajs)
        synth = TemplateSynthesizer(ds, result.records)
        a, b = result.records[0], result.records[1]
        refs = synth.referrals(a.track_id, a.members[0][0])
        assert b.canonical in refs[1][0]
