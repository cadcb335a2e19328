import base64
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxeland.disambiguation import (
    ANSWER_PHRASE,
    GEOMETRY_VOXEL_CAP,
    PROMPT_TEMPLATE,
    ArgmaxClient,
    ClientError,
    DecisionParseError,
    DisambiguationError,
    HttpClient,
    MockClient,
    build_request,
    disambiguate_all,
    parse_decision,
    select_candidates,
    select_views,
    summarize_geometry,
)
from voxeland.evidence import probabilities
from voxeland.uncertainty import declare_categories
from voxeland.voxelmap import InstanceRecord, MapState, Observation

from maps import add_evidence
from oracles import footprint, oracle_select_views, oracle_snapshot_dict, oracle_summarize_geometry


def record_with(beta, observations=()):
    record = InstanceRecord(id=1, category_evidence=dict(beta))
    record.observations = list(observations)
    return record


def request_for(state, instance_id, **kwargs):
    """The request of one instance of ``state``, with its geometry summarized on its own."""
    [geometry] = summarize_geometry(state.cells, [instance_id])
    return build_request(state.instances[instance_id], geometry, **kwargs)


def flagged_state(beta, key_count=4):
    state = MapState(voxel_size=0.02)
    instance_id = state.new_instance()
    state.instances[instance_id].category_evidence = dict(beta)
    for label in beta:
        state.register_category(label)
    for i in range(key_count):
        add_evidence(state, (i, 0, 0), instance_id, 2)
    for frame in range(6):
        for label in beta:
            state.instances[instance_id].observations.append(
                Observation(frame_id=frame, category=label, confidence=0.7, pixel_bbox=(0, 0, 5, 5))
            )
    declare_categories(state, entropy_threshold=0.5)
    return state, instance_id


class TestSelectCandidates:
    def test_threshold_selection(self):
        evidence = probabilities({"bed": 4.8, "couch": 4.6, "chair": 0.6})
        assert select_candidates(evidence, min_prob=0.15) == ["bed", "couch"]

    def test_top_two_floor(self):
        evidence = probabilities({"chair": 9.5, "table": 0.5})
        assert select_candidates(evidence, min_prob=0.15) == ["chair", "table"]

    def test_uniform_four_all_selected(self):
        evidence = probabilities({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        assert select_candidates(evidence, min_prob=0.15) == ["a", "b", "c", "d"]

    def test_no_evidence_is_error(self):
        with pytest.raises(DisambiguationError, match="nothing to disambiguate"):
            build_request(record_with({}), oracle_summarize_geometry(np.empty(0, dtype=np.int64)))

    def test_first_is_argmax_and_sorted(self):
        evidence = probabilities({"couch": 4.6, "bed": 4.8, "chair": 0.6})
        candidates = select_candidates(evidence, min_prob=0.01)
        assert candidates[0] == "bed"
        assert candidates == ["bed", "couch", "chair"]


class TestSelectViews:
    def test_per_candidate_cap(self):
        observations = [
            Observation(frame_id=f, category="bed", confidence=0.5 + f * 0.01, pixel_bbox=None)
            for f in range(10)
        ] + [
            Observation(frame_id=20 + f, category="couch", confidence=0.6, pixel_bbox=None)
            for f in range(8)
        ]
        record = record_with({"bed": 1, "couch": 1}, observations)
        views = select_views(record, ["bed", "couch"], views_per_candidate=3)
        assert len(views) == 6
        assert sum(1 for v in views if v.category == "bed") == 3
        # highest-confidence bed frames first
        bed_frames = [v.frame_id for v in views if v.category == "bed"]
        assert bed_frames == [9, 8, 7]

    def test_availability_bound(self):
        observations = [
            Observation(frame_id=f, category="couch", confidence=0.6, pixel_bbox=None)
            for f in range(2)
        ]
        record = record_with({"couch": 1}, observations)
        views = select_views(record, ["couch"], views_per_candidate=3)
        assert len(views) == 2

    def test_distinct_frames_preferred(self):
        observations = [
            Observation(frame_id=0, category="bed", confidence=0.9, pixel_bbox=None),
            Observation(frame_id=0, category="bed", confidence=0.8, pixel_bbox=None),
            Observation(frame_id=1, category="bed", confidence=0.1, pixel_bbox=None),
        ]
        record = record_with({"bed": 1}, observations)
        views = select_views(record, ["bed"], views_per_candidate=2)
        assert [v.frame_id for v in views] == [0, 1]
        # with no alternative frames, same-frame duplicates fill the budget
        views = select_views(record, ["bed"], views_per_candidate=3)
        assert [v.frame_id for v in views] == [0, 1, 0]
        assert select_views(record, ["bed"], views_per_candidate=0) == []
        assert select_views(record, ["bed"], views_per_candidate=-1) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["bed", "couch"]), st.sampled_from([0.2, 0.5, 0.9])),
            max_size=12,
        ),
        st.lists(st.sampled_from(["bed", "couch", "chair"]), max_size=3),
        st.integers(-2, 8),
    )
    def test_matches_two_pass_oracle(self, observations, candidates, views_per_candidate):
        """Few frames and confidences, so same-frame duplicates and ties are
        common; each observation has its own view path, so the views tell
        apart observations of equal frame and confidence."""
        record = record_with({}, [
            Observation(frame_id=frame_id, category=category, confidence=confidence, pixel_bbox=None,
                        view_path=f"views/{index}.ppm")
            for index, (frame_id, category, confidence) in enumerate(observations)
        ])
        assert select_views(record, candidates, views_per_candidate) == oracle_select_views(
            record, candidates, views_per_candidate
        )


class TestPrompt:
    def test_contains_template_and_answer_shape(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        assert "Please, help me to disambiguate the correct category of this object." in request.prompt
        assert 'The object category is <object_category>' in request.prompt
        assert request.prompt.startswith(PROMPT_TEMPLATE)

    def test_contains_every_candidate(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6, "chair": 2.0})
        request = request_for(state, instance_id, min_prob=0.05)
        for label in request.candidates:
            assert label in request.prompt

    def test_geometry_summary_capped(self):
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"bed": 1.0, "couch": 1.0}
        for i in range(40):
            for j in range(40):
                add_evidence(state, (i, j, 0), instance_id, 1)
        state.instances[instance_id].flagged = True
        request = request_for(state, instance_id)
        assert request.geometry.voxel_count == 1600
        assert len(request.geometry.voxels) <= 16
        assert request.geometry.bbox_min == [0, 0, 0]
        assert request.geometry.bbox_max == [39, 39, 0]

    @pytest.mark.parametrize("shape", [(10, 10, 10), (40, 40, 1), (7, 13, 11), (1001, 1, 1), (33, 31, 1)])
    def test_geometry_sample_spans_the_footprint(self, shape):
        """The prompt prints every sampled voxel, and the sample reaches
        across at least 90% of the bounding box along the first axis."""
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        record = state.instances[instance_id]
        record.category_evidence = {"bed": 1.0, "couch": 1.0}
        add_evidence(state, list(np.ndindex(*shape)), instance_id, 1)
        request = request_for(state, instance_id)
        sample = list(map(tuple, request.geometry.voxels))
        assert request.geometry.voxel_count == math.prod(shape) >= 1000
        assert len(sample) == 16 and len(set(sample)) == 16
        assert set(sample) <= set(np.ndindex(*shape))
        assert f"sample: {[list(v) for v in sample]}" in request.prompt
        first_axis = [voxel[0] for voxel in sample]
        assert max(first_axis) - min(first_axis) >= 0.9 * (shape[0] - 1)

    @pytest.mark.parametrize("key_count", [1, 2, 5, 16, 17, 31])
    def test_geometry_sample_runs_from_first_to_last_voxel(self, key_count):
        """A footprint of at most 16 voxels is sampled whole; a larger one
        gives 16 distinct voxels, its first and its last among them."""
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6}, key_count=key_count)
        sample = list(map(tuple, request_for(state, instance_id).geometry.voxels))
        assert len(sample) == len(set(sample)) == min(key_count, 16)
        assert sample == sorted(sample) and sample[0] == (0, 0, 0) and sample[-1] == (key_count - 1, 0, 0)

    def test_views_are_the_observations_and_the_prompt_names_their_images(self):
        observations = [
            Observation(frame_id=3, category="bed", confidence=0.9, pixel_bbox=None, view_path="views/a.ppm"),
            Observation(frame_id=5, category="couch", confidence=0.8, pixel_bbox=(0, 0, 1, 1)),
        ]
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        record = state.instances[instance_id]
        record.observations = observations
        request = request_for(state, instance_id)
        assert [id(view) for view in request.views] == [id(obs) for obs in observations]
        assert "- frame 3, predicted bed (0.90): views/a.ppm" in request.prompt
        assert "- frame 5, predicted couch (0.80): frame:5" in request.prompt

    def test_single_candidate_rejected(self):
        state, instance_id = flagged_state({"bed": 4.8})
        with pytest.raises(DisambiguationError):
            request_for(state, instance_id)


@st.composite
def geometry_maps(draw):
    """A map of 6 instances on a 6x6x6 grid and the ids to summarize: the
    instances own 0, 1, GEOMETRY_VOXEL_CAP, GEOMETRY_VOXEL_CAP + 1 and any
    number of cells, and share many of them; the ids come in any order and
    may include an unregistered one."""
    state = MapState(voxel_size=0.05)
    grid = list(np.ndindex(6, 6, 6))
    sizes = [0, 1, GEOMETRY_VOXEL_CAP, GEOMETRY_VOXEL_CAP + 1, draw(st.integers(2, 200)), draw(st.integers(0, 216))]
    for size in draw(st.permutations(sizes)):
        instance_id = state.new_instance()
        cells = draw(st.permutations(range(len(grid))))[:size]
        if cells:
            add_evidence(state, [grid[c] for c in cells], instance_id, 1)
    ids = draw(st.permutations(sorted(state.instances) + [state._next_instance_id + 3]))
    return state, ids[: draw(st.integers(0, len(ids)))]


class TestSummarizeGeometry:
    @settings(max_examples=100, deadline=None)
    @given(geometry_maps())
    def test_one_pass_equals_each_footprint_on_its_own(self, drawn):
        state, ids = drawn
        expected = [oracle_summarize_geometry(footprint(state, instance_id)[0]) for instance_id in ids]
        assert summarize_geometry(state.cells, ids) == expected

    def test_footprints_of_none_one_the_cap_and_more_cells(self):
        state = MapState(voxel_size=0.05)
        ids = [state.new_instance() for _ in range(4)]
        for instance_id, size in zip(ids, (1, GEOMETRY_VOXEL_CAP, GEOMETRY_VOXEL_CAP + 7)):
            add_evidence(state, [(i, 2 * i % 5, -i) for i in range(size)], instance_id, 1)
        summaries = summarize_geometry(state.cells, ids)
        assert [summary.voxel_count for summary in summaries] == [1, GEOMETRY_VOXEL_CAP, GEOMETRY_VOXEL_CAP + 7, 0]
        assert [len(summary.voxels) for summary in summaries] == [1, GEOMETRY_VOXEL_CAP, GEOMETRY_VOXEL_CAP, 0]
        assert summaries == [oracle_summarize_geometry(footprint(state, i)[0]) for i in ids]
        assert summarize_geometry(state.cells, []) == []


class TestParseDecision:
    def request(self, candidates=("bed", "couch")):
        state, instance_id = flagged_state({c: 4.0 for c in candidates})
        return request_for(state, instance_id, min_prob=0.01)

    def test_direct_match(self):
        request = self.request()
        decision = parse_decision("The object category is couch", request)
        assert decision.chosen_category == "couch"

    def test_case_and_punctuation_tolerance(self):
        request = self.request()
        decision = parse_decision("the object category is COUCH.", request)
        assert decision.chosen_category == "couch"

    def test_out_of_candidate_rejected(self):
        request = self.request()
        with pytest.raises(DecisionParseError):
            parse_decision("It looks like a lamp", request)
        with pytest.raises(DecisionParseError):
            parse_decision("The object category is lamp", request)

    def test_round_trip_for_labels_with_spaces(self):
        request = self.request(("dining table", "coffee table"))
        for label in request.candidates:
            canonical = f"The object category is {label}"
            assert parse_decision(canonical, request).chosen_category == label

    def test_prefix_label_not_confused(self):
        request = self.request(("table", "table lamp"))
        assert parse_decision("The object category is table lamp", request).chosen_category == (
            "table lamp"
        )
        assert parse_decision("The object category is table.", request).chosen_category == "table"


class TestClients:
    def test_mock_client_round_trip(self, tmp_path):
        fixture = tmp_path / "fixtures.json"
        fixture.write_text(json.dumps({"1": "The object category is couch"}))
        client = MockClient.from_fixture_file(fixture)
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        assert client.query(request) == "The object category is couch"

    def test_mock_client_missing_key(self):
        client = MockClient({})
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        with pytest.raises(ClientError):
            client.query(request)

    def test_argmax_client_answers_top_candidate(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        assert ArgmaxClient().query(request) == "The object category is bed"

    def test_http_client(self, monkeypatch):
        captured = {}

        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        def fake_urlopen(request, timeout):
            captured["url"] = request.full_url
            captured["body"] = json.loads(request.data.decode("utf-8"))
            captured["timeout"] = timeout
            return FakeResponse(json.dumps({"text": "The object category is couch"}).encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        client = HttpClient(endpoint="http://localhost:9/decide", model="m1", timeout_s=5.0)
        assert client.query(request) == "The object category is couch"
        assert captured["url"] == "http://localhost:9/decide"
        assert captured["body"]["prompt"] == request.prompt
        assert captured["body"]["model"] == "m1"
        assert captured["timeout"] == 5.0

    def test_http_client_attaches_only_archived_views(self, monkeypatch, tmp_path):
        """A view without an archived image is named ``frame:N`` in the
        prompt; a file of that name in the working directory is not sent."""
        captured = {}

        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        def fake_urlopen(request, timeout):
            captured["body"] = json.loads(request.data.decode("utf-8"))
            return FakeResponse(json.dumps({"text": "The object category is couch"}).encode())

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "frame:0").write_bytes(b"not an archived view")
        (tmp_path / "view.ppm").write_bytes(b"P6 archived")
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        record = state.instances[instance_id]
        record.observations = [
            Observation(frame_id=0, category="bed", confidence=0.9, pixel_bbox=None),
            Observation(frame_id=1, category="couch", confidence=0.8, pixel_bbox=None, view_path="view.ppm"),
            Observation(frame_id=2, category="couch", confidence=0.7, pixel_bbox=None, view_path="gone.ppm"),
        ]
        request = request_for(state, instance_id)
        assert "frame:0" in request.prompt
        HttpClient(endpoint="http://localhost:9/decide").query(request)
        assert captured["body"]["images"] == [base64.b64encode(b"P6 archived").decode("ascii")]

    def test_http_client_transport_error(self, monkeypatch):
        def fake_urlopen(request, timeout):
            raise OSError("connection refused")

        monkeypatch.setattr("urllib.request.urlopen", fake_urlopen)
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        client = HttpClient(endpoint="http://localhost:9/decide")
        with pytest.raises(ClientError):
            client.query(request)

    @pytest.mark.parametrize(
        "content", ["[]", '["The object category is couch"]', '{"1": 5}', '{"1": null}', '"text"', "not json", ""]
    )
    def test_fixture_file_that_is_not_an_object_of_strings(self, tmp_path, content):
        fixture = tmp_path / "fixtures.json"
        fixture.write_text(content)
        with pytest.raises(ValueError, match=re.escape(str(fixture))):
            MockClient.from_fixture_file(fixture)

    @pytest.mark.parametrize(
        "payload", [{"text": None}, {"text": 5}, {"text": ["a"]}, {}, {"answer": "x"}, [], "text", None, 3]
    )
    def test_http_client_payload_without_string_text(self, monkeypatch, payload):
        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *args):
                return False

        monkeypatch.setattr(
            "urllib.request.urlopen", lambda request, timeout: FakeResponse(json.dumps(payload).encode())
        )
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        request = request_for(state, instance_id)
        with pytest.raises(ClientError, match="string 'text'"):
            HttpClient(endpoint="http://localhost:9/decide").query(request)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=6,
)
MISSING = object()


class TestDisambiguateAll:
    @pytest.mark.parametrize("response", [5, None, 1.5, True, ["The object category is couch"], {"text": "x"}])
    def test_non_string_response_is_client_failure(self, response):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        report = disambiguate_all(state, MockClient({str(instance_id): response}))
        assert report.decisions == [] and report.parse_failures == []
        assert report.client_failures == [(instance_id, f"response is not a string: {response!r}")]
        assert state.instances[instance_id].flagged
        assert state.instances[instance_id].final_category is None

    @given(
        st.lists(
            st.just(MISSING)
            | st.sampled_from(["The object category is bed", "the object category is couch.", "bed"])
            | JSON_VALUES,
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_any_json_response_ends_decided_or_failed_once(self, responses):
        state, first = flagged_state({"bed": 4.8, "couch": 4.6})
        flagged = [first]
        for i in range(2):
            instance_id = state.new_instance()
            state.instances[instance_id].category_evidence = {"bed": 3.0, "couch": 2.9}
            add_evidence(state, (10 + i, 0, 0), instance_id, 1)
            state.instances[instance_id].flagged = True
            flagged.append(instance_id)
        scripted = {str(i): r for i, r in zip(flagged, responses) if r is not MISSING}
        report = disambiguate_all(state, MockClient(scripted))
        decided = [d.instance_id for d in report.decisions]
        failed = [i for i, _ in report.parse_failures + report.client_failures]
        assert sorted(decided + failed) == flagged
        for instance_id, response in zip(flagged, responses):
            record = state.instances[instance_id]
            assert record.flagged == (instance_id in failed)
            assert (record.final_category is None) == (instance_id in failed)
            if not isinstance(response, str):
                assert instance_id in [i for i, _ in report.client_failures]

    def test_scripted_override_of_argmax(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        client = MockClient({str(instance_id): "The object category is couch"})
        report = disambiguate_all(state, client)
        assert [d.chosen_category for d in report.decisions] == ["couch"]
        assert state.instances[instance_id].final_category == "couch"
        assert not state.instances[instance_id].flagged

    def test_no_flagged_instances_is_noop(self):
        state = MapState(voxel_size=0.02)
        instance_id = state.new_instance()
        state.instances[instance_id].category_evidence = {"chair": 5.0}
        add_evidence(state, (0, 0, 0), instance_id, 1)
        declare_categories(state)
        before = oracle_snapshot_dict(state)
        report = disambiguate_all(state, MockClient({}))
        assert report.decisions == [] and report.parse_failures == []
        assert oracle_snapshot_dict(state) == before

    def test_garbage_response_keeps_flag(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        report = disambiguate_all(state, MockClient({str(instance_id): "no idea, sorry"}))
        assert report.decisions == []
        assert report.parse_failures and report.parse_failures[0][0] == instance_id
        assert state.instances[instance_id].flagged
        assert state.instances[instance_id].final_category is None

    def test_client_failure_recorded_not_fatal(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        report = disambiguate_all(state, MockClient({}))
        assert report.client_failures and report.client_failures[0][0] == instance_id

    def test_evidence_never_mutated(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        before = oracle_snapshot_dict(state)
        disambiguate_all(state, MockClient({str(instance_id): "The object category is couch"}))
        after = oracle_snapshot_dict(state)
        # the only differences are final_category and flagged on that instance
        for inst_before, inst_after in zip(before["instances"], after["instances"]):
            assert inst_before["category_evidence"] == inst_after["category_evidence"]
            assert inst_before["voxel_count"] == inst_after["voxel_count"]
        assert before["cells"] == after["cells"]

    def test_identity_mock_equals_top_one_assignment(self):
        state, instance_id = flagged_state({"bed": 4.8, "couch": 4.6})
        report = disambiguate_all(state, ArgmaxClient())
        assert [d.chosen_category for d in report.decisions] == ["bed"]
        assert state.instances[instance_id].final_category == "bed"

    def test_requests_equal_standalone_build_request(self):
        state, first = flagged_state({"bed": 4.8, "couch": 4.6}, key_count=6)
        second = state.new_instance()
        state.instances[second].category_evidence = {"chair": 3.0, "table": 2.9}
        for i in range(3, 9):
            add_evidence(state, (i, 0, 0), second, 1)
        state.instances[second].flagged = True
        expected = [request_for(state, i) for i in (first, second)]

        class RecordingClient:
            def __init__(self):
                self.requests = []

            def query(self, request):
                self.requests.append(request)
                return ArgmaxClient().query(request)

        client = RecordingClient()
        disambiguate_all(state, client)
        assert client.requests == expected
        assert [r.geometry.voxel_count for r in client.requests] == [6, 6]

    def test_answer_phrase_constant_matches_template(self):
        assert ANSWER_PHRASE in PROMPT_TEMPLATE.lower()
