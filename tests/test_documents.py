"""Every document loader either rejects a document by field or round-trips it."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridopt.bench import ExperimentConfig, MethodSpec, experiment_from_document
from gridopt.environment import (DocumentError, config_from_document,
                                 environment_from_document)
from gridopt.schedule import random_schedule, schedule_from_document

from conftest import tiny_config, tiny_env


def _json(doc):
    return json.loads(json.dumps(doc))


def _valid_documents():
    env = tiny_env(0)
    schedule = random_schedule(env, 1)
    experiment = ExperimentConfig(
        methods=(MethodSpec("ga", label="g", params={"population": 8}),),
        seeds=(0, 1), budget=1.0, generation=tiny_config(0))
    return {
        "environment": (environment_from_document, env.to_document()),
        "generation": (config_from_document, tiny_config(0).to_document()),
        "schedule": (schedule_from_document, schedule.to_document()),
        "experiment": (experiment_from_document, experiment.to_document()),
    }


DOCUMENTS = {kind: (load, _json(doc)) for kind, (load, doc) in _valid_documents().items()}


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _probe(kind, path, value):
    load, doc = DOCUMENTS[kind]
    doc = _json(doc)
    _get(doc, path[:-1])[path[-1]] = value
    return load, doc


@pytest.mark.parametrize("kind, path, value, field", [
    ("environment", ("gama",), 1.0, "gama"),
    ("schedule", ("prio",), [0, 1, 2], "prio"),
    ("schedule", ("job_cn", 0), 0.7, "job_cn"),
    ("schedule", ("job_cn", 0), 10**30, "job_cn"),
    ("environment", ("hosting", 0), 1.9, "hosting"),
    ("environment", ("hosting", 0), 10**30, "hosting"),
    ("environment", ("cn_speeds", 0), "900", "cn_speeds"),
    ("environment", ("cn_speeds", 0), True, "cn_speeds"),
    ("environment", ("job_inputs", 0, 0), 0.0, "job_inputs"),
    ("generation", ("num_jobs",), 3.0, "num_jobs"),
    ("generation", ("gamma",), "1", "gamma"),
    ("experiment", ("reproduction_mode",), "false", "reproduction_mode"),
    ("experiment", ("seeds", 0), True, "seeds"),
    ("experiment", ("budget",), "1.0", "budget"),
    ("generation", ("gamma",), True, "gamma"),
    ("generation", ("wan_bandwidth_range", 0), True, "wan_bandwidth_range"),
    ("generation", ("objects_per_job",), [1, 2, 3], "objects_per_job"),
    ("environment", ("job_inputs", 0, 0), 10**30, "job_inputs"),
    ("environment", ("object_sizes_kb", 0), 10**400, "object_sizes"),
])
def test_a_bad_field_is_rejected_by_name(kind, path, value, field):
    load, doc = _probe(kind, path, value)
    with pytest.raises(DocumentError, match=field):
        load(doc)


_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([10**30, -10**30, 2**63, -2**63 - 1, 10**400]),
    st.floats(), st.text(max_size=4),
    st.lists(st.integers(-3, 3), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
)


def _paths(doc, prefix=()):
    """Every (path, is-a-field) inside ``doc``, the root included."""
    out = [(prefix, False)]
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, (dict, list)):
            out += _paths(value, prefix + (key,))
        out.append((prefix + (key,), isinstance(doc, dict)))
    return out


def _mutate(data, doc):
    doc = _json(doc)
    paths = _paths(doc)
    op = data.draw(st.sampled_from(["delete", "add", "replace"]))
    if op == "delete":
        path, _ = data.draw(st.sampled_from([p for p in paths if p[1]]))
        del _get(doc, path[:-1])[path[-1]]
        return doc
    if op == "add":
        objects = [p for p, _ in paths if isinstance(_get(doc, p), dict)]
        path = data.draw(st.sampled_from(objects))
        _get(doc, path)["unexpected_field"] = data.draw(_VALUES)
        return doc
    path, _ = data.draw(st.sampled_from(paths))
    value = data.draw(_VALUES)
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize("kind", sorted(DOCUMENTS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_loaders_reject_by_document_error_or_round_trip(kind, data):
    load, doc = DOCUMENTS[kind]
    doc = _mutate(data, doc)
    try:
        loaded = load(doc)
    except DocumentError:
        return
    first = json.dumps(loaded.to_document(), sort_keys=True)
    again = load(json.loads(first))
    assert json.dumps(again.to_document(), sort_keys=True) == first
