import hashlib
import json
import math
import re

import numpy as np
import pytest

from gridopt.alternating import AlterMilpConfig, min_exe, min_trans
from gridopt.baselines import GaConfig, ensemble_greedy, random_baseline
from gridopt.bench import ExperimentConfig, MethodSpec, run_method
from gridopt.environment import (DocumentError, GenerationConfig,
                                 GridEnvironment, GRID_PRESETS,
                                 InvalidConfigError, InvalidEnvironmentError,
                                 KB_PER_MB, check_budget, check_document, check_positive,
                                 check_seed, config_from_document, echo,
                                 environment_from_document, generate, load_environment,
                                 preset_config, read_field)
from gridopt.schedule import random_schedule


def _config(**overrides):
    base = dict(num_jobs=6, num_objects=10, num_cns=4, num_local_sns=3,
                num_remote_sns=3, rng_seed=5)
    base.update(overrides)
    return GenerationConfig(**base)


def test_generation_is_deterministic_per_seed():
    a = generate(_config())
    b = generate(_config())
    assert a.to_document() == b.to_document()
    c = generate(_config(), seed=99)
    assert c.to_document() != a.to_document()


# sha256 of json.dumps(to_document(), sort_keys=True), recorded when every
# input draw called rng.choice(d, p=weights) on its own
_ENVIRONMENT_DIGESTS = {
    ("small", 0): "2578a9fe9451a88a245bab0815ab2972f9554e20211c3e6f128515a08aa353b2",
    ("small", 1): "e321cd77bd054071c8770afb8ea1e1ed2f4c2ae354f8ce3d421b3726ac98a6e8",
    ("small", 2): "6000ac458f7a40e7dd63ac8c6031d4b56089970c2ec867d5d298d9bd37e15792",
    ("medium", 0): "5343317d2484f6225319ccb1a836717bbd62db8c045862398d9f30923b3ecefe",
    ("medium", 1): "0cc5e18ef2bdf2fae157d424cf5cf1a187bf518e2aae709acda52691e740f9c5",
    ("medium", 2): "c7e192ed8c6ec9cf15159543a8fe3327558e9d75b057dfa4a645bc03a8ec0023",
    ("large", 0): "8a3f2bc6d467d70f4db7f38a1e7413ba05f444f7f47ae55be51c113f0c98235e",
    ("large", 1): "41569986e2f5a3497a1f3dc852c8287b99c5809cbd38f91c7a2df6d6429d387f",
    ("large", 2): "48d63a5ba3cf8293ed1c699dad24e61e7fa94d26722937115b94156303e28bea",
}


@pytest.mark.parametrize("preset,seed", sorted(_ENVIRONMENT_DIGESTS))
def test_generation_matches_recorded_digests(preset, seed):
    doc = generate(preset_config(preset), seed=seed).to_document()
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _ENVIRONMENT_DIGESTS[preset, seed]


def test_generated_fields_respect_ranges():
    cfg = _config(num_jobs=20, num_objects=40)
    env = generate(cfg)
    lo, hi = cfg.object_size_range_kb
    assert np.all((env.object_sizes >= lo) & (env.object_sizes <= hi))
    lo, hi = cfg.cn_speed_range
    assert np.all((env.cn_speeds >= lo) & (env.cn_speeds <= hi))
    lo, hi = cfg.wan_bandwidth_range
    assert np.all((env.wan_bandwidth >= lo) & (env.wan_bandwidth <= hi))
    lo, hi = cfg.lan_bandwidth_range
    assert np.all((env.lan_bandwidth >= lo) & (env.lan_bandwidth <= hi))
    assert env.wan_bandwidth.shape == (cfg.num_remote_sns, cfg.num_local_sns)
    assert env.lan_bandwidth.shape == (cfg.num_local_sns, cfg.num_cns)
    assert np.all((env.hosting >= 0) & (env.hosting < cfg.num_remote_sns))


def test_default_size_range_is_megabytes_in_kb():
    cfg = _config()
    assert cfg.object_size_range_kb == (50 * KB_PER_MB, 1500 * KB_PER_MB)


def test_job_inputs_sorted_unique_in_range_nonempty():
    env = generate(_config(num_jobs=30, num_objects=12))
    lo, hi = _config().resolved_objects_per_job()
    for objs in env.job_inputs:
        assert len(objs) >= 1
        assert list(objs) == sorted(set(objs))
        assert all(0 <= d < env.num_objects for d in objs)


def test_objects_per_job_default_resolution():
    cfg = _config(num_jobs=6, num_objects=10)
    assert cfg.resolved_objects_per_job() == (1, math.ceil(20 / 6))
    # the cap kicks in when 2D/J exceeds the catalogue
    cfg = _config(num_jobs=1, num_objects=5)
    assert cfg.resolved_objects_per_job() == (1, 5)
    sizes = [len(o) for o in generate(_config(num_jobs=40, num_objects=10)).job_inputs]
    lo, hi = _config(num_jobs=40, num_objects=10).resolved_objects_per_job()
    assert min(sizes) >= lo and max(sizes) <= hi


def test_zipf_skew_prefers_low_object_ids():
    cfg = _config(num_jobs=200, num_objects=30, zipf_exponent=1.5,
                  objects_per_job=(1, 3))
    env = generate(cfg)
    counts = np.zeros(env.num_objects)
    for objs in env.job_inputs:
        for d in objs:
            counts[d] += 1
    # the most popular third must clearly dominate the least popular third
    assert counts[:10].sum() > 2 * counts[-10:].sum()


@pytest.mark.parametrize("overrides", [
    dict(num_jobs=0),
    dict(num_objects=-1),
    dict(num_cns=0),
    dict(gamma=0.0),
    dict(gamma=float("nan")),
    dict(zipf_exponent=0.0),
    dict(object_size_range_kb=(100.0, 50.0)),
    dict(wan_bandwidth_range=(0.0, 10.0)),
    dict(objects_per_job=(0, 2)),
    dict(objects_per_job=(2, 100)),
    dict(num_jobs=2.5),
    dict(num_jobs=True),
    dict(objects_per_job=(1.5, 2)),
    dict(gamma=True),
    dict(wan_bandwidth_range=(True, 5)),
    dict(objects_per_job=(1, 2, 3)),
    dict(objects_per_job=3),
    dict(cn_speed_range=(1,)),
    dict(zipf_exponent="1"),
    dict(gamma=10**400),
    dict(rng_seed=2**63),
])
def test_invalid_configs_rejected(overrides):
    (field,) = overrides
    with pytest.raises(InvalidConfigError, match=field):
        _config(**overrides)


def test_a_negative_seed_is_rejected_naming_it():
    with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
        _config(rng_seed=-1)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -2"):
        generate(_config(), seed=-2)
    # a float is not truncated and a bool is not read as 1, wherever a seed goes in
    env = generate(_config())
    for bad in (1.7, True, 2.0):
        with pytest.raises(ValueError, match=f"rng_seed must be .*, got {bad!r}"):
            _config(rng_seed=bad)
        with pytest.raises(ValueError, match=f"seed must be .*, got {bad!r}"):
            generate(_config(), seed=bad)
        with pytest.raises(ValueError, match=f"seeds must be .*, got {bad!r}"):
            ExperimentConfig(methods=(MethodSpec("random"),), seeds=(0, bad),
                             budget=1.0, preset="small")
        with pytest.raises(ValueError, match=f"seed must be .*, got {bad!r}"):
            run_method(env, MethodSpec("random"), bad, 1.0)
    # a numpy integer is an integer
    seed = np.int64(3)
    assert generate(_config(), seed=seed).to_document() == generate(_config(rng_seed=3)).to_document()
    assert json.dumps(_config(rng_seed=seed).to_document()) == json.dumps(
        _config(rng_seed=3).to_document())
    assert ExperimentConfig(methods=(MethodSpec("random"),), seeds=(seed,), budget=1.0,
                            preset="small").seeds == (3,)
    run_method(env, MethodSpec("random"), seed, 1.0).schedule.validate(env)


# each shared rule, called with a value it rejects, and how its message,
# which names the field, begins
CHECKS = {
    "check_positive": (lambda value: check_positive(value, "threshold"), "threshold must be "),
    "check_budget": (check_budget, "budget must be "),
    "check_seed": (lambda value: check_seed(-value if isinstance(value, int) else value),
                   "seed must be "),
    "read_field": (lambda value: read_field({"a": value}, "a", int), "field 'a' must be "),
    "check_document": (lambda value: check_document({"schema": value}, "s", ()),
                       "field 'schema': expected 's', got "),
}


# 10**5000 has more digits than Python will print
@pytest.mark.parametrize("bad", [10**400, 10**5000, "x" * 10_000],
                         ids=["10**400", "10**5000", "long-string"])
@pytest.mark.parametrize("check", CHECKS)
def test_a_rejected_value_is_echoed_capped(check, bad):
    # check_seed takes 10**400 as a seed, so it is given -10**400
    call, start = CHECKS[check]
    with pytest.raises(ValueError, match="^" + re.escape(start)) as err:
        call(bad)
    assert len(str(err.value)) < 150


def test_echo_caps_the_repr_and_never_raises():
    assert echo("x" * 200) == repr("x" * 200)[:60]
    assert echo(-10**5000) == "<unprintable int>"
    assert echo([1.5, "a"]) == "[1.5, 'a']"


# every entry point that takes a seed, called on an environment and a seed
SEEDED = {
    "GaConfig": lambda env, seed: GaConfig(seed=seed),
    "AlterMilpConfig": lambda env, seed: AlterMilpConfig(seed=seed),
    "ensemble_greedy": lambda env, seed: ensemble_greedy(env, seed, runs=3),
    "random_schedule": random_schedule,
    "random_baseline": random_baseline,
    "min_trans": lambda env, seed: min_trans(env, 1.0, seed),
    "min_exe": lambda env, seed: min_exe(env, 1.0, seed),
}


@pytest.mark.parametrize("bad", [1.7, True, -1])
@pytest.mark.parametrize("entry", SEEDED)
def test_every_seeded_entry_point_rejects_a_bad_seed_by_name(entry, bad):
    with pytest.raises(ValueError, match=f"^seed must be a non-negative integer, got {bad!r}$"):
        SEEDED[entry](generate(_config()), bad)


def test_preset_dimensions():
    expected = {
        "small": (10, 20, 10, 10, 10),
        "medium": (50, 100, 20, 20, 20),
        "large": (100, 300, 50, 50, 50),
    }
    for name, (j, d, c, l, r) in expected.items():
        cfg = preset_config(name)
        assert (cfg.num_jobs, cfg.num_objects, cfg.num_cns,
                cfg.num_local_sns, cfg.num_remote_sns) == (j, d, c, l, r)
    with pytest.raises(InvalidConfigError):
        preset_config("tiny")


def test_preset_overrides():
    cfg = preset_config("small", seed=4, gamma=2.0, num_jobs=5)
    assert cfg.gamma == 2.0 and cfg.num_jobs == 5 and cfg.rng_seed == 4
    assert cfg.num_objects == 20


def test_delay_queries_match_formulas():
    env = generate(_config())
    table = env.replication_delay()
    assert table.shape == (env.num_objects, env.num_local_sns)
    for d in range(env.num_objects):
        for l in range(env.num_local_sns):
            expected = env.object_sizes[d] / env.wan_bandwidth[env.hosting[d], l]
            assert table[d, l] == pytest.approx(expected, rel=1e-15)


def test_input_table_and_job_sizes_follow_the_inputs():
    env = generate(_config(num_jobs=5, num_objects=20, objects_per_job=(1, 12)))
    table = env.input_table()
    width = max(len(o) for o in env.job_inputs)
    assert table.shape == (width, 5)
    for j, objs in enumerate(env.job_inputs):
        # the real inputs, then repeats of the first one, which leave a max as is
        assert tuple(table[:, j]) == objs + (objs[0],) * (width - len(objs))
        total = 0.0
        for d in objs:      # left to right, the order the replay adds them in
            total += env.object_sizes[d]
        assert env.job_input_sizes()[j] == total


def test_replay_inputs_are_built_once_and_read_only():
    env = generate(_config())
    for query in (env.input_table, env.job_input_sizes, env.replication_delay,
                  env.exec_time):
        arr = query()
        assert arr is query()
        with pytest.raises(ValueError, match="read-only"):
            arr[(0,) * arr.ndim] = 0


def _valid_env_kwargs():
    return dict(
        object_sizes=[100.0, 200.0],
        hosting=[0, 1],
        job_inputs=((0,), (0, 1)),
        cn_speeds=[10.0, 20.0],
        wan_bandwidth=[[5.0, 6.0], [7.0, 8.0]],
        lan_bandwidth=[[50.0, 60.0], [70.0, 80.0]],
        gamma=1.0,
    )


# each mutation of _valid_env_kwargs that the constructor rejects, naming
# one of the fields it changes
INVALID_ENVIRONMENTS = [
    dict(job_inputs=((), (0,))),              # empty input set
    dict(job_inputs=((0, 0), (1,))),          # duplicate object
    dict(job_inputs=((0,), (5,))),            # object id out of range
    dict(hosting=[0, 7]),                     # remote SN out of range
    dict(object_sizes=[100.0, -1.0]),         # non-positive size
    dict(cn_speeds=[10.0, 0.0]),              # zero speed
    dict(gamma=-2.0),
    dict(lan_bandwidth=[[50.0, 60.0]]),       # L mismatch vs wan columns
    dict(wan_bandwidth=[[5.0], [7.0]]),       # wan columns vs lan rows
    dict(hosting=[0]),                        # hosting shorter than objects
    dict(job_inputs=()),                      # no jobs
    dict(job_inputs=((1, 0), (1,))),          # inputs not sorted ascending
    dict(gamma=True),
    dict(gamma="1"),
    dict(job_inputs=(0, 1)),                  # not a list of lists
    dict(hosting=[2**70]),                    # beyond int64
    dict(object_sizes=[10**400]),             # beyond float range
    dict(wan_bandwidth=np.zeros((2, 0)), lan_bandwidth=np.zeros((0, 2))),  # no local SN
    dict(wan_bandwidth=[[], []], lan_bandwidth=[]),                        # the same as lists
    dict(hosting=np.array([0, 2**64 - 1], dtype=np.uint64)),  # would wrap to -1 in int64
]


@pytest.mark.parametrize("mutation", INVALID_ENVIRONMENTS)
def test_environment_invariants_rejected(mutation):
    kwargs = _valid_env_kwargs()
    kwargs.update(mutation)
    with pytest.raises(InvalidEnvironmentError, match="|".join(mutation)):
        GridEnvironment(**kwargs)


def test_unsigned_ids_are_cast_only_within_int64():
    kwargs = _valid_env_kwargs()
    kwargs["hosting"] = np.array([0, 2**64 - 1], dtype=np.uint64)
    with pytest.raises(InvalidEnvironmentError,
                       match=r"^hosting must hold integers within int64, got 18446744073709551615$"):
        GridEnvironment(**kwargs)
    kwargs["hosting"] = np.array([1, 0], dtype=np.uint64)
    assert GridEnvironment(**kwargs).hosting.tolist() == [1, 0]


@pytest.mark.parametrize("mutation", [m for m in INVALID_ENVIRONMENTS if not any(
    isinstance(v, np.ndarray) for v in m.values())])
def test_a_document_gets_the_constructors_verdict(mutation):
    kwargs = json.loads(json.dumps({**_valid_env_kwargs(), **mutation}))
    with pytest.raises(InvalidEnvironmentError) as built:
        GridEnvironment(**kwargs)
    doc = GridEnvironment(**_valid_env_kwargs()).to_document()
    doc.update({"object_sizes_kb" if name == "object_sizes" else name: value
                for name, value in kwargs.items()})
    with pytest.raises(DocumentError) as loaded:
        environment_from_document(doc)
    assert str(built.value) in str(loaded.value)


@pytest.mark.parametrize("field,bad", [
    ("job_inputs", ((0.7,), (0, 1))),           # read as object 0
    ("job_inputs", ((0,), (0, True))),
    ("cn_speeds", [True, 20.0]),                # read as 1.0
    ("object_sizes", ["10240", 200.0]),         # read as 10240.0
    ("hosting", [False, 1]),                    # read as 0
    ("hosting", np.array([0.0, 1.0])),          # a float array of ids
    ("lan_bandwidth", np.ones((2, 2), dtype=bool)),
    ("wan_bandwidth", [[5.0, "6"], [7.0, 8.0]]),
])
def test_environment_rejects_what_a_cast_would_coerce(field, bad):
    kwargs = _valid_env_kwargs()
    kwargs[field] = bad
    with pytest.raises(InvalidEnvironmentError, match=f"^{field} must hold only "):
        GridEnvironment(**kwargs)


def test_environment_takes_numpy_numbers():
    kwargs = _valid_env_kwargs()
    kwargs.update(hosting=np.array([0, 1], dtype=np.int32), cn_speeds=[np.float64(10.0), 20],
                  job_inputs=((np.int64(0),), np.array([0, 1])))
    assert GridEnvironment(**kwargs).to_document() == GridEnvironment(
        **_valid_env_kwargs()).to_document()


def test_environment_arrays_are_read_only():
    env = GridEnvironment(**_valid_env_kwargs())
    with pytest.raises(ValueError):
        env.object_sizes[0] = 1.0


def test_environment_document_roundtrip(tmp_path):
    env = generate(_config())
    path = tmp_path / "env.json"
    env.save(path)
    loaded = load_environment(path)
    assert loaded.to_document() == env.to_document()
    assert loaded.job_inputs == env.job_inputs
    np.testing.assert_array_equal(loaded.object_sizes, env.object_sizes)


def test_environment_document_rejects_wrong_schema():
    doc = generate(_config()).to_document()
    doc["schema"] = "grid-environment/2"
    with pytest.raises(DocumentError, match="schema"):
        environment_from_document(doc)


def test_environment_document_names_missing_field():
    doc = generate(_config()).to_document()
    del doc["cn_speeds"]
    with pytest.raises(DocumentError, match="cn_speeds"):
        environment_from_document(doc)


def test_environment_document_rejects_bad_values():
    doc = generate(_config()).to_document()
    doc["object_sizes_kb"][0] = -5.0
    with pytest.raises(DocumentError):
        environment_from_document(doc)
    with pytest.raises(DocumentError):
        environment_from_document(["not", "a", "dict"])


def test_generation_config_document_roundtrip():
    cfg = _config(objects_per_job=(1, 4), zipf_exponent=1.3)
    doc = json.loads(json.dumps(cfg.to_document()))
    assert config_from_document(doc) == cfg


def test_generation_config_document_rejects_unknown_field():
    doc = _config().to_document()
    doc["num_gpus"] = 3
    with pytest.raises(DocumentError, match="num_gpus"):
        config_from_document(doc)
    bad = _config().to_document()
    bad["schema"] = "something-else"
    with pytest.raises(DocumentError, match="schema"):
        config_from_document(bad)
