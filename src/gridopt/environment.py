"""Simulated grid environments: generation, validation, queries, persistence.

An environment couples compute nodes (CNs), local storage nodes (local SNs),
remote storage nodes (remote SNs) and data objects.  Every object lives on one
remote SN and must be replicated to exactly one local SN before jobs can read
it over the LAN.  Units are fixed across the package: sizes in KB, bandwidths
in KB/s, compute speeds in ops/s, gamma in ops/KB, all delays in seconds.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

ENVIRONMENT_SCHEMA = "grid-environment/1"
GENERATION_SCHEMA = "generation-config/1"

KB_PER_MB = 1024.0


class InvalidConfigError(ValueError):
    """A generation config violates one of its constraints."""


class InvalidEnvironmentError(ValueError):
    """An environment violates a structural invariant."""


class DocumentError(ValueError):
    """A serialized document is malformed or has the wrong schema tag."""


def echo(value) -> str:
    """``repr(value)`` cut to 60 characters, for a rejection message that
    names the field first; never raises.  An integer of more than 4300
    digits has no repr, and a broken ``__repr__`` none worth showing."""
    try:
        return repr(value)[:60]
    except Exception:
        return f"<unprintable {type(value).__name__}>"


def check_positive(value: float, name: str, noun: str = "number") -> None:
    """Reject a value that is a bool, not a real number, not finite or not
    > 0, naming it.  Finiteness is tested without a float conversion, so a
    huge integer fails by name instead of overflowing."""
    if not (is_kind(value, numbers.Real) and abs(value) <= sys.float_info.max and value > 0):
        raise ValueError(f"{name} must be a finite {noun} > 0, got {echo(value)}")


def check_budget(budget: float, name: str = "budget") -> None:
    """Reject a budget that could never stop a run: only finite seconds > 0 pass."""
    check_positive(budget, name, "number of seconds")


def check_seed(value: int, name: str = "seed", minimum: int = 0) -> None:
    """Reject a seed or a count that is a bool, not an integer, or below
    ``minimum``, naming it."""
    if not (is_kind(value, numbers.Integral) and value >= minimum):
        least = "a non-negative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {least}, got {echo(value)}")


def is_kind(value, kind) -> bool:
    """The JSON type rule: is ``value`` a ``kind``?

    A bool is never an int or a number, and an int will do for a float.
    """
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def check_document(doc, schema, required, optional=()) -> None:
    """Raise :class:`DocumentError`, naming the field, unless ``doc`` is a
    JSON object tagged ``schema`` (None: an untagged entry) that holds every
    ``required`` field and no field outside ``required`` and ``optional``.
    """
    if not isinstance(doc, dict):
        raise DocumentError(f"{schema or 'entry'} document must be a JSON object, "
                            f"got {type(doc).__name__}")
    allowed = {*required, *optional}
    if schema is not None:
        if doc.get("schema") != schema:
            raise DocumentError(
                f"field 'schema': expected {schema!r}, got {echo(doc.get('schema'))}")
        allowed.add("schema")
    missing = [name for name in required if name not in doc]
    if missing:
        raise DocumentError("missing field(s): " + ", ".join(missing))
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise DocumentError("unknown field(s): " + ", ".join(unknown))


_KIND_NAMES = {int: "int64", float: "number", str: "string", bool: "boolean",
               dict: "object"}


def _holds(value, kind, depth) -> bool:
    if depth:
        return (isinstance(value, (list, tuple))
                and all(_holds(v, kind, depth - 1) for v in value))
    # numpy takes an int64 and a finite float without rounding or overflow
    if kind is int:
        return is_kind(value, int) and -2**63 <= value < 2**63
    if kind is float:
        return is_kind(value, float) and abs(value) <= sys.float_info.max
    return is_kind(value, kind)


def read_field(doc, name, kind, depth=0, nullable=False):
    """``doc.get(name)``, checked to be ``kind`` inside ``depth`` nested
    lists (or null when ``nullable``); else :class:`DocumentError` naming it.

    An int field holds JSON integers within int64, a float field finite
    JSON numbers, never strings or booleans.
    """
    value = doc.get(name)
    if not (nullable and value is None or _holds(value, kind, depth)):
        shape = "list[" * depth + _KIND_NAMES[kind] + "]" * depth
        raise DocumentError(f"field {name!r} must be {shape}"
                            + (" or null" if nullable else "") + f", got {echo(value)}")
    return value


def build_from_document(cls, **fields):
    """``cls(**fields)``, its rejection of a value raised as a DocumentError."""
    try:
        return cls(**fields)
    except ValueError as exc:
        raise DocumentError(f"{cls.__name__} rejected: {exc}") from exc


def save_document(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_document(path):
    """The JSON value in the file at ``path``; :class:`DocumentError`, naming
    the file, when it is not JSON text."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path} is not JSON text: {exc}") from exc


def _frozen(values, dtype):
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# field -> (document key, dtype, list depth) of every GridEnvironment field
# but gamma, read by the constructor's one check and by both document paths.
# An int64 table holds integers, a float64 one real numbers that are finite
# and > 0; each is non-empty.  job_inputs is kept as a tuple of int tuples,
# whose rows may differ in length.
_ENV_FIELDS = {"object_sizes": ("object_sizes_kb", np.float64, 1),
               "hosting": ("hosting", np.int64, 1),
               "job_inputs": ("job_inputs", np.int64, 2),
               "cn_speeds": ("cn_speeds", np.float64, 1),
               "wan_bandwidth": ("wan_bandwidth", np.float64, 2),
               "lan_bandwidth": ("lan_bandwidth", np.float64, 2)}


def _entry_types(value, depth) -> set:
    """Types of the entries ``depth`` (1 or 2) levels of lists or tuples down
    in ``value``.  An array stands for its entries by its dtype's scalar
    type, and a non-list found higher up counts as an entry itself."""
    if isinstance(value, np.ndarray):
        return {value.dtype.type}
    if not isinstance(value, (list, tuple)):
        return {type(value)}
    if depth == 2:
        value = [d for row in value
                 for d in (row if isinstance(row, (list, tuple, np.ndarray)) else (row,))]
    return set(map(type, value))


def _check_table(name, value, dtype, depth):
    """``value`` as field ``name`` holds it; else InvalidEnvironmentError naming it."""
    kind, noun = ((numbers.Integral, "integers") if dtype is np.int64
                  else (numbers.Real, "numbers"))
    # the casts below would read 0.7 as object 0, True as 1.0 and "1" as 1.0
    if any(cls is bool or not issubclass(cls, kind) for cls in _entry_types(value, depth)):
        raise InvalidEnvironmentError(f"{name} must hold only {noun}, got {echo(value)}")
    # and an unsigned array past int64's maximum would wrap to negative ids
    if isinstance(value, np.ndarray) and value.dtype.kind == "u" and value.size \
            and value.max() > np.iinfo(np.int64).max:
        raise InvalidEnvironmentError(f"{name} must hold integers within int64, "
                                      f"got {int(value.max())}")
    try:
        table = (tuple(tuple(int(d) for d in objs) for objs in value)
                 if name == "job_inputs" else _frozen(value, dtype))
    except (TypeError, ValueError, OverflowError) as exc:   # not nested, ragged, too big
        raise InvalidEnvironmentError(f"{name} must be a {depth}-d table of "
                                      f"{np.dtype(dtype)} values, got {echo(value)}") from exc
    if not (len(table) if name == "job_inputs" else table.ndim == depth and table.size):
        raise InvalidEnvironmentError(f"{name} must be a non-empty {depth}-d table, "
                                      f"got {echo(value)}")
    if dtype is np.float64 and not (np.isfinite(table).all() and (table > 0).all()):
        raise InvalidEnvironmentError(f"{name} must be finite and > 0, got {echo(value)}")
    return table


@dataclass(frozen=True)
class GridEnvironment:
    """Immutable grid instance.

    Index convention: all entities are 0-based everywhere, including on-disk
    documents.  ``job_inputs[j]`` holds the ids of the objects job ``j``
    reads, sorted ascending, never empty.
    """

    object_sizes: np.ndarray      # (D,) KB
    hosting: np.ndarray           # (D,) remote SN id per object
    job_inputs: tuple[tuple[int, ...], ...]
    cn_speeds: np.ndarray         # (C,) ops/s
    wan_bandwidth: np.ndarray     # (R, L) KB/s, remote SN -> local SN
    lan_bandwidth: np.ndarray     # (L, C) KB/s, local SN -> CN
    gamma: float                  # ops per KB of input

    def __post_init__(self):
        for name, (_, dtype, depth) in _ENV_FIELDS.items():
            object.__setattr__(self, name, _check_table(name, getattr(self, name), dtype, depth))
        try:
            check_positive(self.gamma, "gamma")
        except ValueError as exc:
            raise InvalidEnvironmentError(str(exc)) from None
        object.__setattr__(self, "gamma", float(self.gamma))
        d, r = self.num_objects, self.num_remote_sns
        if self.hosting.size != d or self.hosting.min() < 0 or self.hosting.max() >= r:
            raise InvalidEnvironmentError(f"hosting must hold a remote SN id in [0, {r}) for "
                                          f"each of {d} objects, got {echo(self.hosting.tolist())}")
        if self.wan_bandwidth.shape[1] != self.num_local_sns:
            raise InvalidEnvironmentError(
                f"wan_bandwidth has {self.wan_bandwidth.shape[1]} local SN columns but "
                f"lan_bandwidth has {self.num_local_sns} rows")
        if self.lan_bandwidth.shape[1] != self.num_cns:
            raise InvalidEnvironmentError(
                f"lan_bandwidth has {self.lan_bandwidth.shape[1]} CN columns but there are "
                f"{self.num_cns} CN speeds")
        for j, objs in enumerate(self.job_inputs):
            if not (objs and 0 <= objs[0] and objs[-1] < d
                    and all(a < b for a, b in zip(objs, objs[1:]))):
                raise InvalidEnvironmentError(
                    f"job_inputs[{j}] must be a non-empty, strictly ascending list of "
                    f"object ids in [0, {d}), got {echo(objs)}")

    # -- dimensions ---------------------------------------------------------

    @property
    def num_objects(self) -> int:
        return self.object_sizes.size

    @property
    def num_jobs(self) -> int:
        return len(self.job_inputs)

    @property
    def num_cns(self) -> int:
        return self.cn_speeds.size

    @property
    def num_local_sns(self) -> int:
        return self.lan_bandwidth.shape[0]

    @property
    def num_remote_sns(self) -> int:
        return self.wan_bandwidth.shape[0]

    # -- the delay model: every model, heuristic and replay reads these ----
    # Each table but lan_delay() is built on first read and read-only.

    @functools.cached_property
    def replication_delay(self) -> np.ndarray:
        """(D, L) WAN replication delay ``size[d] / wan[hosting[d], l]``."""
        return _frozen(self.object_sizes[:, None] / self.wan_bandwidth[self.hosting],
                       np.float64)

    def lan_delay(self) -> np.ndarray:
        """(D, L, C) LAN transfer delay ``size[d] / lan[l, c]``.

        Formed on every call, never cached: it is D·L·C doubles (320 KB at
        the medium preset, 6 MB at large), and one kept per live environment
        falls out of the CPU caches when a search cycles through several.
        """
        return self.object_sizes[:, None, None] / self.lan_bandwidth

    @functools.cached_property
    def exec_time(self) -> np.ndarray:
        """(J, C) compute time ``gamma * job_input_sizes[j] / speed[c]``."""
        return _frozen(self.gamma * self.job_input_sizes[:, None] / self.cn_speeds,
                       np.float64)

    @functools.cached_property
    def input_table(self) -> np.ndarray:
        """Job inputs as an (M, J) id table, one column per job.

        M is the largest input count; column j holds ``job_inputs[j]``
        followed by repeats of its first input, which never change a max
        over the column.
        """
        width = max(map(len, self.job_inputs))
        return _frozen(np.transpose([objs + objs[:1] * (width - len(objs))
                                     for objs in self.job_inputs]), np.int64)

    @functools.cached_property
    def job_input_sizes(self) -> np.ndarray:
        """(J,) total KB read by each job, summed in input order."""
        # cumsum adds left to right, as the replay does; a plain sum would
        # pair terms up and differ in the last bit for eight or more inputs.
        # A job lists each input once, so a repeat of its first is padding.
        table = self.input_table
        sizes = self.object_sizes[table]
        sizes[1:][table[1:] == table[0]] = 0.0
        return _frozen(np.cumsum(sizes, axis=0)[-1], np.float64)

    # -- persistence --------------------------------------------------------

    def to_document(self) -> dict:
        doc = {"schema": ENVIRONMENT_SCHEMA}
        for name, (key, _, _) in _ENV_FIELDS.items():
            value = getattr(self, name)
            doc[key] = value.tolist() if name != "job_inputs" else [list(objs) for objs in value]
        doc["gamma"] = self.gamma
        return doc

    def save(self, path) -> None:
        save_document(self.to_document(), path)


def environment_from_document(doc: dict) -> GridEnvironment:
    """Rebuild an environment from :meth:`GridEnvironment.to_document` output.

    Raises :class:`DocumentError` naming the offending field when the schema
    tag is wrong, a field is missing or unknown, or the constructor rejects it.
    """
    keys = {name: key for name, (key, _, _) in _ENV_FIELDS.items()}
    keys["gamma"] = "gamma"
    check_document(doc, ENVIRONMENT_SCHEMA, keys.values())
    return build_from_document(GridEnvironment, **{name: doc[key] for name, key in keys.items()})


def load_environment(path) -> GridEnvironment:
    return environment_from_document(load_document(path))


# -- generation --------------------------------------------------------------


# field -> (kind, pair) of a GenerationConfig, read by its check, by
# config_from_document and by `gridopt gen`.  An int is a count >= 1
# (rng_seed >= 0) within int64, a float finite and > 0, a pair [lo, hi] has
# lo <= hi (objects_per_job may be None); the first five have no default.
_GENERATION_FIELDS = {
    "num_jobs": (int, False), "num_objects": (int, False), "num_cns": (int, False),
    "num_local_sns": (int, False), "num_remote_sns": (int, False),
    "object_size_range_kb": (float, True), "wan_bandwidth_range": (float, True),
    "lan_bandwidth_range": (float, True), "cn_speed_range": (float, True),
    "gamma": (float, False), "zipf_exponent": (float, False),
    "objects_per_job": (int, True), "rng_seed": (int, False),
}
_GENERATION_DIMENSIONS = tuple(_GENERATION_FIELDS)[:5]


def _check_field(name, value, kind, pair):
    """``value`` as field ``name`` holds it: a pair as a tuple, an integer
    as a Python int; else ValueError naming the field, or a pair's entry as
    ``name[i]``."""
    if pair:
        if not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"{name} must be a pair [lo, hi], got {echo(value)}")
        lo, hi = (_check_field(f"{name}[{i}]", v, kind, False) for i, v in enumerate(value))
        if lo > hi:
            raise ValueError(f"{name} must satisfy lo <= hi, got {echo(value)}")
        return lo, hi
    if kind is float:
        check_positive(value, name)
        return value
    check_seed(value, name, minimum=0 if name == "rng_seed" else 1)
    if value >= 2**63:
        raise ValueError(f"{name} must fit in int64, got {echo(value)}")
    return int(value)


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs for random environment generation.

    Size and bandwidth ranges are inclusive uniform ranges.  Object
    popularity follows a Zipf law over object ids truncated to [1, D],
    exponent ``zipf_exponent``.  ``objects_per_job`` is the inclusive range
    for how many distinct objects a job reads; ``None`` resolves to
    ``(1, min(D, ceil(2 * D / J)))`` so the expected total demand stays
    proportional to the catalogue.
    """

    num_jobs: int
    num_objects: int
    num_cns: int
    num_local_sns: int
    num_remote_sns: int
    object_size_range_kb: tuple[float, float] = (50 * KB_PER_MB, 1500 * KB_PER_MB)
    wan_bandwidth_range: tuple[float, float] = (700.0, 1300.0)
    lan_bandwidth_range: tuple[float, float] = (7000.0, 13000.0)
    cn_speed_range: tuple[float, float] = (500.0, 1500.0)
    gamma: float = 1.0
    zipf_exponent: float = 1.0
    objects_per_job: tuple[int, int] | None = None
    rng_seed: int = 0

    def __post_init__(self):
        try:
            for name, (kind, pair) in _GENERATION_FIELDS.items():
                value = getattr(self, name)
                if not (value is None and name == "objects_per_job"):
                    object.__setattr__(self, name, _check_field(name, value, kind, pair))
        except ValueError as exc:
            raise InvalidConfigError(str(exc)) from None
        lo, hi = self.resolved_objects_per_job()
        if hi > self.num_objects:
            raise InvalidConfigError(f"objects_per_job must satisfy hi <= num_objects = "
                                     f"{self.num_objects}, got ({lo}, {hi})")

    def resolved_objects_per_job(self) -> tuple[int, int]:
        if self.objects_per_job is not None:
            return self.objects_per_job
        hi = min(self.num_objects, math.ceil(2 * self.num_objects / self.num_jobs))
        return (1, hi)

    def to_document(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["schema"] = GENERATION_SCHEMA
        return doc


def config_from_document(doc: dict) -> GenerationConfig:
    """Rebuild a config from :meth:`GenerationConfig.to_document` output;
    :class:`DocumentError` names the field that the schema or the config rejects."""
    check_document(doc, GENERATION_SCHEMA, _GENERATION_DIMENSIONS, _GENERATION_FIELDS)
    return build_from_document(GenerationConfig, **{name: doc[name] for name in
                                                    _GENERATION_FIELDS if name in doc})


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return weights / weights.sum()


def generate(config: GenerationConfig, seed: int | None = None) -> GridEnvironment:
    """Draw a random environment.

    Object ids double as popularity ranks: id 0 is the most popular object.
    Job input sets are sampled without replacement by redrawing duplicates,
    which preserves the Zipf marginals up to the no-duplicate constraint.
    ``seed`` overrides ``config.rng_seed`` when given.
    """
    if seed is None:
        seed = config.rng_seed
    check_seed(seed)
    rng = np.random.default_rng(seed)
    d, j = config.num_objects, config.num_jobs

    sizes = rng.uniform(*config.object_size_range_kb, size=d)
    speeds = rng.uniform(*config.cn_speed_range, size=config.num_cns)
    wan = rng.uniform(*config.wan_bandwidth_range,
                      size=(config.num_remote_sns, config.num_local_sns))
    lan = rng.uniform(*config.lan_bandwidth_range,
                      size=(config.num_local_sns, config.num_cns))
    hosting = rng.integers(0, config.num_remote_sns, size=d)

    # rng.choice(d, p=weights) normalises this CDF and searches it with one
    # rng.random() on every call; build it once and draw the same uniforms
    cdf = _zipf_weights(d, config.zipf_exponent).cumsum()
    cdf /= cdf[-1]
    lo, hi = config.resolved_objects_per_job()
    job_inputs = []
    for _ in range(j):
        want = int(rng.integers(lo, hi, endpoint=True))
        picked = set(cdf.searchsorted(rng.random(want), side="right").tolist())
        while len(picked) < want:
            picked.add(int(cdf.searchsorted(rng.random(), side="right")))
        job_inputs.append(tuple(sorted(picked)))

    return GridEnvironment(
        object_sizes=sizes,
        hosting=hosting,
        job_inputs=tuple(job_inputs),
        cn_speeds=speeds,
        wan_bandwidth=wan,
        lan_bandwidth=lan,
        gamma=config.gamma,
    )


GRID_PRESETS = {
    "small": dict(num_cns=10, num_remote_sns=10, num_local_sns=10,
                  num_jobs=10, num_objects=20),
    "medium": dict(num_cns=20, num_remote_sns=20, num_local_sns=20,
                   num_jobs=50, num_objects=100),
    "large": dict(num_cns=50, num_remote_sns=50, num_local_sns=50,
                  num_jobs=100, num_objects=300),
}


def preset_config(name: str, seed: int = 0, **overrides) -> GenerationConfig:
    """Generation config for one of the named grid sizes."""
    if name not in GRID_PRESETS:
        raise InvalidConfigError(
            f"unknown preset {name!r}; choose from {sorted(GRID_PRESETS)}"
        )
    kwargs = dict(GRID_PRESETS[name])
    kwargs.update(overrides)
    return GenerationConfig(rng_seed=seed, **kwargs)
