"""Run configuration: a flat `[section] key = value` file parsed into one
validated RunConfig, with defaults for everything except the two input paths.

Each key is declared once, on the RunConfig field that holds it: `_key`
gives a field's `[section] key` and default, and `_section` makes a
settings dataclass (`skyglow.specs`) a whole section whose fields are its
keys. Walking the declarations gives the keys a file may set, the type
each parses as and its default; walking a RunConfig gives the echo every
command writes into the output directory. Unknown sections or keys are hard
errors naming the offender; range checks are left to the owning
constructors so the CLI and the library reject exactly the same values.
"""

from __future__ import annotations

import configparser
from dataclasses import Field, dataclass, field, fields
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path

from ..dataset import CATEGORICAL_REPORT_FIELDS, NUMERIC_FIELDS
from ..errors import ConfigError, ParameterError
from ..specs import (
    DEFAULT_STEP_SCHEDULE,
    FeatureConfig,
    LearnerParams,
    LearnerSpec,
    StackSpec,
    SynthConfig,
)

DEFAULT_TREND_FIELDS = ("limiting_magnitude", "sensor_reading", "elevation_m")

# [model.<id>] key -> LearnerParams field, in field order.
_SHORT_PARAM_KEYS = {"n_rounds": "rounds", "l2_regularization": "l2",
                     "n_trees": "trees", "early_stopping_patience": "patience"}
_PARAM_KEYS = {_SHORT_PARAM_KEYS.get(f.name, f.name): f.name
               for f in fields(LearnerParams)}
# The StackSpec fields a model sets; the others are run-wide [features]
# keys, held in the RunConfig fields of the same names.
_STACK_KEYS = ("use_text", "use_neighbor")
# [model.<id>] key -> LearnerSpec attribute, in echo order.
_MODEL_KEYS = {"kind": "kind",
               **{key: f"params.{name}" for key, name in _PARAM_KEYS.items()},
               **{key: f"stack.{key}" for key in _STACK_KEYS}}

# The roster used when [models] ids is not set: model id -> (kind, stack).
# Each of these ids has its kind and stack by default wherever it is listed.
_DEFAULT_ROSTER = {
    "gbdt_full": ("gbdt", StackSpec()),
    "gbdt_plain": ("gbdt", StackSpec(use_text=False, use_neighbor=False)),
    "forest": ("forest", StackSpec()),
}


def _key(section: str, key: str, default: object = None,
         same: tuple[str, str] | None = None):
    """A field read from `[section] key`. Left out, it takes `default`, or
    the value of the (section, key) `same`."""
    return field(metadata={"key": (section, key), "default": default,
                           "same": {key: same} if same else {}})


def _section(section: str, settings: type, **same: tuple[str, str]):
    """A field whose `settings` dataclass is `[section]`, each of its fields
    a key; `same` maps a key to the (section, key) whose value it takes."""
    return field(metadata={"section": section, "default": settings(), "same": same})


@dataclass(frozen=True)
class RunConfig:
    # The two input paths are required; their defaults only give the type.
    observations_path: Path = _key("data", "observations", Path())
    population_path: Path = _key("data", "population", Path())
    strictness: str = _key("data", "strictness", "lenient")
    output_dir: Path = _key("output", "directory", Path("skyglow_out"))
    feature_config: FeatureConfig = _section("features", FeatureConfig)
    vocab_cap: int = _key("features", "vocab_cap", StackSpec.vocab_cap)
    svd_rank: int = _key("features", "svd_rank", StackSpec.svd_rank)
    cv_k: int = _key("cv", "k", 5)
    seed: int = _key("cv", "seed", 0)
    stratified: bool = _key("cv", "stratified", True)
    # [models] ids and a [model.<id>] section per id, keyed by _MODEL_KEYS.
    specs: tuple[LearnerSpec, ...] = field(metadata={"same": {"seed": ("cv", "seed")}})
    step_schedule: tuple[float, ...] = _key("ensemble", "steps", DEFAULT_STEP_SCHEDULE)
    synth: SynthConfig = _section("synth", SynthConfig, seed=("cv", "seed"))
    trend_fields: tuple[str, ...] = _key("report", "trend_fields", DEFAULT_TREND_FIELDS)
    category_fields: tuple[str, ...] = _key("report", "category_fields",
                                            CATEGORICAL_REPORT_FIELDS)
    predict_path: Path = _key("predict", "observations", same=("data", "observations"))

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(spec.model_id for spec in self.specs)


def _field_entries(declared: Field, value: object) -> list[tuple[str, str, object]]:
    """The (section, key, value) entries of a RunConfig field's value."""
    meta = declared.metadata
    if "key" in meta:
        return [(*meta["key"], value)]
    if "section" in meta:
        return [(meta["section"], f.name, getattr(value, f.name)) for f in fields(value)]
    entries = [("models", "ids", tuple(spec.model_id for spec in value))]
    for spec in value:
        entries += [(f"model.{spec.model_id}", key, attrgetter(path)(spec))
                    for key, path in _MODEL_KEYS.items()]
    return entries


def _entries(config: RunConfig) -> list[tuple[str, str, object]]:
    """The configuration as ordered (section, key, value) entries."""
    return [entry for declared in fields(RunConfig)
            for entry in _field_entries(declared, getattr(config, declared.name))]


def _defaults(ids: tuple[str, ...],
              given: dict[tuple[str, str], object] | None = None
              ) -> dict[tuple[str, str], object]:
    """Default of every key a file may set, by (section, key), for the
    models `ids`: an id of the default roster keeps its kind and stack
    there, any other is a gbdt with the full stack. A key that takes
    another key's value takes it from `given` if set there."""
    roster = {model_id: _DEFAULT_ROSTER.get(model_id, ("gbdt", StackSpec()))
              for model_id in ids}
    specs = tuple(LearnerSpec(model_id, kind, LearnerParams(), stack)
                  for model_id, (kind, stack) in roster.items())
    defaults: dict[tuple[str, str], object] = {}
    same: dict[tuple[str, str], tuple[str, str]] = {}
    for declared in fields(RunConfig):
        meta = declared.metadata
        for section, key, value in _field_entries(declared, meta.get("default", specs)):
            defaults[section, key] = value
            if key in meta["same"]:
                same[section, key] = meta["same"][key]
    given = given or {}
    return defaults | {entry: given.get(other, defaults[other])
                       for entry, other in same.items()}


def _from_values(values: dict[tuple[str, str], object]) -> RunConfig:
    """The RunConfig whose entries are `values`."""
    kwargs: dict[str, object] = {}
    for declared in fields(RunConfig):
        meta = declared.metadata
        if "key" in meta:
            kwargs[declared.name] = values[meta["key"]]
        elif "section" in meta:
            kwargs[declared.name] = type(meta["default"])(**{
                f.name: values[meta["section"], f.name] for f in fields(meta["default"])})
        else:
            sizes = {f.name: kwargs[f.name] for f in fields(StackSpec)
                     if f.name not in _STACK_KEYS}
            specs = []
            for model_id in values["models", "ids"]:
                model = {key: values[f"model.{model_id}", key] for key in _MODEL_KEYS}
                params = {name: model[key] for key, name in _PARAM_KEYS.items()}
                stack = {key: model[key] for key in _STACK_KEYS}
                specs.append(LearnerSpec(model_id, model["kind"], LearnerParams(**params),
                                         StackSpec(**stack, **sizes)))
            kwargs[declared.name] = tuple(specs)
    return RunConfig(**kwargs)


def _parse(default: object, raw: str) -> object:
    """Parse `raw` as the type of `default`: a tuple is a comma-separated
    nonempty list of its first element's type. Raises ValueError."""
    if isinstance(default, tuple):
        parts = [part.strip() for part in raw.split(",") if part.strip()]
        if not parts:
            raise ValueError(raw)
        return tuple(_parse(default[0], part) for part in parts)
    if isinstance(default, bool):
        lowered = raw.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(raw)
    return type(default)(raw)


def _format(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format(item) for item in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def load_config(path: str | Path, out_override: str | None = None,
                seed_override: int | None = None,
                require_inputs: bool = True) -> RunConfig:
    """Parse, default-fill, and validate a config file.

    `require_inputs=False` skips the input-path existence check (the
    synth command creates those files itself).
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    ids = tuple(_DEFAULT_ROSTER)
    if parser.has_option("models", "ids"):
        try:
            ids = _parse(tuple(_DEFAULT_ROSTER), parser.get("models", "ids"))
        except ValueError:  # reported below with the other bad values
            ids = tuple(s.removeprefix("model.") for s in parser.sections()
                        if s.startswith("model."))
        repeated = sorted({model_id for model_id in ids if ids.count(model_id) > 1})
        if repeated:
            raise ConfigError(f"models.ids lists a model id more than once: "
                              f"{', '.join(repeated)}")
    defaults = _defaults(ids)
    known_sections = {section for section, _ in defaults}
    given: dict[tuple[str, str], object] = {}
    bad: list[str] = []
    for section in parser.sections():
        if section not in known_sections:
            raise ConfigError(f"unknown section: {section!r}")
        for key in parser.options(section):
            if (section, key) not in defaults:
                raise ConfigError(f"unknown key: {section}.{key}")
            try:
                given[section, key] = _parse(defaults[section, key],
                                             parser.get(section, key))
            except ValueError:
                bad.append(f"{section}.{key}")
    for key in ("observations", "population"):
        if ("data", key) not in given:
            raise ConfigError(f"missing required key: data.{key}")
    if seed_override is not None:
        given["cv", "seed"] = given["synth", "seed"] = seed_override
    if out_override:
        given["output", "directory"] = Path(out_override)
    values = _defaults(ids, given) | given
    if values["data", "strictness"] not in ("strict", "lenient"):
        bad.append("data.strictness")
    if not set(values["report", "category_fields"]) <= set(CATEGORICAL_REPORT_FIELDS):
        bad.append("report.category_fields")
    if not set(values["report", "trend_fields"]) <= {*NUMERIC_FIELDS, "population"}:
        bad.append("report.trend_fields")
    if bad:
        raise ConfigError(f"invalid value for: {', '.join(sorted(bad))}")

    config = _from_values(values)
    if config.cv_k < 2:
        raise ParameterError(f"k must be >= 2, got {config.cv_k}")
    if config.seed < 0:
        raise ParameterError(f"seed must be >= 0, got {config.seed}")
    for step in config.step_schedule:
        if not 0.0 < step <= 1.0:
            raise ParameterError(f"step sizes must be in (0, 1], got {step}")
    if require_inputs:
        for label, p in (("data.observations", config.observations_path),
                         ("data.population", config.population_path)):
            if not p.is_file():
                raise ConfigError(f"{label} is not an existing file: {p}")
    return config


def render_config(config: RunConfig) -> str:
    """Deterministic echo of the effective configuration."""
    blocks = [[f"[{section}]"] + [f"{key} = {_format(value)}" for _, key, value in group]
              for section, group in groupby(_entries(config), key=itemgetter(0))]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
