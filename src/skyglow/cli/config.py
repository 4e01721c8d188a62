"""Run configuration: a flat `[section] key = value` file parsed into one
validated RunConfig, with defaults for everything except the two input paths.

Each key is declared once, by `_entries`, which lists a RunConfig as
ordered (section, key, value) entries. Listing the default RunConfig, built
from the owning library dataclasses, gives the keys a file may set and the
type each parses as; listing the effective one gives the echo every command
writes into the output directory. Unknown sections or keys are hard errors
naming the offender; range checks are left to the owning constructors so
the CLI and the library reject exactly the same values.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, fields
from itertools import groupby
from operator import itemgetter
from pathlib import Path

from ..dataset import CATEGORICAL_REPORT_FIELDS
from ..ensemble import DEFAULT_STEP_SCHEDULE
from ..errors import ConfigError, ParameterError
from ..features.pipeline import FeatureConfig
from ..features.stack import StackSpec
from ..learners.params import LearnerParams
from ..synth import SynthConfig
from ..validation import LearnerSpec

DEFAULT_TREND_FIELDS = ("limiting_magnitude", "sensor_reading", "elevation_m")

# [features] keys that FeatureConfig owns.
_FEATURE_KEYS = tuple(f.name for f in fields(FeatureConfig))

# [model.<id>] key -> LearnerParams field, in field order.
_SHORT_PARAM_KEYS = {"n_rounds": "rounds", "l2_regularization": "l2",
                     "n_trees": "trees", "early_stopping_patience": "patience"}
_PARAM_KEYS = {_SHORT_PARAM_KEYS.get(f.name, f.name): f.name
               for f in fields(LearnerParams)}

# The roster used when [models] ids is not set: model id -> (kind, stack).
_DEFAULT_ROSTER = {
    "gbdt_full": ("gbdt", StackSpec()),
    "gbdt_plain": ("gbdt", StackSpec(use_text=False, use_neighbor=False)),
    "forest": ("forest", StackSpec()),
}


@dataclass(frozen=True)
class RunConfig:
    observations_path: Path
    population_path: Path
    output_dir: Path
    strictness: str
    feature_config: FeatureConfig
    vocab_cap: int
    svd_rank: int
    cv_k: int
    seed: int
    stratified: bool
    specs: tuple[LearnerSpec, ...]
    step_schedule: tuple[float, ...]
    synth: SynthConfig
    trend_fields: tuple[str, ...]
    category_fields: tuple[str, ...]
    predict_path: Path

    @property
    def model_ids(self) -> tuple[str, ...]:
        return tuple(spec.model_id for spec in self.specs)


def _entries(config: RunConfig) -> list[tuple[str, str, object]]:
    """The configuration as ordered (section, key, value) entries."""
    entries: list[tuple[str, str, object]] = [
        ("data", "observations", config.observations_path),
        ("data", "population", config.population_path),
        ("data", "strictness", config.strictness),
        ("output", "directory", config.output_dir),
    ]
    entries += [("features", key, getattr(config.feature_config, key))
                for key in _FEATURE_KEYS]
    entries += [
        ("features", "vocab_cap", config.vocab_cap),
        ("features", "svd_rank", config.svd_rank),
        ("cv", "k", config.cv_k),
        ("cv", "seed", config.seed),
        ("cv", "stratified", config.stratified),
        ("models", "ids", config.model_ids),
    ]
    for spec in config.specs:
        section = f"model.{spec.model_id}"
        entries.append((section, "kind", spec.kind))
        entries += [(section, key, getattr(spec.params, name))
                    for key, name in _PARAM_KEYS.items()]
        entries += [(section, "use_text", spec.stack.use_text),
                    (section, "use_neighbor", spec.stack.use_neighbor)]
    entries.append(("ensemble", "steps", config.step_schedule))
    entries += [("synth", f.name, getattr(config.synth, f.name))
                for f in fields(SynthConfig)]
    entries += [
        ("report", "trend_fields", config.trend_fields),
        ("report", "category_fields", config.category_fields),
        ("predict", "observations", config.predict_path),
    ]
    return entries


def _defaults(ids: tuple[str, ...] | None, seed: int = 0,
              observations: Path = Path()) -> dict[tuple[str, str], object]:
    """Default of every key a file may set, by (section, key). `ids=None`
    is the default roster; [synth] and model seeds default to `seed`, the
    [cv] seed; `observations` stands in for both input paths."""
    roster = _DEFAULT_ROSTER if ids is None else {
        model_id: ("gbdt", StackSpec()) for model_id in ids}
    config = RunConfig(
        observations_path=observations,
        population_path=observations,
        output_dir=Path("skyglow_out"),
        strictness="lenient",
        feature_config=FeatureConfig(),
        vocab_cap=StackSpec.vocab_cap,
        svd_rank=StackSpec.svd_rank,
        cv_k=5,
        seed=seed,
        stratified=True,
        specs=tuple(LearnerSpec(model_id, kind, LearnerParams(seed=seed), stack)
                    for model_id, (kind, stack) in roster.items()),
        step_schedule=DEFAULT_STEP_SCHEDULE,
        synth=SynthConfig(seed=seed),
        trend_fields=DEFAULT_TREND_FIELDS,
        category_fields=CATEGORICAL_REPORT_FIELDS,
        predict_path=observations,
    )
    return {(section, key): value for section, key, value in _entries(config)}


def _from_values(values: dict[tuple[str, str], object]) -> RunConfig:
    """The RunConfig whose entries are `values`."""
    def section(name: str, keys) -> dict[str, object]:
        return {key: values[name, key] for key in keys}

    vocab_cap, svd_rank = values["features", "vocab_cap"], values["features", "svd_rank"]
    specs = []
    for model_id in values["models", "ids"]:
        model = f"model.{model_id}"
        params = LearnerParams(**{name: values[model, key]
                                  for key, name in _PARAM_KEYS.items()})
        stack = StackSpec(use_text=values[model, "use_text"],
                          use_neighbor=values[model, "use_neighbor"],
                          vocab_cap=vocab_cap, svd_rank=svd_rank)
        specs.append(LearnerSpec(model_id, values[model, "kind"], params, stack))
    return RunConfig(
        observations_path=values["data", "observations"],
        population_path=values["data", "population"],
        output_dir=values["output", "directory"],
        strictness=values["data", "strictness"],
        feature_config=FeatureConfig(**section("features", _FEATURE_KEYS)),
        vocab_cap=vocab_cap,
        svd_rank=svd_rank,
        cv_k=values["cv", "k"],
        seed=values["cv", "seed"],
        stratified=values["cv", "stratified"],
        specs=tuple(specs),
        step_schedule=values["ensemble", "steps"],
        synth=SynthConfig(**section("synth", (f.name for f in fields(SynthConfig)))),
        trend_fields=values["report", "trend_fields"],
        category_fields=values["report", "category_fields"],
        predict_path=values["predict", "observations"],
    )


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
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None

    ids = None
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
    seed = (given.get(("cv", "seed"), defaults["cv", "seed"])
            if seed_override is None else seed_override)
    values = _defaults(ids, seed, given["data", "observations"]) | given
    if seed_override is not None:
        values["cv", "seed"] = values["synth", "seed"] = seed_override
    if out_override:
        values["output", "directory"] = Path(out_override)
    if values["data", "strictness"] not in ("strict", "lenient"):
        bad.append("data.strictness")
    if bad:
        raise ConfigError(f"invalid value for: {', '.join(sorted(bad))}")

    config = _from_values(values)
    if config.cv_k < 2:
        raise ParameterError(f"k must be >= 2, got {config.cv_k}")
    for step in config.step_schedule:
        if not 0.0 < step <= 1.0:
            raise ParameterError(f"step sizes must be in (0, 1], got {step}")
    if require_inputs:
        for label, p in (("data.observations", config.observations_path),
                         ("data.population", config.population_path)):
            if not p.exists():
                raise ConfigError(f"{label} does not exist: {p}")
    return config


def render_config(config: RunConfig) -> str:
    """Deterministic echo of the effective configuration."""
    blocks = [[f"[{section}]"] + [f"{key} = {_format(value)}" for _, key, value in group]
              for section, group in groupby(_entries(config), key=itemgetter(0))]
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"
