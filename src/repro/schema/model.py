"""The canonical scenario data model (``ScenarioDoc`` v1).

A *scenario document* is the serializable description of one planning
scenario: the SOC (digital cores, analog cores with their tests, power
ratings, an optional SOC-level power budget), an optional TAM
configuration block, and an optional optimizer profile.  It is the
lingua franca of the whole stack — the ITC'02 dialect front-end
(:mod:`repro.soc.itc02`), the workload registry
(:mod:`repro.workloads.registry`), the sweep engine, the server's job
specs, and the ``repro scenario`` CLI all speak it.

Strictness contract (the ipcraft split):

* **Strict objects** — the document root, ``soc``, each digital core,
  each analog core, ``tam``, and ``optimizer`` reject unknown fields
  with a line-anchored diagnostic.  A typo'd field name is an error,
  never silently ignored.
* **Lenient leaf objects** — ``tests`` entries accept unknown fields
  and *preserve* them: extension fields survive a
  parse → generate round-trip byte-exactly (they are stored on
  :attr:`ScenarioDoc.extensions` in canonical JSON form).  This is the
  vendor-extension point for annotating real ITC'02-derived corpora.

Versioning rule: ``schema_version`` is required and must equal
:data:`SCHEMA_VERSION`.  Additive, backward-compatible changes (new
*optional* strict fields, new extension conventions) keep the version;
anything that changes the meaning of an existing field bumps it, and
the parser rejects documents from the future by name rather than
misreading them.

:func:`generate` emits **canonical JSON**: fixed field order, 2-space
indent, optional fields omitted at their defaults, floats in ``repr``
form.  ``generate(parse(text))`` is a fixed point — parsing canonical
output and generating again is byte-identical, which is what the
content-hash job coalescing keys on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..soc.model import AnalogCore, AnalogTest, DigitalCore, Soc

__all__ = [
    "SCHEMA_VERSION",
    "OptimizerProfile",
    "ScenarioDoc",
    "TamConfig",
    "generate",
    "to_canonical_dict",
    "validate",
    "yaml_available",
]

#: The one document version this reader/writer speaks.
SCHEMA_VERSION = 1

#: Known field names of each strict object (everything else errors)
#: and of the lenient ``tests`` leaves (everything else is an
#: extension).  Exposed for the parser and for documentation tests.
ROOT_FIELDS = ("schema_version", "name", "soc", "tam", "optimizer")
SOC_FIELDS = ("name", "power_budget", "digital_cores", "analog_cores")
DIGITAL_FIELDS = (
    "name", "inputs", "outputs", "bidirs", "scan_chains", "patterns",
    "power",
)
ANALOG_FIELDS = (
    "name", "description", "resolution_bits", "position", "tests",
)
TEST_FIELDS = (
    "name", "band_low_hz", "band_high_hz", "sample_freq_hz", "cycles",
    "tam_width", "resolution_bits", "power",
)
TAM_FIELDS = ("width", "wt")
OPTIMIZER_FIELDS = ("strategy", "budget", "search_seed", "effort")


def yaml_available() -> bool:
    """Whether the optional PyYAML extra is importable."""
    try:
        import yaml  # noqa: F401
    except ImportError:
        return False
    return True


@dataclass(frozen=True)
class TamConfig:
    """The scenario's TAM block: width and the cost weight it suggests.

    Advisory defaults for jobs built from the document (``repro submit
    --scenario`` fills unspecified spec fields from here); semantic
    checks — width feasibility against the analog tests' fixed TAM
    requirements — live in :func:`validate` so they collect alongside
    other diagnostics instead of raising one at a time.
    """

    width: int = 32
    wt: float = 0.5

    def to_dict(self) -> dict:
        return {"width": self.width, "wt": self.wt}


@dataclass(frozen=True)
class OptimizerProfile:
    """The scenario's optional optimizer profile.

    Names the anytime strategy, its evaluation budget, the search RNG
    seed, and the packer effort tier to use when a job built from this
    document does not say otherwise.
    """

    strategy: str = "anneal"
    budget: int = 200
    search_seed: int = 0
    effort: str = "medium"

    def to_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "budget": self.budget,
            "search_seed": self.search_seed,
            "effort": self.effort,
        }


@dataclass(frozen=True)
class ScenarioDoc:
    """One versioned scenario document.

    :param name: document name; doubles as the workload label of jobs
        submitted from this document.
    :param soc: the fully-instantiated SOC the document describes.
    :param schema_version: must equal :data:`SCHEMA_VERSION`.
    :param tam: optional TAM configuration block.
    :param optimizer: optional optimizer profile.
    :param extensions: preserved unknown fields of the lenient ``tests``
        leaves, as sorted ``(core_name, test_name, key, value_json)``
        tuples where ``value_json`` is the canonical JSON text of the
        extension value.  Kept out of :class:`~repro.soc.model.Soc`
        (the runtime model ignores them) but re-emitted by
        :func:`generate` so round-trips are exact.
    """

    name: str
    soc: Soc
    schema_version: int = SCHEMA_VERSION
    tam: TamConfig | None = None
    optimizer: OptimizerProfile | None = None
    extensions: tuple[tuple[str, str, str, str], ...] = ()

    def build(self) -> Soc:
        """The runtime SOC of this scenario (what the planners consume)."""
        return self.soc

    @classmethod
    def from_soc(
        cls,
        soc: Soc,
        name: str | None = None,
        tam: TamConfig | None = None,
        optimizer: OptimizerProfile | None = None,
    ) -> "ScenarioDoc":
        """Wrap a runtime SOC as a (validated, extension-free) document."""
        return cls(
            name=name or soc.name,
            soc=soc,
            tam=tam,
            optimizer=optimizer,
        )


def _test_dict(
    core: AnalogCore,
    test: AnalogTest,
    extensions: dict[tuple[str, str], list[tuple[str, str]]],
) -> dict:
    record: dict = {
        "name": test.name,
        "band_low_hz": float(test.band_low_hz),
        "band_high_hz": float(test.band_high_hz),
        "sample_freq_hz": float(test.sample_freq_hz),
        "cycles": test.cycles,
        "tam_width": test.tam_width,
    }
    if test.resolution_bits is not None:
        record["resolution_bits"] = test.resolution_bits
    if test.power:
        record["power"] = test.power
    for key, value_json in extensions.get((core.name, test.name), ()):
        record[key] = json.loads(value_json)
    return record


def to_canonical_dict(doc: ScenarioDoc) -> dict:
    """The document as a plain dict in canonical field order.

    Optional fields are omitted at their defaults (``power`` 0,
    ``resolution_bits``/``position``/``power_budget`` absent,
    ``description`` equal to the core name), so the canonical form is
    minimal and :func:`generate` is idempotent.
    """
    extensions: dict[tuple[str, str], list[tuple[str, str]]] = {}
    for core_name, test_name, key, value_json in sorted(doc.extensions):
        extensions.setdefault((core_name, test_name), []).append(
            (key, value_json)
        )

    soc = doc.soc
    soc_record: dict = {"name": soc.name}
    if soc.power_budget is not None:
        soc_record["power_budget"] = soc.power_budget
    digital = []
    for core in soc.digital_cores:
        record: dict = {
            "name": core.name,
            "inputs": core.inputs,
            "outputs": core.outputs,
            "bidirs": core.bidirs,
            "scan_chains": list(core.scan_chains),
            "patterns": core.patterns,
        }
        if core.power:
            record["power"] = core.power
        digital.append(record)
    analog = []
    for core in soc.analog_cores:
        record = {"name": core.name}
        if core.description != core.name:
            record["description"] = core.description
        record["resolution_bits"] = core.resolution_bits
        if core.position is not None:
            record["position"] = [
                float(core.position[0]), float(core.position[1])
            ]
        record["tests"] = [
            _test_dict(core, test, extensions) for test in core.tests
        ]
        analog.append(record)
    soc_record["digital_cores"] = digital
    soc_record["analog_cores"] = analog

    record = {
        "schema_version": doc.schema_version,
        "name": doc.name,
        "soc": soc_record,
    }
    if doc.tam is not None:
        record["tam"] = doc.tam.to_dict()
    if doc.optimizer is not None:
        record["optimizer"] = doc.optimizer.to_dict()
    return record


def generate(doc: ScenarioDoc, fmt: str = "json") -> str:
    """Serialize *doc* to canonical text.

    ``fmt="json"`` (the default) is the canonical byte form: the
    content-hash coalescing keys and the shipped preset documents are
    defined over it, and ``generate(parse(generate(doc)))`` is
    byte-identical.  ``fmt="yaml"`` needs the optional PyYAML extra and
    is a human-friendly alternative with the same field order (YAML
    output is *not* the canonical byte form — it canonicalizes by
    parsing and re-generating as JSON).

    :raises ValueError: unknown format, or YAML requested without
        PyYAML installed.
    """
    record = to_canonical_dict(doc)
    if fmt == "json":
        return json.dumps(record, indent=2, allow_nan=False) + "\n"
    if fmt == "yaml":
        if not yaml_available():
            raise ValueError(
                "YAML output needs the optional PyYAML dependency "
                "(the core schema is stdlib-only; install pyyaml or "
                "use fmt='json')"
            )
        import yaml

        return yaml.safe_dump(record, sort_keys=False)
    raise ValueError(f"unknown scenario format {fmt!r} (json or yaml)")


def validate(doc: ScenarioDoc) -> tuple:
    """Semantic validation beyond shape: collected diagnostics.

    The structural layer (:func:`repro.schema.parse`) already enforces
    types, strictness, and the :class:`~repro.soc.model.Soc`
    invariants; this pass checks the cross-field rules that need the
    whole document — version pinning, TAM feasibility against the
    analog tests' fixed widths, optimizer profile names, extension
    references.  Returns a (possibly empty) tuple of
    :class:`~repro.schema.parse.Diagnostic`; an empty result means the
    document is valid.
    """
    from .parse import Diagnostic

    diags: list[Diagnostic] = []

    def err(path: str, message: str) -> None:
        diags.append(Diagnostic(path=path, message=message))

    if doc.schema_version != SCHEMA_VERSION:
        err(
            "schema_version",
            f"unsupported schema_version {doc.schema_version!r}; this "
            f"build reads version {SCHEMA_VERSION}",
        )
    if not doc.name or not isinstance(doc.name, str):
        err("name", "scenario name must be a non-empty string")
    if doc.tam is not None:
        if doc.tam.width < 1:
            err("tam.width", f"width must be >= 1, got {doc.tam.width}")
        if not 0 <= doc.tam.wt <= 1:
            err("tam.wt", f"wt must lie in [0, 1], got {doc.tam.wt}")
        else:
            for core in doc.soc.analog_cores:
                for test in core.tests:
                    if test.tam_width > doc.tam.width >= 1:
                        err(
                            "tam.width",
                            f"analog test {core.name}.{test.name} needs "
                            f"{test.tam_width} TAM wires but tam.width "
                            f"is {doc.tam.width}",
                        )
    if doc.optimizer is not None:
        profile = doc.optimizer
        if profile.budget < 1:
            err(
                "optimizer.budget",
                f"budget must be >= 1, got {profile.budget}",
            )
        if profile.search_seed < 0:
            err(
                "optimizer.search_seed",
                f"search_seed must be >= 0, got {profile.search_seed}",
            )
        from ..tam.packing import PACK_EFFORT

        if profile.effort not in PACK_EFFORT:
            err(
                "optimizer.effort",
                f"unknown effort {profile.effort!r}, pick from "
                f"{sorted(PACK_EFFORT)}",
            )
        from ..search import registry as search_registry

        if profile.strategy not in search_registry.strategy_names():
            err(
                "optimizer.strategy",
                f"unknown strategy {profile.strategy!r}, pick from "
                f"{', '.join(search_registry.strategy_names())}",
            )
    known_tests = {
        (core.name, test.name)
        for core in doc.soc.analog_cores
        for test in core.tests
    }
    for core_name, test_name, key, _value in doc.extensions:
        if (core_name, test_name) not in known_tests:
            err(
                "extensions",
                f"extension field {key!r} references unknown test "
                f"{core_name}.{test_name}",
            )
    return tuple(diags)
