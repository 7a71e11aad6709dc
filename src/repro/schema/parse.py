"""Scenario readers and the strict/lenient shape checker.

JSON is read in two stages.  :func:`parse` first builds the tree with
the stdlib ``json.loads`` (hooked to refuse the two inputs it would
otherwise accept: duplicate keys and ``NaN``/``Infinity``) and shapes
it with no source positions — the common, valid case, at C speed.
Positions matter only to a diagnostic, so on *any* failure the text is
re-read by this module's small recursive-descent reader, which records
the line/column of every mapping key and sequence element it visits,
and the document is shaped again from that anchored tree: every error
and diagnostic is exactly the anchored reader's, except where a
document ``json.loads`` read nests deeper than that reader follows
(:data:`MAX_DEPTH`): its shape diagnostics then stand unanchored.
YAML input reuses PyYAML's composer (node marks are free) when the
optional dependency is importable; the core path stays stdlib-only.

Errors never stop at the first problem: the shape checker collects
:class:`Diagnostic` records — each anchored to a source line/column and
a dotted document path — and raises one :class:`ScenarioError` carrying
all of them, so a user fixing a hand-written scenario sees every typo'd
field and out-of-range value in one pass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from ..soc.model import AnalogCore, AnalogTest, DigitalCore, Soc
from . import model as _model
from .model import (
    ANALOG_FIELDS,
    DIGITAL_FIELDS,
    OPTIMIZER_FIELDS,
    ROOT_FIELDS,
    SCHEMA_VERSION,
    SOC_FIELDS,
    TAM_FIELDS,
    TEST_FIELDS,
    OptimizerProfile,
    ScenarioDoc,
    TamConfig,
)

__all__ = [
    "Diagnostic",
    "ScenarioError",
    "detect_format",
    "parse",
    "parse_file",
]


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding, anchored to the source when possible."""

    path: str
    message: str
    line: int | None = None
    column: int | None = None
    source: str | None = None

    def render(self) -> str:
        where = self.source or "<scenario>"
        if self.line is not None:
            where += f":{self.line}"
            if self.column is not None:
                where += f":{self.column}"
        at = f" at {self.path}" if self.path else ""
        return f"{where}: {self.message}{at}"


class ScenarioError(ValueError):
    """A scenario document failed to parse or validate.

    Carries every collected :class:`Diagnostic` on ``.diagnostics``;
    ``str()`` shows the first with a count, :meth:`render` shows all.
    """

    def __init__(self, diagnostics):
        self.diagnostics: tuple[Diagnostic, ...] = tuple(diagnostics)
        if not self.diagnostics:
            raise ValueError("ScenarioError needs at least one diagnostic")
        first = self.diagnostics[0].render()
        extra = len(self.diagnostics) - 1
        if extra:
            first += f" (+{extra} more problem{'s' if extra > 1 else ''})"
        super().__init__(first)

    def render(self) -> str:
        return "\n".join(diag.render() for diag in self.diagnostics)


#: deepest nesting of arrays and objects the anchored readers follow;
#: a scenario needs about 6 levels, and past this one a document gets a
#: diagnostic instead of exhausting the interpreter's recursion limit
MAX_DEPTH = 200
_TOO_DEEP = f"nesting deeper than {MAX_DEPTH} levels"


# ---------------------------------------------------------------------------
# Position-tracking JSON reader


class _JsonReader:
    """A minimal JSON reader that remembers where everything lives.

    Produces ``(tree, posmap)`` where ``posmap`` maps document paths —
    tuples of mapping keys and sequence indices — to 1-based
    ``(line, column)`` pairs.  Object paths anchor at the opening
    brace/bracket, field paths at their key.  Grammar and number/string
    semantics match ``json.loads`` except that duplicate keys and
    ``NaN``/``Infinity`` are refused, and so is nesting past
    :data:`MAX_DEPTH` (the reader recurses once per level).
    :func:`parse` runs it only to anchor a failure of the
    ``json.loads`` path.
    """

    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source
        self.n = len(text)
        self.i = 0
        self.line = 1
        self.col = 1
        self.pos: dict[tuple, tuple[int, int]] = {}

    def fail(self, message: str) -> ScenarioError:
        return ScenarioError([
            Diagnostic(
                path="", message=message, line=self.line, column=self.col,
                source=self.source,
            )
        ])

    def _advance(self, count: int) -> None:
        for _ in range(count):
            if self.text[self.i] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.i += 1

    def _skip_ws(self) -> None:
        while self.i < self.n and self.text[self.i] in " \t\r\n":
            self._advance(1)

    def _peek(self) -> str:
        if self.i >= self.n:
            raise self.fail("unexpected end of document")
        return self.text[self.i]

    def _expect(self, char: str) -> None:
        if self.i >= self.n or self.text[self.i] != char:
            found = self.text[self.i] if self.i < self.n else "end of document"
            raise self.fail(f"expected {char!r}, found {found!r}")
        self._advance(1)

    def read_document(self):
        self._skip_ws()
        value = self._read_value(())
        self._skip_ws()
        if self.i < self.n:
            raise self.fail(
                f"trailing content after document: {self.text[self.i]!r}"
            )
        return value, self.pos

    def _read_value(self, path: tuple):
        self.pos.setdefault(path, (self.line, self.col))
        char = self._peek()
        if char in "{[":
            if len(path) >= MAX_DEPTH:
                raise self.fail(_TOO_DEEP)
            if char == "{":
                return self._read_object(path)
            return self._read_array(path)
        if char == '"':
            return self._read_string()
        if char in "-0123456789":
            return self._read_number()
        for literal, value in (("true", True), ("false", False),
                               ("null", None)):
            if self.text.startswith(literal, self.i):
                self._advance(len(literal))
                return value
        raise self.fail(f"unexpected character {char!r}")

    def _read_object(self, path: tuple) -> dict:
        self._expect("{")
        self._skip_ws()
        record: dict = {}
        if self.i < self.n and self.text[self.i] == "}":
            self._advance(1)
            return record
        while True:
            self._skip_ws()
            key_line, key_col = self.line, self.col
            if self._peek() != '"':
                raise self.fail("object keys must be strings")
            key = self._read_string()
            if key in record:
                raise self.fail(f"duplicate key {key!r}")
            self.pos[path + (key,)] = (key_line, key_col)
            self._skip_ws()
            self._expect(":")
            self._skip_ws()
            record[key] = self._read_value(path + (key,))
            self._skip_ws()
            char = self._peek()
            if char == ",":
                self._advance(1)
                continue
            if char == "}":
                self._advance(1)
                return record
            raise self.fail(f"expected ',' or '}}', found {char!r}")

    def _read_array(self, path: tuple) -> list:
        self._expect("[")
        self._skip_ws()
        items: list = []
        if self.i < self.n and self.text[self.i] == "]":
            self._advance(1)
            return items
        while True:
            self._skip_ws()
            items.append(self._read_value(path + (len(items),)))
            self._skip_ws()
            char = self._peek()
            if char == ",":
                self._advance(1)
                continue
            if char == "]":
                self._advance(1)
                return items
            raise self.fail(f"expected ',' or ']', found {char!r}")

    def _read_string(self) -> str:
        start = self.i
        self._advance(1)
        while self.i < self.n:
            char = self.text[self.i]
            if char == "\\":
                if self.i + 1 >= self.n:
                    break
                self._advance(2)
                continue
            if char == '"':
                self._advance(1)
                raw = self.text[start:self.i]
                try:
                    return json.loads(raw)
                except json.JSONDecodeError as exc:
                    raise self.fail(f"bad string literal: {exc.msg}") from exc
            if char == "\n":
                break
            self._advance(1)
        raise self.fail("unterminated string literal")

    def _read_number(self):
        start, at = self.i, (self.line, self.col)
        while self.i < self.n and self.text[self.i] in "+-0123456789.eE":
            self._advance(1)
        raw = self.text[start:self.i]
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            self.line, self.col = at
            raise self.fail(f"bad number literal {raw!r}") from exc
        except ValueError as exc:
            # an integer past the interpreter's int-string conversion
            # limit (sys.get_int_max_str_digits)
            self.line, self.col = at
            raise self.fail(f"number literal too long: {exc}") from exc


def _unique_pairs(pairs: list) -> dict:
    """``object_pairs_hook``: refuse duplicate keys, as the anchored
    reader does (``json.loads`` would keep the last one)."""
    record = dict(pairs)
    if len(record) != len(pairs):
        raise ValueError("duplicate key")
    return record


def _refuse_constant(name: str):
    """``parse_constant``: refuse ``NaN``/``Infinity``, as the anchored
    reader does."""
    raise ValueError(f"non-standard JSON constant {name}")


def _parse_json(text: str, source: str) -> ScenarioDoc:
    """Read and shape a JSON scenario; anchor only on a failure."""
    shape_error = None
    try:
        tree = json.loads(text, object_pairs_hook=_unique_pairs,
                          parse_constant=_refuse_constant)
        return _build_doc(tree, {}, source)
    except ScenarioError as exc:
        shape_error = exc
    except Exception:
        # any other failure is re-derived below: the anchored path
        # raises what it raises for this text, with line/column
        # positions
        pass
    try:
        tree, pos = _JsonReader(text, source).read_document()
    except ScenarioError as exc:
        if shape_error is None or exc.diagnostics[0].message != _TOO_DEEP:
            raise
        # json.loads read deeper than the anchored reader follows: its
        # own diagnostics, unanchored, still name the real problem
        raise shape_error from None
    return _build_doc(tree, pos, source)


def _read_yaml(text: str, source: str):
    """Compose YAML into ``(tree, posmap)`` with node-mark positions."""
    import yaml

    loader = yaml.SafeLoader(text)
    try:
        root = loader.get_single_node()
    except RecursionError:
        # the composer recurses once per level and gives out, deeper
        # than MAX_DEPTH, where the interpreter's stack does; anchor
        # where the scanner stopped
        mark = loader.get_mark()
        raise ScenarioError([
            Diagnostic(
                path="", message=_TOO_DEEP,
                line=mark.line + 1, column=mark.column + 1, source=source,
            )
        ]) from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ScenarioError([
            Diagnostic(
                path="",
                message=f"YAML syntax error: {exc}".replace("\n", " "),
                line=None if mark is None else mark.line + 1,
                column=None if mark is None else mark.column + 1,
                source=source,
            )
        ]) from exc
    finally:
        loader.dispose()
    if root is None:
        raise ScenarioError([
            Diagnostic(path="", message="empty document", source=source)
        ])

    constructor = yaml.constructor.SafeConstructor()
    pos: dict[tuple, tuple[int, int]] = {}

    def scalar(node, path: tuple):
        try:
            return constructor.construct_object(node, deep=True)
        except ValueError as exc:
            # e.g. an integer past the interpreter's int-string
            # conversion limit
            raise ScenarioError([
                Diagnostic(
                    path=_render_path(path),
                    message=f"unreadable value: {exc}",
                    line=node.start_mark.line + 1,
                    column=node.start_mark.column + 1, source=source,
                )
            ]) from None

    def walk(node, path: tuple):
        pos.setdefault(
            path, (node.start_mark.line + 1, node.start_mark.column + 1)
        )
        if isinstance(node, yaml.CollectionNode) and len(path) >= MAX_DEPTH:
            raise ScenarioError([
                Diagnostic(
                    path="", message=_TOO_DEEP,
                    line=node.start_mark.line + 1,
                    column=node.start_mark.column + 1, source=source,
                )
            ])
        if isinstance(node, yaml.MappingNode):
            record = {}
            for key_node, value_node in node.value:
                key = scalar(key_node, path)
                if not isinstance(key, str):
                    raise ScenarioError([
                        Diagnostic(
                            path=_render_path(path),
                            message=f"mapping keys must be strings, "
                                    f"got {key!r}",
                            line=key_node.start_mark.line + 1,
                            column=key_node.start_mark.column + 1,
                            source=source,
                        )
                    ])
                if key in record:
                    raise ScenarioError([
                        Diagnostic(
                            path=_render_path(path),
                            message=f"duplicate key {key!r}",
                            line=key_node.start_mark.line + 1,
                            column=key_node.start_mark.column + 1,
                            source=source,
                        )
                    ])
                pos[path + (key,)] = (
                    key_node.start_mark.line + 1,
                    key_node.start_mark.column + 1,
                )
                record[key] = walk(value_node, path + (key,))
            return record
        if isinstance(node, yaml.SequenceNode):
            return [
                walk(item, path + (index,))
                for index, item in enumerate(node.value)
            ]
        return scalar(node, path)

    return walk(root, ()), pos


def _render_path(path: tuple) -> str:
    parts: list[str] = []
    for piece in path:
        if isinstance(piece, int):
            parts.append(f"[{piece}]")
        elif parts:
            parts.append(f".{piece}")
        else:
            parts.append(str(piece))
    return "".join(parts)


def detect_format(text: str) -> str:
    """Guess ``"json"`` or ``"yaml"`` from the document's first token."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        return "json" if stripped[0] in "{[" else "yaml"
    return "json"


# ---------------------------------------------------------------------------
# Shape checking


class _Shape:
    """Collects diagnostics while walking the raw tree into the model."""

    def __init__(self, pos: dict, source: str):
        self.pos = pos
        self.source = source
        self.diags: list[Diagnostic] = []

    def err(self, path: tuple, message: str) -> None:
        line, col = self.pos.get(path, (None, None))
        self.diags.append(Diagnostic(
            path=_render_path(path), message=message,
            line=line, column=col, source=self.source,
        ))

    def strict(self, path: tuple, record: dict, known: tuple) -> None:
        for key in record:
            if key not in known:
                self.err(
                    path + (key,),
                    f"unknown field {key!r} (known fields: "
                    f"{', '.join(known)})",
                )

    def _field(self, path: tuple, record: dict, key: str, kinds,
               kind_name: str, required: bool, default):
        if key not in record:
            if required:
                self.err(path, f"missing required field {key!r}")
            return default
        value = record[key]
        if isinstance(value, bool) or not isinstance(value, kinds):
            self.err(
                path + (key,),
                f"field {key!r} must be {kind_name}, "
                f"got {type(value).__name__}",
            )
            return default
        return value

    def req_str(self, path, record, key):
        return self._field(path, record, key, str, "a string", True, None)

    def opt_str(self, path, record, key, default=None):
        return self._field(path, record, key, str, "a string", False, default)

    def req_int(self, path, record, key):
        return self._field(path, record, key, int, "an integer", True, None)

    def opt_int(self, path, record, key, default=None):
        return self._field(
            path, record, key, int, "an integer", False, default
        )

    def _finite(self, path, key, value, default):
        """*value* as a float, or *default* and a diagnostic when it is
        not finite (YAML's ``.nan``/``.inf``, JSON's ``1e400``)."""
        try:
            number = float(value)
        except OverflowError:  # an integer past the float range
            number = math.inf
        if math.isfinite(number):
            return number
        self.err(
            path + (key,),
            f"field {key!r} must be a finite number, got {number}",
        )
        return default

    def req_num(self, path, record, key):
        value = self._field(
            path, record, key, (int, float), "a number", True, None
        )
        return None if value is None else self._finite(
            path, key, value, None
        )

    def opt_num(self, path, record, key, default=None):
        value = self._field(
            path, record, key, (int, float), "a number", False, default
        )
        return value if value is default else self._finite(
            path, key, value, default
        )

    def req_list(self, path, record, key):
        return self._field(path, record, key, list, "an array", True, None)

    def opt_obj(self, path, record, key):
        return self._field(path, record, key, dict, "an object", False, None)

    def req_obj(self, path, record, key):
        return self._field(path, record, key, dict, "an object", True, None)


def _build_digital(shape: _Shape, path: tuple, record: dict):
    if not isinstance(record, dict):
        shape.err(path, "digital core entries must be objects")
        return None
    shape.strict(path, record, DIGITAL_FIELDS)
    name = shape.req_str(path, record, "name")
    inputs = shape.req_int(path, record, "inputs")
    outputs = shape.req_int(path, record, "outputs")
    bidirs = shape.req_int(path, record, "bidirs")
    chains = shape.req_list(path, record, "scan_chains")
    patterns = shape.req_int(path, record, "patterns")
    power = shape.opt_int(path, record, "power", 0)
    if chains is not None:
        for index, length in enumerate(chains):
            if isinstance(length, bool) or not isinstance(length, int):
                shape.err(
                    path + ("scan_chains", index),
                    "scan chain lengths must be integers, "
                    f"got {type(length).__name__}",
                )
                chains = None
                break
    if None in (name, inputs, outputs, bidirs, chains, patterns, power):
        return None
    try:
        return DigitalCore(
            name=name, inputs=inputs, outputs=outputs, bidirs=bidirs,
            scan_chains=tuple(chains), patterns=patterns, power=power,
        )
    except ValueError as exc:
        shape.err(path, str(exc))
        return None


def _build_test(shape: _Shape, path: tuple, record: dict, extensions: list,
                core_name: str):
    if not isinstance(record, dict):
        shape.err(path, "test entries must be objects")
        return None
    name = shape.req_str(path, record, "name")
    band_low = shape.req_num(path, record, "band_low_hz")
    band_high = shape.req_num(path, record, "band_high_hz")
    sample = shape.req_num(path, record, "sample_freq_hz")
    cycles = shape.req_int(path, record, "cycles")
    tam_width = shape.req_int(path, record, "tam_width")
    resolution = shape.opt_int(path, record, "resolution_bits")
    power = shape.opt_int(path, record, "power", 0)
    pending = [
        (key, value) for key, value in record.items()
        if key not in TEST_FIELDS
    ]
    if None in (name, band_low, band_high, sample, cycles, tam_width, power):
        return None
    for key, value in pending:
        try:
            value_json = json.dumps(
                value, sort_keys=True, separators=(",", ":"),
                allow_nan=False, default=str,
            )
        except (TypeError, ValueError):
            shape.err(
                path + (key,),
                f"extension field {key!r} is not JSON-serializable",
            )
            continue
        extensions.append((core_name, name, key, value_json))
    try:
        return AnalogTest(
            name=name, band_low_hz=band_low, band_high_hz=band_high,
            sample_freq_hz=sample, cycles=cycles, tam_width=tam_width,
            resolution_bits=resolution, power=power,
        )
    except ValueError as exc:
        shape.err(path, str(exc))
        return None


def _build_analog(shape: _Shape, path: tuple, record: dict, extensions: list):
    if not isinstance(record, dict):
        shape.err(path, "analog core entries must be objects")
        return None
    shape.strict(path, record, ANALOG_FIELDS)
    name = shape.req_str(path, record, "name")
    resolution = shape.req_int(path, record, "resolution_bits")
    description = shape.opt_str(path, record, "description", name)
    tests_raw = shape.req_list(path, record, "tests")
    position = None
    if "position" in record:
        raw = record["position"]
        if (not isinstance(raw, list) or len(raw) != 2
                or any(isinstance(v, bool) or not isinstance(v, (int, float))
                       for v in raw)):
            shape.err(
                path + ("position",),
                "position must be an array of two numbers [x, y]",
            )
        else:
            x, y = (shape._finite(path, "position", v, None) for v in raw)
            if x is not None and y is not None:
                position = (x, y)
    if None in (name, resolution) or tests_raw is None:
        return None
    tests = [
        _build_test(
            shape, path + ("tests", index), entry, extensions, name
        )
        for index, entry in enumerate(tests_raw)
    ]
    if any(test is None for test in tests):
        return None
    try:
        return AnalogCore(
            name=name, description=description, tests=tuple(tests),
            resolution_bits=resolution, position=position,
        )
    except ValueError as exc:
        shape.err(path, str(exc))
        return None


def _build_doc(tree, pos: dict, source: str) -> ScenarioDoc:
    shape = _Shape(pos, source)
    if not isinstance(tree, dict):
        shape.err((), "scenario document root must be an object")
        raise ScenarioError(shape.diags)
    shape.strict((), tree, ROOT_FIELDS)

    version = shape.req_int((), tree, "schema_version")
    if version is not None and version != SCHEMA_VERSION:
        shape.err(
            ("schema_version",),
            f"unsupported schema_version {version}; this build reads "
            f"version {SCHEMA_VERSION}",
        )
    name = shape.req_str((), tree, "name")
    if name is not None and not name:
        shape.err(("name",), "scenario name must be non-empty")

    soc = None
    extensions: list[tuple[str, str, str, str]] = []
    soc_record = shape.req_obj((), tree, "soc")
    if soc_record is not None:
        soc_path = ("soc",)
        shape.strict(soc_path, soc_record, SOC_FIELDS)
        soc_name = shape.req_str(soc_path, soc_record, "name")
        budget = shape.opt_int(soc_path, soc_record, "power_budget")
        digital_raw = shape._field(
            soc_path, soc_record, "digital_cores", list, "an array",
            False, [],
        )
        analog_raw = shape._field(
            soc_path, soc_record, "analog_cores", list, "an array",
            False, [],
        )
        digital = [
            _build_digital(
                shape, soc_path + ("digital_cores", index), entry
            )
            for index, entry in enumerate(digital_raw or [])
        ]
        analog = [
            _build_analog(
                shape, soc_path + ("analog_cores", index), entry, extensions
            )
            for index, entry in enumerate(analog_raw or [])
        ]
        if (soc_name is not None and digital_raw is not None
                and analog_raw is not None
                and not any(core is None for core in digital + analog)):
            try:
                soc = Soc(
                    name=soc_name,
                    digital_cores=tuple(digital),
                    analog_cores=tuple(analog),
                    power_budget=budget,
                )
            except ValueError as exc:
                shape.err(soc_path, str(exc))

    tam = None
    tam_record = shape.opt_obj((), tree, "tam")
    if tam_record is not None:
        tam_path = ("tam",)
        shape.strict(tam_path, tam_record, TAM_FIELDS)
        width = shape.opt_int(tam_path, tam_record, "width", 32)
        wt = shape.opt_num(tam_path, tam_record, "wt", 0.5)
        tam = TamConfig(width=width, wt=float(wt))

    optimizer = None
    opt_record = shape.opt_obj((), tree, "optimizer")
    if opt_record is not None:
        opt_path = ("optimizer",)
        shape.strict(opt_path, opt_record, OPTIMIZER_FIELDS)
        optimizer = OptimizerProfile(
            strategy=shape.opt_str(opt_path, opt_record, "strategy",
                                   "anneal"),
            budget=shape.opt_int(opt_path, opt_record, "budget", 200),
            search_seed=shape.opt_int(opt_path, opt_record, "search_seed", 0),
            effort=shape.opt_str(opt_path, opt_record, "effort", "medium"),
        )

    if shape.diags or soc is None:
        if not shape.diags:
            shape.err(("soc",), "scenario has no usable soc object")
        raise ScenarioError(shape.diags)
    return ScenarioDoc(
        name=name,
        soc=soc,
        schema_version=version,
        tam=tam,
        optimizer=optimizer,
        extensions=tuple(sorted(extensions)),
    )


def parse(text: str, source: str = "<scenario>",
          fmt: str | None = None) -> ScenarioDoc:
    """Parse scenario text into a :class:`ScenarioDoc`.

    ``fmt`` is ``"json"``, ``"yaml"``, or ``None`` to sniff from the
    first non-blank character.  Raises :class:`ScenarioError` with the
    full list of line-anchored diagnostics on any structural problem
    (JSON is anchored only then; see the module docstring).  YAML input
    additionally needs the optional PyYAML dependency.
    """
    resolved = fmt or detect_format(text)
    if resolved == "json":
        return _parse_json(text, source)
    if resolved == "yaml":
        if not _model.yaml_available():
            raise ScenarioError([
                Diagnostic(
                    path="",
                    message="this looks like YAML but the optional "
                            "PyYAML dependency is not installed; "
                            "convert the scenario to JSON",
                    source=source,
                )
            ])
        tree, pos = _read_yaml(text, source)
    else:
        raise ValueError(f"unknown scenario format {resolved!r}")
    return _build_doc(tree, pos, source)


def parse_file(path) -> ScenarioDoc:
    """Read a scenario document from *path*.

    Dispatches on suffix: ``.soc`` files go through the ITC'02 dialect
    front-end (:func:`repro.soc.itc02.loads_scenario`), ``.yaml`` /
    ``.yml`` force the YAML reader, and everything else is sniffed
    (canonically JSON).
    """
    import os

    text = open(path, "r", encoding="utf-8").read()
    source = os.fspath(path)
    suffix = os.path.splitext(source)[1].lower()
    if suffix == ".soc":
        from ..soc import itc02

        return itc02.loads_scenario(text, source=source)
    if suffix in (".yaml", ".yml"):
        return parse(text, source=source, fmt="yaml")
    return parse(text, source=source, fmt=None)
