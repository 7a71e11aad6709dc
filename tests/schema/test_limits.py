"""Inputs at the edge of what the readers take: non-finite numbers and
deep nesting end in a :class:`~repro.schema.ScenarioError`, never a
traceback, anchored wherever the anchored readers follow the
document."""

import json
import math

import pytest

from repro import schema
from repro.schema.parse import MAX_DEPTH, _JsonReader
from repro.soc.model import AnalogTest

MINI_DOC = json.dumps({
    "schema_version": 1,
    "name": "limits",
    "soc": {
        "name": "l1",
        "digital_cores": [{
            "name": "d1", "inputs": 4, "outputs": 4, "bidirs": 0,
            "scan_chains": [10, 20], "patterns": 16,
        }],
        "analog_cores": [{
            "name": "A", "resolution_bits": 10,
            "tests": [{
                "name": "snr", "band_low_hz": 1000.0,
                "band_high_hz": 2000.0, "sample_freq_hz": 1000000.0,
                "cycles": 4096, "tam_width": 2,
            }],
        }],
    },
    "tam": {"width": 8, "wt": 0.3},
}, indent=2)

#: every float field of an analog test
FLOAT_FIELDS = ("band_low_hz", "band_high_hz", "sample_freq_hz")

needs_yaml = pytest.mark.skipif(
    not schema.yaml_available(), reason="PyYAML not installed"
)


def yaml_doc() -> str:
    return schema.generate(schema.parse(MINI_DOC), fmt="yaml")


def loads_reads(text: str) -> bool:
    """Whether ``json.loads`` reads *text* within the stack it has."""
    try:
        json.loads(text)
    except RecursionError:
        return False
    return True


def assert_anchored(excinfo, message: str, path: str | None = None):
    hits = [d for d in excinfo.value.diagnostics if message in d.message]
    assert hits, excinfo.value.render()
    assert hits[0].line is not None and hits[0].column is not None
    if path is not None:
        assert hits[0].path == path


class TestNonFinite:
    @needs_yaml
    @pytest.mark.parametrize("literal", [".nan", ".inf", "-.inf"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_yaml_test_field(self, field, literal):
        text = yaml_doc()
        line = next(row for row in text.splitlines()
                    if row.strip().startswith(f"{field}:"))
        bad = text.replace(line, f"{line.split(':')[0]}: {literal}")
        with pytest.raises(schema.ScenarioError) as excinfo:
            schema.canonical_scenario(bad)
        assert_anchored(
            excinfo, f"field {field!r} must be a finite number",
            f"soc.analog_cores[0].tests[0].{field}",
        )

    @pytest.mark.parametrize("literal", ["1e400", "-1e400", "1" + "0" * 400])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_json_test_field_past_the_float_range(self, field, literal):
        tree = json.loads(MINI_DOC)
        tree["soc"]["analog_cores"][0]["tests"][0][field] = "@"
        bad = json.dumps(tree, indent=2).replace('"@"', literal)
        with pytest.raises(schema.ScenarioError) as excinfo:
            schema.canonical_scenario(bad)
        assert_anchored(excinfo, f"field {field!r} must be a finite number")

    @needs_yaml
    @pytest.mark.parametrize("edit", [
        ("resolution_bits: 10", "resolution_bits: 10\n    position: [.nan, 1]",
         "position"),
        ("wt: 0.3", "wt: .inf", "wt"),
    ])
    def test_other_number_fields(self, edit):
        old, new, field = edit
        text = yaml_doc()
        assert old in text
        with pytest.raises(schema.ScenarioError) as excinfo:
            schema.canonical_scenario(text.replace(old, new, 1))
        assert_anchored(excinfo, f"field {field!r} must be a finite number")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_analog_test_refuses_it(self, field, value):
        fields = dict(name="t", band_low_hz=1.0, band_high_hz=2.0,
                      sample_freq_hz=10.0, cycles=5, tam_width=1)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AnalogTest(**fields)


class TestDepth:
    @pytest.mark.parametrize("depth", [100, 600, 2000])
    @pytest.mark.parametrize("fmt", ["json", pytest.param(
        "yaml", marks=needs_yaml)])
    def test_every_depth_ends_in_a_diagnostic(self, fmt, depth):
        for text in ("[" * depth + "]" * depth,
                     '{"a": ' * depth + "1" + "}" * depth):
            with pytest.raises(schema.ScenarioError) as excinfo:
                schema.parse(text, fmt=fmt)
            if fmt == "json" and loads_reads(text):
                # the shape errors of a tree json.loads read stand,
                # whether or not the anchored reader follows its depth
                assert not any("nesting deeper" in d.message
                               for d in excinfo.value.diagnostics)
            elif depth > MAX_DEPTH:
                assert_anchored(excinfo, f"nesting deeper than {MAX_DEPTH}")

    def test_json_reader_anchors_the_first_level_too_deep(self):
        text = "[" * (MAX_DEPTH + 1) + "]" * (MAX_DEPTH + 1)
        with pytest.raises(schema.ScenarioError) as excinfo:
            _JsonReader(text, "<scenario>").read_document()
        (diag,) = excinfo.value.diagnostics
        assert diag.message == f"nesting deeper than {MAX_DEPTH} levels"
        assert (diag.line, diag.column) == (1, MAX_DEPTH + 1)

    def test_a_deep_extension_still_parses(self):
        """The limit binds only the anchored reader: a valid document
        reads on the fast path at any depth ``json.loads`` takes."""
        tree = json.loads(MINI_DOC)
        deep = 1
        for _ in range(MAX_DEPTH + 50):
            deep = [deep]
        tree["soc"]["analog_cores"][0]["tests"][0]["vendor"] = deep
        doc = schema.parse(json.dumps(tree))
        assert doc.extensions[0][2] == "vendor"

    def test_a_deep_extension_keeps_the_real_diagnostic(self):
        """Past the anchored reader's depth, a document ``json.loads``
        read reports its own shape errors, not the depth."""
        tree = json.loads(MINI_DOC)
        deep = 1
        for _ in range(MAX_DEPTH + 50):
            deep = [deep]
        tree["soc"]["analog_cores"][0]["tests"][0]["vendor"] = deep
        tree["soc"]["digital_cores"][0]["inputs"] = "four"
        with pytest.raises(schema.ScenarioError) as excinfo:
            schema.parse(json.dumps(tree))
        messages = [d.message for d in excinfo.value.diagnostics]
        assert any("'inputs'" in m and "integer" in m for m in messages), \
            messages
        assert not any("nesting deeper" in m for m in messages)
