"""Differential test: ``schema.parse``'s JSON path against the anchored
reader.

``parse`` reads JSON with ``json.loads`` and re-reads a document with
the position-tracking reader only when that fails.  On generated
documents and on byte-level mutations of them — a deleted key, a
duplicated key, a wrong type, ``NaN``/``Infinity``, trailing garbage,
non-ASCII text, deep nesting, and plain edits at a random offset — it
must return a :class:`ScenarioDoc` equal to the anchored reader's, or
raise the same :class:`ScenarioError` diagnostics, line and column
included.
"""

import functools
import json
import re

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import schema
from repro.schema.parse import ScenarioError, _build_doc, _JsonReader
from repro.workloads import random_scenario

SOURCE = "doc.json"

#: a key line of the canonical (indent-2, one item per line) layout
#: whose value is a scalar
KEY_LINE = re.compile(r'^(\s*)"([^"]+)": ([^\[{].*?)(,?)$')
NUMBER_LINE = re.compile(r'^(\s*"[^"]+": )(-?\d[\d.eE+-]*)(,?)$')


def anchored(text: str):
    """The anchored path alone: position-tracking reader, then the
    shape checker."""
    tree, pos = _JsonReader(text, SOURCE).read_document()
    return _build_doc(tree, pos, SOURCE)


def outcome(read, text: str):
    """What *read* makes of *text*: a document, diagnostics, or any
    other exception by type and message."""
    try:
        return "doc", read(text)
    except ScenarioError as exc:
        return "diagnostics", exc.diagnostics
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return "raised", type(exc).__name__, str(exc)


def assert_same(text: str):
    fast = outcome(
        lambda t: schema.parse(t, source=SOURCE, fmt="json"), text
    )
    assert fast == outcome(anchored, text)
    return fast


@functools.lru_cache(maxsize=None)
def document(n_cores: int, seed: int) -> str:
    return schema.generate(
        random_scenario(n_cores=n_cores, seed=seed, name=f"s{seed}")
    )


documents = st.builds(
    document,
    st.integers(min_value=4, max_value=8),
    st.integers(min_value=0, max_value=40),
)


def key_lines(lines: list[str], pattern=KEY_LINE) -> list[int]:
    return [i for i, line in enumerate(lines) if pattern.match(line)]


def nested(depth: int, leaf: str) -> str:
    return "[" * depth + leaf + "]" * depth


@settings(max_examples=20, deadline=None)
@given(text=documents)
def test_generated_documents_read_equal(text):
    kind, *_ = assert_same(text)
    assert kind == "doc"


@st.composite
def mutated(draw):
    """One generated document with one mutation applied."""
    text = draw(documents)
    lines = text.split("\n")
    mutation = draw(st.sampled_from([
        "delete_key", "delete_line", "duplicate_key", "wrong_type",
        "constant", "trailing", "non_ascii", "deep_extension",
        "deep_value", "byte_insert", "byte_delete",
    ]))
    if mutation == "delete_key":
        # a whole key line goes; the object stays valid JSON
        index = draw(st.sampled_from(key_lines(lines)))
        if not lines[index].endswith(","):
            lines[index - 1] = lines[index - 1].removesuffix(",")
        del lines[index]
    elif mutation == "delete_line":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif mutation == "duplicate_key":
        index = draw(st.sampled_from(key_lines(lines)))
        line = lines[index]
        value = draw(st.sampled_from(["", " 7", ' "other"']))
        if value:
            indent, key, _, _ = KEY_LINE.match(line).groups()
            copy = f'{indent}"{key}":{value},'
        else:
            copy = line if line.endswith(",") else line + ","
        lines.insert(index, copy)
    elif mutation == "wrong_type":
        index = draw(st.sampled_from(key_lines(lines)))
        indent, key, _, comma = KEY_LINE.match(lines[index]).groups()
        value = draw(st.sampled_from([
            '"text"', "true", "false", "null", "[]", "{}", "1.5", "-3",
            "0", '""', "[1, 2]", '{"a": 1}',
        ]))
        lines[index] = f'{indent}"{key}": {value}{comma}'
    elif mutation == "constant":
        index = draw(st.sampled_from(key_lines(lines, NUMBER_LINE)))
        head, _, comma = NUMBER_LINE.match(lines[index]).groups()
        value = draw(st.sampled_from(["NaN", "Infinity", "-Infinity"]))
        lines[index] = f"{head}{value}{comma}"
    elif mutation == "trailing":
        lines[-1] += draw(st.text(min_size=1, max_size=8))
    elif mutation == "non_ascii":
        index = draw(st.sampled_from(key_lines(lines)))
        indent, key, _, comma = KEY_LINE.match(lines[index]).groups()
        value = draw(st.text(
            alphabet=st.characters(min_codepoint=0x80,
                                   max_codepoint=0x2FFF),
            min_size=1, max_size=6,
        ))
        escaped = draw(st.booleans())
        lines[index] = (f'{indent}"{key}": '
                        f'{json.dumps(value, ensure_ascii=escaped)}'
                        f'{comma}')
    elif mutation in ("deep_extension", "deep_value"):
        depth = draw(st.integers(min_value=1, max_value=150))
        leaf = draw(st.sampled_from(["1", '"x"', "{}", "NaN"]))
        brackets = nested(depth, leaf)
        if mutation == "deep_extension":
            # an unknown key on an analog test is a kept extension
            tests = [i for i, line in enumerate(lines)
                     if '"band_low_hz"' in line]
            index = draw(st.sampled_from(tests))
            indent = lines[index][:len(lines[index])
                                  - len(lines[index].lstrip())]
            lines.insert(index, f'{indent}"x_nested": {brackets},')
        else:
            index = draw(st.sampled_from(key_lines(lines)))
            indent, key, _, comma = KEY_LINE.match(lines[index]).groups()
            lines[index] = f'{indent}"{key}": {brackets}{comma}'
    else:
        joined = "\n".join(lines)
        at = draw(st.integers(0, len(joined) - 1))
        if mutation == "byte_insert":
            char = draw(st.sampled_from(
                list('{}[]:,"\\ 0-.eE\nxé') + ["\x00", " "]
            ))
            return joined[:at] + char + joined[at:]
        return joined[:at] + joined[at + 1:]
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=mutated())
def test_mutated_documents_read_equal(text):
    assert_same(text)


class TestPinnedCases:
    """The inputs ``json.loads`` accepts and the anchored reader
    refuses, plus a diagnostic that must keep its anchor."""

    @pytest.fixture()
    def lines(self):
        return document(4, 3).split("\n")

    def test_duplicate_key_is_refused_with_its_anchor(self, lines):
        # line 3 now holds a "name"; the original on line 4 repeats it
        lines.insert(2, '  "name": "again",')
        kind, diagnostics = assert_same("\n".join(lines))
        assert kind == "diagnostics"
        assert "duplicate key 'name'" in diagnostics[0].message
        assert (diagnostics[0].line, diagnostics[0].column) == (4, 9)

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_constants_are_refused(self, lines, constant):
        # a test frequency, which the shape checker would take as a float
        index = next(i for i, line in enumerate(lines)
                     if '"band_high_hz"' in line)
        head, _, comma = NUMBER_LINE.match(lines[index]).groups()
        lines[index] = f"{head}{constant}{comma}"
        kind, diagnostics = assert_same("\n".join(lines))
        assert kind == "diagnostics"
        assert diagnostics[0].line == index + 1

    def test_unknown_field_diagnostic_keeps_line_and_column(self):
        text = '{\n  "name": "bad",\n  "frobnicate": 1\n}'
        kind, diagnostics = assert_same(text)
        assert kind == "diagnostics"
        unknown = [d for d in diagnostics if "frobnicate" in d.message]
        assert (unknown[0].line, unknown[0].column) == (3, 3)

    def test_trailing_garbage_is_refused(self, lines):
        kind, _ = assert_same("\n".join(lines) + " x")
        assert kind == "diagnostics"
