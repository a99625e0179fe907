"""The config reader of jostspec.cli against configparser, with the settings
the CLI used before it had its own reader: the same files and overrides are
accepted, with the same sections, keys and values, and the same are
rejected."""

import configparser
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from jostspec import cli
from jostspec.errors import ValidationError


def reference(path, overrides):
    """[(section, [(key, value), ...]), ...] by configparser, or None where
    the CLI's former reader rejected the file or an override."""
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    parser.optionxform = str
    try:
        if not parser.read(path, encoding="utf-8"):
            return None
        for item in overrides:
            if "=" not in item or "." not in item.split("=", 1)[0]:
                return None
            target, value = item.split("=", 1)
            section, key = target.split(".", 1)
            if not parser.has_section(section):
                parser.add_section(section)
            parser.set(section, key, value)
    except (configparser.Error, UnicodeDecodeError, ValueError):
        return None
    if any(section not in cli._SECTIONS for section in parser.sections()):
        return None
    return [(section, parser.items(section, raw=True)) for section in parser.sections()]


def read(path, overrides):
    """The same as reference, by jostspec.cli."""
    try:
        config = cli._read_config(path, overrides)
    except ValidationError:
        return None
    return [(section, list(values.items())) for section, values in config.items()]


# str.strip and configparser's indent both take every Unicode space
SPACE = st.sampled_from([" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", " "])
INDENT = st.lists(SPACE, max_size=3).map("".join)
WORD = st.sampled_from(["q", "a", "N", "kind", "a b", "x", "1.0, 2", "[x]", "y]", "# z", "; z", "=", ":", ""])
TEXT = st.lists(st.one_of(WORD, SPACE), max_size=4).map("".join)
HEADER = st.tuples(
    INDENT,
    st.one_of(
        st.sampled_from(["[block]", "[perturbation]", "[experiment]"]),
        st.sampled_from(["[DEFAULT]", "[a]b]", "[block] junk", "[]", "[]]", "[ block ]", "[block]x]"]),
    ),
    st.sampled_from(["", "", " ", " junk", " ]"]),
).map("".join)
# a few keys seldom repeat, so that a duplicate key is not in every text
KEY = st.one_of(WORD, st.text("abcdefgh", min_size=1, max_size=3))
KEY_LINE = st.tuples(INDENT, KEY, INDENT, st.sampled_from(["=", ":", " = ", " : "]), TEXT).map("".join)
COMMENT = st.tuples(INDENT, st.sampled_from(["#", ";"]), TEXT).map("".join)
# mostly key lines, so that many texts are read and their values compared
LINE = st.one_of(HEADER, KEY_LINE, KEY_LINE, KEY_LINE, COMMENT, INDENT, st.tuples(INDENT, TEXT).map("".join))
ENDING = st.sampled_from(["\n", "\r\n", "\r"])
OVERRIDE = st.sampled_from(
    ["block.q=2", "block.q= 3", "experiment.N=5", "block.a b=c", "block.=1", "extra.x=1", "DEFAULT.x=1", ".x=1", "\n.x=1", "nodot=1", "block.q", "a.b.c=d=e"]
)


@st.composite
def config_bytes(draw):
    lines = draw(st.lists(st.tuples(LINE, ENDING), max_size=12))
    text = "".join(line + ending for line, ending in lines)
    # a BOM or an undecodable byte in about an eighth of the texts each
    seldom = st.tuples(st.booleans(), st.booleans(), st.booleans()).map(all)
    if draw(st.booleans()) or draw(st.booleans()):
        text = "[block]\n" + text
    data = text.encode("utf-8")
    if draw(seldom):
        data = b"\xef\xbb\xbf" + data
    if draw(seldom):
        cut = draw(st.integers(0, len(data)))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


@given(data=config_bytes(), overrides=st.lists(OVERRIDE, max_size=3))
@settings(derandomize=True, deadline=None, max_examples=400)
# = or :, split at the first one
@example(data=b"[block]\nq : 1 = 2\na = b : c\nb=:\n", overrides=[])
# comments stand on their own line, indented or not; after a value they are the value
@example(data=b"[block]\n# c\n  ; d\n\t# e\nq = 1 # f\n", overrides=[])
# indented continuation lines, blank lines inside a value, comments between them
@example(data=b"[block]\na = 1,\n  2\n\n  # c\n\n\t3\n\n\nb = 0\n", overrides=[])
# a continuation line that looks like a header or a key line
@example(data=b"[block]\na = 1\n  [experiment]\n  b = 2\n", overrides=[])
@example(data=b"[block]\na = 1\n[block]\n", overrides=[])
@example(data=b"[block]\nq = 1\nq = 2\n", overrides=[])
@example(data=b"q = 1\n[block]\n", overrides=[])
@example(data=b"[block]\n= 1\n", overrides=[])
@example(data=b"[block]\nq = \xff\n", overrides=[])
@example(data=b"[DEFAULT]\nq = 2\n[block]\n", overrides=[])
@example(data=b"[block]\n", overrides=["DEFAULT.q=2"])
@example(data=b"[a]b]\nq = 1\n", overrides=[])
@example(data=b"[block] junk\nq = 1\n  [experiment]\nN = 3\n", overrides=[])
@example(data=b"[block]\r\nq = 1\r\n  2\rb = 0\r\n", overrides=[])
@example(data=b"\xef\xbb\xbf[block]\nq = 1\n", overrides=[])
@example(data=b"[block]\njunk\n", overrides=[])
@example(data=b"", overrides=["block.q=2", "block.a b=c", "experiment.N= 4"])
def test_reader_matches_configparser(data, overrides):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "config.ini")
        path.write_bytes(data)
        assert read(str(path), overrides) == reference(str(path), overrides)


def test_reader_rejects_what_it_must_and_keeps_values(tmp_path):
    # a few of the examples above, with their outcomes spelt out
    cases = {
        b"[block]\nq : 1 = 2\na = b : c\n": [("block", [("q", "1 = 2"), ("a", "b : c")])],
        b"[block]\na = 1,\n  2\n\n  # c\n\n\t3\n\n\nb = 0\n": [("block", [("a", "1,\n2\n\n\n3"), ("b", "0")])],
        b"[a]b]\nq = 1\n": None,
        b"[block] junk\nq = 1\n": [("block", [("q", "1")])],
        b"[block]\nq = 1\n[block]\n": None,
        b"[block]\nq = 1\nq = 2\n": None,
        b"q = 1\n[block]\n": None,
        b"[block]\n= 1\n": None,
        b"[block]\nq = \xff\n": None,
        b"[DEFAULT]\nq = 2\n[block]\n": None,
    }
    path = tmp_path / "config.ini"
    for data, expected in cases.items():
        path.write_bytes(data)
        assert read(str(path), []) == expected, data
        assert reference(str(path), []) == expected, data
    assert read(str(tmp_path / "missing.ini"), []) is None
