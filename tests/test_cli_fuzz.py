"""Fuzzing of the CLI's file contract.

Whatever a network or sequence file holds, ``net validate`` and ``seq check``
exit with 0, 1 or 2, a non-zero exit leaves exactly one ``{"error": ...}``
line on stderr, and no exception escapes ``main``. The files are arbitrary
JSON values, valid files with one value replaced or removed, and valid files
cut short or with a few characters spliced in. The ``sim`` commands keep the
same contract over arbitrary integer seeds.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netforms.cli import main
from netforms.sequences import build_dyadic_interval, sequence_to_dict

NETWORK = {
    "vertices": [0, 1, 2, 3],
    "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 2.0}, {"u": 2, "v": 3, "c": 0.5}],
    "killing": [0.0, 0.0, 1.0, 0.0],
}
SEQUENCE = sequence_to_dict(build_dyadic_interval(2))
PATH3 = {"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}]}

fuzz_settings = settings(max_examples=50, derandomize=True, deadline=None, database=None)

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 8)
    | st.sampled_from([2**63, -(2**63) - 1, 10**400])
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=10,
)


@st.composite
def mutated(draw, doc):
    """``doc`` with one value, at a random depth, replaced or removed."""
    doc = copy.deepcopy(doc)
    node = doc
    while node:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
            continue
        if draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(json_values)
        break
    return json.dumps(doc)


@st.composite
def spliced(draw, doc):
    """The text of ``doc`` cut short, or with a few characters spliced in."""
    text = json.dumps(doc)
    at = draw(st.integers(0, len(text)))
    if draw(st.booleans()):
        return text[:at]
    return text[:at] + draw(st.text(st.characters(codec="utf-8"), min_size=1, max_size=3)) + text[at:]


def file_texts(doc):
    return st.one_of(json_values.map(json.dumps), mutated(doc), spliced(doc))


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def check_contract(argv) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == {"error"}
    return code


@fuzz_settings
@given(text=file_texts(NETWORK))
def test_net_validate_contract(fuzz_file, text):
    fuzz_file.write_text(text, encoding="utf-8")
    check_contract(["net", "validate", str(fuzz_file)])


@fuzz_settings
@given(text=file_texts(SEQUENCE))
def test_seq_check_contract(fuzz_file, text):
    fuzz_file.write_text(text, encoding="utf-8")
    check_contract(["seq", "check", str(fuzz_file)])


@settings(fuzz_settings, max_examples=25)
@given(data=st.binary(max_size=40))
def test_arbitrary_bytes_contract(fuzz_file, data):
    fuzz_file.write_bytes(data)
    check_contract(["net", "validate", str(fuzz_file)])
    check_contract(["seq", "check", str(fuzz_file)])


@pytest.fixture(scope="module")
def path3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "path3.json"
    path.write_text(json.dumps(PATH3), encoding="utf-8")
    return path


@settings(fuzz_settings, max_examples=25)
@given(seed=st.integers() | st.sampled_from([-1, 0, 2**64 - 1, 2**64, 2**64 + 5, 10**30]))
def test_sim_seed_contract(path3_file, seed):
    common = ["--net", str(path3_file), "--n", "5", "--seed", str(seed)]
    for argv in (["sim", "hit", *common, "--targets", "0,2", "--start", "1"],
                 ["sim", "commute", *common, "--pair", "0,2"],
                 ["sim", "occupy", *common, "--horizon", "1.0"]):
        assert check_contract(argv) == (0 if 0 <= seed < 2**64 else 1)  # a seed is never reduced mod 2^64
