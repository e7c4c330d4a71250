import io
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fano3.cli import dumps, main

SAMPLES = pathlib.Path(__file__).resolve().parent.parent / "docs" / "samples"

GOLDEN_COMMANDS = {
    "rr.json": ["rr", "--dim", "3", "--index", "1", "--genus", "12", "--t", "1", "--json"],
    "blowup.json": ["blowup", "--antik-cube", "22", "--curve", "1,0", "--json"],
    "scroll.json": ["scroll", "--weights", "2,2,1,1", "--intersect", "3M-4F,M-3F,M-F,M-F", "--json"],
    "wps.json": ["wps", "--weights", "1,1,1,2,3", "--degrees", "6", "--json"],
    "link.json": ["link", "--center", "line", "--genus-range", "7..13", "--show-excluded", "--json"],
    "rho2.json": ["rho2", "enumerate-primitive", "--json"],
    "catalog.json": ["catalog", "list", "--rho", "1", "--index", "2", "--json"],
}


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_rr_prints_section_count():
    code, text = run(["rr", "--dim", "3", "--index", "1", "--genus", "12", "--t", "1"])
    assert code == 0
    assert text.strip() == "14"


def test_rr_json_value():
    code, text = run(["rr", "--dim", "3", "--index", "2", "--degree", "5", "--t", "1", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"] == {"num": "7", "den": "1"}
    assert payload["h0_fundamental"] == 7


def test_link_single_genus_json():
    code, text = run(["link", "--center", "line", "--genus", "9", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert len(payload) == 1
    cand = payload[0]
    assert cand["type"] == "B1"
    assert cand["fbar"] == [3, 4]
    assert cand["target"]["deg_z"] == 7
    assert cand["target"]["genus_z"] == 3


def test_catalog_verify_all_exit_zero():
    code, text = run(["catalog", "verify", "--all"])
    assert code == 0
    assert "0 failures" in text


def test_catalog_facts():
    code, text = run(["catalog", "facts", "v3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert {"subject": "v3", "predicate": "Irrational", "value": True} in payload


def test_usage_errors_exit_two():
    assert run(["nonsense"])[0] == 2
    assert run(["rr", "--dim", "3", "--index", "1"])[0] == 2  # neither degree nor genus
    assert run(["blowup", "--antik-cube", "22"])[0] == 2
    assert run(["scroll", "--weights", "1,1,1"])[0] == 2


@pytest.mark.parametrize(
    "genus_args,message",
    [
        (["--genus", "1"], "genus must be >= 2, got 1"),
        (["--genus", "-3"], "genus must be >= 2, got -3"),
        (["--genus-range", "5..3"], "expects A..B with integers A <= B, got '5..3'"),
        (["--genus-range", "7-13"], "expects A..B with integers A <= B, got '7-13'"),
        (["--genus-range", "x..3"], "expects A..B with integers A <= B, got 'x..3'"),
    ],
)
def test_link_rejects_bad_genus_input(genus_args, message, capsys):
    code, text = run(["link", "--center", "line", *genus_args])
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


def test_blowup_flag_on_small_cube():
    code, text = run(["blowup", "--antik-cube", "8", "--point"])
    assert code == 0
    assert "not big" in text


def test_json_round_trips_byte_identically():
    for argv in GOLDEN_COMMANDS.values():
        _, text = run(argv)
        reparsed = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        assert reparsed == text


def test_repeated_runs_are_byte_identical():
    for argv in GOLDEN_COMMANDS.values():
        assert run(argv) == run(argv)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["blowup", "--antik-cube", "-5", "--point"], "antik_cube must be positive"),
        (["blowup", "--antik-cube", "0", "--curve", "1,0"], "antik_cube must be positive"),
        (["blowup", "--antik-cube", "22", "--curve", "1,0,3"], "expects DEG,GENUS with integers, got '1,0,3'"),
        (["blowup", "--antik-cube", "22", "--curve", "1,x"], "expects DEG,GENUS with integers, got '1,x'"),
        (["catalog", "verify", "--id", "nope"], "error: unknown catalog id 'nope'"),
        (["scroll", "--weights", "2,1", "--h0", "--canonical"], "--canonical: not allowed with argument --h0"),
        (["scroll", "--hyperelliptic", "5", "--weights", "1,1"], "--weights is required with --h0/--canonical/"
         "--intersect and not allowed with --hyperelliptic/--trigonal"),
        (["catalog", "verify", "--rho", "1", "--id", "v3"], "unrecognized arguments: --rho 1"),
        (["catalog", "list", "facts"], "unrecognized arguments: facts"),
        (["catalog", "facts", "v3", "--rho", "2"], "unrecognized arguments: --rho 2"),
        (["scroll", "--weights", "2,x", "--h0"], "--weights: expects comma-separated integers like 2,1,1"),
        (["wps", "--weights", "1,x"], "--weights: expects comma-separated integers like 2,1,1"),
        (["rr", "--dim", "3", "--index", "2", "--genus", "5"], "--genus needs --index = --dim - 2 (coindex 3)"),
        (["rr", "--dim", "101", "--index", "100", "--degree", "2"], "--dim must be at most 100, got 101"),
        (["rr", "--dim", "3", "--index", "1", "--degree", "4", "--t", "9" * 4001],
         "--t must lie in -1000000..1000000"),
    ],
)
def test_invalid_input_exits_two_with_message(argv, message, capsys):
    code, text = run(argv)
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


def _num(lo, hi):
    return st.integers(lo, hi).map(str)


def _commas(elements, max_size=5):
    return st.lists(elements, min_size=1, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


_CLASS = st.builds("{}M{:+d}F".format, st.integers(-3, 3), st.integers(-4, 4))
_CATALOG_ID = st.sampled_from(["v3", "fano-g7", "nope"])
# leading argv -> its flag groups, each exclusive in the grammar: flag ->
# strategy for its value, None marking a switch
_GROUPS = {
    ("rr",): [{"--dim": _num(0, 4)}, {"--index": _num(0, 4)}, {"--t": _num(-5, 8)},
              {"--degree": _num(-2, 12), "--genus": _num(-1, 20)}],
    ("blowup",): [{"--antik-cube": _num(-2, 70)},
                  {"--point": None, "--curve": st.builds("{},{}".format, _num(-1, 8), _num(-1, 4))}],
    ("scroll",): [{"--weights": _commas(st.integers(-1, 4))},
                  {"--h0": None, "--canonical": None, "--intersect": _commas(_CLASS),
                   "--hyperelliptic": _num(-1, 20), "--trigonal": _num(-1, 20)}],
    ("wps",): [{"--weights": _commas(st.integers(0, 9), 6)},
               {"--degrees": _commas(st.integers(0, 12), 3)}],
    ("catalog", "list"): [{"--rho": _num(0, 5)}, {"--index": _num(0, 5)}, {"--genus": _num(0, 13)},
                          {"--flag": st.sampled_from(["HyperellipticModel", "BasePointModel", "x"])}],
    ("catalog", "facts"): [],
    ("catalog", "nope"): [],
    ("catalog", "verify"): [{"--all": None, "--id": _CATALOG_ID}],
}
_JUNK = st.sampled_from(["", "x", "1,x", "7..3", "M,x", "2.5"])
_RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def _argv(draw):
    """Mostly one flag of each group with a value of the right form; now and
    then a flag missing, doubled or of another action, or a junk value."""
    head = draw(st.sampled_from(sorted(_GROUPS)))
    groups = _GROUPS[head]
    if head[0] == "catalog":
        if head[1] == "facts" or draw(_RARELY):
            head += tuple(draw(st.lists(_CATALOG_ID, max_size=1)))
        if draw(_RARELY):
            strays = _GROUPS[("catalog", "list")] + _GROUPS[("catalog", "verify")]
            groups = groups + [draw(st.sampled_from(strays))]
    flags = []
    for group in groups:
        count = min(len(group), draw(st.sampled_from([1, 1, 1, 0, 2])))
        chosen = st.lists(st.sampled_from(sorted(group)), min_size=count, max_size=count, unique=True)
        for flag in draw(chosen):
            value = group[flag]
            flags.append([flag] if value is None else [flag, draw(_JUNK if draw(_RARELY) else value)])
    flags = draw(st.permutations(flags))
    json_flag = draw(st.lists(st.just("--json"), max_size=1))
    return [*head, *(token for flag in flags for token in flag), *json_flag]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv())
def test_every_argv_exits_0_2_or_3(argv):
    code, text = run(argv)
    assert code in (0, 2, 3)
    assert code != 2 or text == ""


def test_dumps_rejects_unknown_objects():
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps(object())


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_samples(name):
    code, text = run(GOLDEN_COMMANDS[name])
    assert code == 0
    assert text == (SAMPLES / name).read_text()
