import ast
import builtins
import collections
import contextlib
import errno
import io
import json
import os
import pathlib
import re
import runpy
import subprocess
import sys
import time
import tokenize
from decimal import Decimal
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano3.cli import COMMANDS, build_parser, dumps, main, parse_mf_class
from fano3.exactcore import Basis, cls2
from fano3.scrolls import ScrollData, scroll_canonical

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "docs" / "samples"

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


@pytest.mark.parametrize(
    "argv",
    [
        ["--index", "4", "--degree", "1"],
        ["--index", "3", "--degree", "2"],
        ["--index", "2", "--degree", "5"],
        ["--index", "1", "--genus", "12"],
    ],
    ids=["coindex0", "coindex1", "coindex2", "coindex3"],
)
def test_rr_json_declares_rationals_on_integer_values(argv):
    # chi(2) is an integer, and still a {"num", "den"} object as declared
    code, text = run(["rr", "--dim", "3", *argv, "--t", "2", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["value"]["den"] == "1"
    for v in [payload["degree"], payload["value"], *payload["coefficients"]]:
        assert set(v) == {"num", "den"}
    assert len(payload["coefficients"]) == 4


@pytest.mark.parametrize("coindex_argv", [["--index", "2", "--degree", "5"], ["--index", "1", "--genus", "12"]])
def test_rr_builds_the_polynomial_once(coindex_argv, monkeypatch):
    from fano3 import riemannroch

    calls = []
    build = riemannroch.hilbert_polynomial
    monkeypatch.setattr(riemannroch, "hilbert_polynomial", lambda fn: calls.append(fn) or build(fn))
    for json_flag in ([], ["--json"]):
        calls.clear()
        assert run(["rr", "--dim", "3", *coindex_argv, "--t", "2", *json_flag])[0] == 0
        assert len(calls) == 1


@pytest.mark.parametrize("center", ["line", "conic", "point"])
def test_link_genus_range_has_no_width_limit(center):
    # no genus above sarkisov.GENUS_CAP is visited, so the widest range
    # prints what 5..400 prints
    head = ["link", "--center", center, "--genus-range"]
    tail = ["--show-excluded", "--json"]
    wide = run([*head, "5..1000000000000", *tail])
    assert wide[0] == 0
    assert wide == run([*head, "5..400", *tail])


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


def test_catalog_verify_failure_exits_three(monkeypatch):
    from fano3 import catalog

    cat = catalog.load()
    shifted = cat.by_id("rho2-impb-v3")._replace(antik_cube=14)
    entries = tuple(shifted if e.id == shifted.id else e for e in cat.entries)
    monkeypatch.setattr(catalog, "load", lambda: cat._replace(entries=entries))
    code, text = run(["catalog", "verify", "--all", "--json"])
    assert code == 3
    payload = json.loads(text)
    assert payload["checks"] == len(catalog.verify_all())
    failure = {"entry_id": "rho2-impb-v3", "check": "blowdown-consistency-0", "passed": False,
               "lhs": 12, "rhs": 14}
    assert failure in payload["failures"]


def test_reproduce_script_runs_every_command():
    script = ROOT / "scripts" / "reproduce_classification.py"
    commands = runpy.run_path(str(script))["COMMANDS"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # the script finds src/ itself
    done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    headers = [line for line in done.stdout.splitlines() if line.startswith("== fano3")]
    assert len(commands) == 14
    assert headers == [" ".join(["== fano3", *argv]) for argv in commands]
    # every table the script prints, byte for byte
    assert done.stdout == (ROOT / "tests" / "golden" / "reproduce.txt").read_text()


def test_catalog_facts():
    code, text = run(["catalog", "facts", "v3", "--json"])
    assert code == 0
    payload = json.loads(text)
    assert {"subject": "v3", "predicate": "Irrational", "value": True} in payload


_BRANCH = '"branch":[{"den":"1","num":"4"},{"den":"1","num":"-8"}]'
_NO_WITNESS = '"witness":null,"witness_k":null}'


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["scroll", "--trigonal", "8"],
         "[3, 1, 1, 1]    excluded (witness -1 at k=3)\n[2, 2, 1, 1]    numeric-only\n"),
        (["scroll", "--hyperelliptic", "7", "--json"],
         f'[{{{_BRANCH},"entry":null,"splitting":[4,1,1],"status":"numeric-only"}},'
         f'{{{_BRANCH},"entry":null,"splitting":[3,2,1],"status":"numeric-only"}},'
         f'{{{_BRANCH},"entry":"dp2-times-p1","splitting":[2,2,2],"status":"realized"}}]\n'),
        (["scroll", "--trigonal", "10", "--json"],
         '[{"entry":null,"splitting":[5,1,1,1],"status":"excluded",'
         '"witness":{"den":"1","num":"-3"},"witness_k":5},'
         f'{{"entry":null,"splitting":[4,2,1,1],"status":"numeric-only",{_NO_WITNESS},'
         f'{{"entry":null,"splitting":[3,3,1,1],"status":"numeric-only",{_NO_WITNESS},'
         f'{{"entry":null,"splitting":[3,2,2,1],"status":"numeric-only",{_NO_WITNESS},'
         f'{{"entry":"dp3-times-p1","splitting":[2,2,2,2],"status":"realized",{_NO_WITNESS}]\n'),
        (["scroll", "--hyperelliptic", "3"], "(no splittings)\n"),
        (["scroll", "--trigonal", "5"], "(no splittings)\n"),
        (["scroll", "--trigonal", "5", "--json"], "[]\n"),
    ],
    ids=["trigonal-8", "hyperelliptic-7-json", "trigonal-10-json", "hyperelliptic-3", "trigonal-5",
         "trigonal-5-json"],
)
def test_scroll_case_list_output(argv, expected):
    assert run(argv) == (0, expected)


def test_catalog_list_payload_cannot_change_the_catalog():
    # a payload row holds the cached catalog's own objects, so they must refuse
    # a write: tampering through one would change the catalog for the process
    from fano3 import catalog, cli

    argv = ["catalog", "list", "--json"]
    want = run(argv)
    payload, _ = cli.COMMANDS["catalog"](cli.build_parser().parse_args(argv))
    nested = [row[key] for row in payload for key in ("construction", "hyperplane_section") if key in row]
    assert len(nested) == 32 + 10  # constructions and hyperplane sections
    for mapping in nested:
        with pytest.raises(TypeError):
            mapping["tampered"] = True
    assert run(argv) == want
    assert not any("tampered" in (e.construction or {}) for e in catalog.load().entries)


@pytest.mark.parametrize(
    "kind,genus,wrapped,to_int",
    [
        ("trigonal", 10, '"witness":{"den":"1","num":"-3"}',
         lambda c: c if c.witness is None else c._replace(witness=int(c.witness))),
        ("hyperelliptic", 7, '"branch":[{"den":"1","num":"4"},{"den":"1","num":"-8"}]',
         lambda c: c._replace(branch_class=cls2(Basis.MF, *map(int, c.branch_class.coords)))),
    ],
    ids=["trigonal", "hyperelliptic"],
)
def test_scroll_payload_wraps_the_witness(monkeypatch, kind, genus, wrapped, to_int):
    # the payload declares the witness and the branch class rational, whatever
    # type the library gives
    from fano3 import scrolls

    argv = ["scroll", f"--{kind}", str(genus), "--json"]
    want = run(argv)
    assert wrapped in want[1]
    build = getattr(scrolls, f"{kind}_candidates")
    monkeypatch.setattr(scrolls, f"{kind}_candidates", lambda g: [to_int(c) for c in build(g)])
    assert run(argv) == want


@pytest.mark.parametrize("weights", [(0, 0), (1, 1), (2, 1, 1), (3, 2, 1), (2, 2, 1, 1), (5, 1, 1, 1, 1)])
def test_canonical_table_reads_back_with_intersect_syntax(weights):
    # the table prints K in the syntax --intersect reads
    code, text = run(["scroll", "--weights", ",".join(map(str, weights)), "--canonical"])
    assert code == 0 and text.startswith("K = ") and text.endswith("\n")
    assert parse_mf_class(text[4:-1]) == scroll_canonical(ScrollData(weights))


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["scroll", "--weights", "2,1,1", "--h0", "--json"], '{"h0":7,"splitting":[2,1,1]}\n'),
        (["scroll", "--weights", "2,1,1", "--canonical"], "K = -3M+2F\n"),
        (["wps", "--weights", "1,1,1,1,3", "--degrees", "6"],
         "weights      [1, 1, 1, 1, 3]\nwell-formed  True\nnormalized   [1, 1, 1, 1, 3]\npic index    3\n"
         "dim          3\nindex        1\n(-K)^dim     2\ngenus        2\n"),
    ],
    ids=["scroll-h0-json", "scroll-canonical-text", "wps-genus-text"],
)
def test_weights_mode_output(argv, expected):
    assert run(argv) == (0, expected)


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


def test_intersect_leading_minus_needs_the_equals_form(capsys):
    # argparse reads a separate value that starts with '-' as a flag
    classes = "-M+2F,3F,M,M"
    assert run(["scroll", "--weights", "2,2,1,1", f"--intersect={classes}"]) == (0, "-3\n")
    assert run(["scroll", "--weights", "2,2,1,1", "--intersect", classes]) == (2, "")
    assert "argument --intersect: expected one argument" in capsys.readouterr().err


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
        (["scroll", "--hyperelliptic", "101"], "genus must be at most 100, got 101"),
        (["scroll", "--trigonal", "101", "--json"], "genus must be at most 100, got 101"),
        (["rr", "--dim", "3", "--index", "7", "--degree", "1"], "need 1 <= iota <= n+1"),
        (["rr", "--dim", "3", "--index", "1", "--degree", "0"], "degree must be positive"),
        (["rr", "--dim", "3", "--index", "1", "--genus", "1"], "genus must be >= 2"),
        (["scroll", "--weights", "2,-1", "--h0"], "splitting degrees must be >= 0"),
        (["scroll", "--trigonal", "4"], "genus must be >= 5"),
        (["scroll", "--weights", "2,1", "--intersect=3X,M"], "expects classes like 3M-4F,M-F"),
        (["wps", "--weights", "1,1", "--degrees", "2"], "codimension must be < dim"),
        (["rr", "--dim", "3", "--index", "1", "--degree", "7"], "coindex 3 needs even integral degree d = 2g-2"),
        (["rr", "--dim", "5", "--index", "1", "--degree", "2"], "coindex 5 > 3 is outside the derivation"),
        (["wps", "--weights", "1,1,1,1,1", "--degrees", "5"], "sum(degrees) = 5 >= sum(weights) = 5"),
        (["scroll", "--weights", "2,1,1", "--intersect", "M,F"], "need exactly 3 classes, got 2"),
        (["catalog", "facts", "nope"], "error: unknown catalog id 'nope'"),
        # (-K)^dim = 1998^1998 * 2 has more digits than Python prints
        (["wps", "--weights", ",".join(["1"] * 2000), "--degrees", "2"],
         "Exceeds the limit (4300 digits) for integer string conversion"),
        (["scroll", "--hyperelliptic", "1"], "genus must be >= 2"),
        # a term after the first needs its sign: not M + F, nor 2M + 3F
        (["scroll", "--weights", "1,1", "--intersect", "MF,M"], "expects classes like 3M-4F,M-F"),
        (["scroll", "--weights", "1,1", "--intersect", "2M3F,M"], "expects classes like 3M-4F,M-F"),
        # the least genus of a range is checked before the range is listed
        (["link", "--center", "line", "--genus-range=-1000000000000..5"], "genus must be >= 2, got -1000000000000"),
        # the JSON is rendered before anything is written, so no partial output
        (["wps", "--weights", ",".join(["1"] * 2000), "--degrees", "2", "--json"],
         "Exceeds the limit (4300 digits) for integer string conversion"),
        # degrees on weights that are not well-formed do not carry over to the normalized ones
        (["wps", "--weights", "2,2,2,2", "--degrees", "2"], "normalize the weight system first"),
        # (-K)^3 = 0 is refused for a point blowup as for a curve blowup
        (["blowup", "--antik-cube", "0", "--point"], "antik_cube must be positive"),
    ],
)
def test_invalid_input_exits_two_with_message(argv, message, capsys):
    code, text = run(argv)
    assert code == 2
    assert text == ""
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,expected",
    [
        # h^0(O(1)) on P^100, at the --dim cap
        (["rr", "--dim", "100", "--index", "101", "--degree", "1"], "101\n"),
        # chi(-tK) = t(t+1)(2t+1)/12 * (-K)^3 + 2t + 1 with (-K)^3 = 4, at t = +-10^6
        (["rr", "--dim", "3", "--index", "1", "--degree", "4", "--t", "1000000"], "666667666669000001\n"),
        (["rr", "--dim", "3", "--index", "1", "--degree", "4", "--t", "-1000000"], "-666665666668999999\n"),
    ],
    ids=["dim-cap", "t-cap", "t-floor"],
)
def test_rr_accepts_its_caps(argv, expected):
    assert run(argv) == (0, expected)


def test_link_one_genus_range_is_that_genus():
    head = ["link", "--center", "line"]
    assert run([*head, "--genus-range", "9..9", "--json"]) == run([*head, "--genus", "9", "--json"])


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["wps", "--weights", ",".join(["2"] * 30000), "--json"], {"well_formed": False, "normalized": [1] * 30000}),
        (["scroll", "--weights", ",".join(["1"] * 30000), "--intersect", ",".join(["M-F"] * 30000), "--json"],
         {"value": {"num": "0", "den": "1"}}),
    ],
    ids=["wps", "scroll-intersect"],
)
def test_long_argv_runs_in_linear_time(argv, expected):
    # each leave-one-out fold is one pass, so 30000 entries take well under a second
    start = time.perf_counter()
    code, text = run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert expected.items() <= json.loads(text).items()


def _num(lo, hi):
    return st.integers(lo, hi).map(str)


def _commas(elements, max_size=5):
    return st.lists(elements, min_size=1, max_size=max_size).map(lambda xs: ",".join(map(str, xs)))


_CLASS = st.builds("{}M{:+d}F".format, st.integers(-3, 3), st.integers(-4, 4))
_CATALOG_ID = st.sampled_from(["v3", "fano-g7", "nope"])
# leading argv -> its flag groups, each exclusive in the grammar: flag ->
# strategy for its value, None marking a switch
_GROUPS = {
    ("rr",): [{"--dim": _num(1, 4)}, {"--index": _num(1, 4)}, {"--t": _num(-5, 8)},
              {"--degree": _num(1, 12), "--genus": _num(-1, 20)}],
    ("blowup",): [{"--antik-cube": _num(-2, 70)},
                  {"--point": None, "--curve": st.builds("{},{}".format, _num(-1, 8), _num(-1, 4))}],
    ("scroll",): [{"--h0": None, "--canonical": None, "--intersect": _commas(_CLASS),
                   "--hyperelliptic": _num(-1, 20), "--trigonal": _num(-1, 20)}],
    ("wps",): [{"--weights": _commas(st.integers(0, 9), 6)},
               {"--degrees": _commas(st.integers(0, 12), 3)}],
    ("catalog", "list"): [{"--rho": _num(0, 5)}, {"--index": _num(0, 5)}, {"--genus": _num(0, 13)},
                          {"--flag": st.sampled_from(["HyperellipticModel", "BasePointModel", "x"])}],
    ("catalog", "facts"): [],
    ("catalog", "nope"): [],
    ("catalog", "verify"): [{"--all": None, "--id": _CATALOG_ID}],
    ("link",): [{"--center": st.sampled_from(["line", "conic", "point", "plane"])},
                {"--genus": _num(-1, 10**12),
                 "--genus-range": st.builds("{}..{}".format, _num(-1, 30), _num(-1, 10**12))},
                {"--show-excluded": None}],
    ("rho2", "enumerate-primitive"): [],
    ("rho2", "nope"): [],
}
# drawn only after a scroll mode that takes it
_WEIGHTS = {"--weights": _commas(st.integers(-1, 4))}
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

    def draw_group(group):
        count = min(len(group), draw(st.sampled_from([1, 1, 1, 0, 2])))
        chosen = st.lists(st.sampled_from(sorted(group)), min_size=count, max_size=count, unique=True)
        for flag in draw(chosen):
            value = group[flag]
            flags.append([flag] if value is None else [flag, draw(_JUNK if draw(_RARELY) else value)])

    for group in groups:
        draw_group(group)
    if head == ("scroll",) and {"--h0", "--canonical", "--intersect"} & {flag[0] for flag in flags}:
        draw_group(_WEIGHTS)
    flags = draw(st.permutations(flags))
    json_flag = draw(st.lists(st.just("--json"), max_size=1))
    return [*head, *(token for flag in flags for token in flag), *json_flag]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["link", "--center", "point", "--genus-range", "2..60", "--show-excluded", "--json"])
@example(argv=["rr", "--dim", "3", "--index", "1", "--genus", "12", "--t", "2", "--json"])
@example(argv=["scroll", "--trigonal", "8", "--json"])
@example(argv=["scroll", "--weights", "2,1,1", "--intersect", "M-F,2M+F,F", "--json"])
@example(argv=["catalog", "verify", "--help"])
def test_every_argv_exits_0_2_or_3(argv):
    leaked, err = io.StringIO(), io.StringIO()
    # given out, main writes nothing to stdout; errors go to sys.stderr
    with contextlib.redirect_stdout(leaked), contextlib.redirect_stderr(err):
        code, text = run(argv)
    assert leaked.getvalue() == ""
    assert code in (0, 2, 3)
    assert code != 2 or text == ""
    assert (code == 2) == (err.getvalue() != "")  # an exit 2 always says why
    if code != 2 and "--json" in argv:  # canonical JSON round-trips byte for byte
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text


@pytest.mark.parametrize(
    "head",
    [[], *([name] for name in COMMANDS), ["catalog", "list"], ["catalog", "facts"], ["catalog", "verify"]],
    ids=lambda head: " ".join(head) or "fano3",
)
def test_help_goes_to_out(head, capsys):
    code, text = run([*head, "--help"])
    assert code == 0
    assert text.startswith(f"usage: {' '.join(['fano3', *head])} ")
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["rr", "--bogus"], "fano3 rr: error: the following arguments are required: --dim, --index\n"),
        (["link", "--center", "line", "--genus", "1"], "fano3 link: error: genus must be >= 2, got 1\n"),
    ],
    ids=["usage", "handler"],
)
def test_errors_go_to_stderr(argv, message, capsys):
    # usage and handler errors both reach the sys.stderr of the call, so a
    # caller captures them with contextlib.redirect_stderr around main
    assert run(argv) == (2, "")
    assert capsys.readouterr().err.endswith(message)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run(argv) == (2, "")
    assert err.getvalue().endswith(message)
    assert capsys.readouterr() == ("", "")


USAGE_ERRORS = {
    "handler": ["link", "--center", "line", "--genus", "1"],
    "usage": ["link", "--center", "line", "--bogus"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_without_stderr_writes_nothing(argv, capsys, monkeypatch):
    # the message is lost, but neither the usage line nor the message falls
    # back to out or to stdout
    monkeypatch.setattr(sys, "stderr", None)
    assert run(argv) == (2, "")
    assert capsys.readouterr().out == ""


class _RefusingStream(io.StringIO):
    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_with_a_refusing_stderr_exits_two(argv):
    with contextlib.redirect_stderr(_RefusingStream()):
        assert run(argv) == (2, "")


def test_dumps_rejects_unknown_objects():
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps(object())


def test_dumps_rejects_records_though_they_are_tuples():
    from fano3 import catalog, sarkisov

    link = sarkisov.enumerate_links("line", [9])[0]
    entry = catalog.load().entries[0]
    for record in (link, entry):
        with pytest.raises(TypeError, match=f"cannot serialize {type(record).__name__}"):
            dumps(record)


@pytest.mark.parametrize(
    "obj,expected",
    [
        (True, "true"),
        (-7, "-7"),
        (10**30, "1" + "0" * 30),
        ("M", '"M"'),
        (Basis.MF, '"MF"'),  # a str enum passes as str
        (None, "null"),
        (Fraction(-3, 2), '{"den":"2","num":"-3"}'),
        (Fraction(4), '{"den":"1","num":"4"}'),
        ({2: [1, (None, Fraction(1, 3))], Basis.KE: {}}, '{"2":[1,[null,{"den":"3","num":"1"}]],"KE":{}}'),
        # the catalog's objects: as the same nesting of dicts
        (MappingProxyType({2: MappingProxyType({"a": (1, None)})}), '{"2":{"a":[1,null]}}'),
    ],
    ids=["bool", "int", "bigint", "str", "str-enum", "none", "fraction", "integral-fraction", "nested",
         "mapping-proxy"],
)
def test_dumps_accepts(obj, expected):
    assert dumps(obj) == expected + "\n"


@pytest.mark.parametrize(
    "obj",
    [1.5, 1j, b"M", {1}, frozenset(), Decimal(1), collections.UserList([1]), ScrollData((1, 1)), [1, 0.5],
     {"a": ScrollData((1, 1))}, [1, ScrollData((1, 1))], (None, ScrollData((1, 1)))],
    ids=["float", "complex", "bytes", "set", "frozenset", "decimal", "list-subclass", "record", "nested-float",
         "record-in-dict", "record-in-list", "record-in-tuple"],
)
def test_dumps_rejects(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        dumps(obj)


def _loaded_modules(code):
    """The fano3 modules a fresh interpreter holds after running code, plus
    dataclasses, inspect and importlib.resources if loaded: records are
    NamedTuples and catalog.load opens its file, so none is needed, and
    importing each costs more than most commands.  The interpreter runs
    without site (-S), whose .pth hooks may import any of them first."""
    names = "m.startswith('fano3') or m in ('dataclasses', 'inspect', 'importlib.resources')"
    script = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if {names}))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["rr", "--dim", "3", "--index", "1", "--genus", "12"], {"riemannroch"}),
        (["wps", "--weights", "1,1,1,2,3"], {"wps"}),
        (["rho2", "enumerate-primitive"], {"sarkisov", "blowup", "exactcore"}),
        (["catalog", "list"], {"catalog"}),
        (["link", "--center", "line", "--genus-range", "7..13"], {"sarkisov", "blowup", "exactcore", "catalog"}),
        (["catalog", "verify", "--all"], {"catalog", "blowup", "exactcore", "riemannroch"}),
    ],
    ids=["rr", "wps", "rho2", "catalog-list", "link", "catalog-verify"],
)
def test_subcommand_loads_only_its_layers(argv, layers):
    code = f"import io\nfrom fano3 import cli\nassert cli.main({argv!r}, out=io.StringIO()) == 0"
    assert _loaded_modules(code) == {"fano3", "fano3.cli"} | {f"fano3.{m}" for m in layers}


def test_cli_import_loads_no_layer():
    assert _loaded_modules("import fano3.cli") == {"fano3", "fano3.cli"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_no_dataclass_in_src(path):
    # a dataclass compiles its methods at import and pulls in inspect
    assert "dataclass" not in path.read_text()


def _unused_imports(path):
    """Names a module imports, at any depth, that it never reads."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == set()


def _error_type_departures(path):
    """Classes a module derives from a builtin exception, and except clauses
    naming KeyError: bad input is reported as a plain ValueError."""
    exceptions = {k for k, v in vars(builtins).items() if isinstance(v, type) and issubclass(v, BaseException)}
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            if exceptions & {b.id for b in node.bases if isinstance(b, ast.Name)}:
                found.append(f"line {node.lineno}: class {node.name}")
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            if "KeyError" in {n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}:
                found.append(f"line {node.lineno}: except {ast.unparse(node.type)}")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_bad_input_is_a_plain_value_error(path):
    assert _error_type_departures(path) == []


def _stderr_printers(path):
    """Calls that write to sys.stderr by hand, print(..., file=sys.stderr) and
    sys.stderr.write: a usage error has one printer, argparse's parser.exit."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            func = ast.unparse(node.func)
            to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in node.keywords)
            if func == "sys.stderr.write" or (func == "print" and to_stderr):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_no_stderr_printer_of_its_own(path):
    assert _stderr_printers(path) == []


def _asserts(path):
    """assert statements, which python -O strips: a runtime invariant raises."""
    tree = ast.parse(path.read_text())
    return [f"line {n.lineno}: {ast.unparse(n)}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    assert _asserts(path) == []


MUTATION_PROBE = runpy.run_path(str(ROOT / "scripts" / "mutation_probe.py"))


def _stale_markers(path):
    """The lines that an equivalent-mutant marker of scripts/mutation_probe.py
    marks but where the probe flips no comparison.  A marker marks its own
    line, or the first line below its block of comment lines."""
    text = path.read_text()
    lines = text.splitlines()
    flipped = {line for line, _, _ in MUTATION_PROBE["mutants"](text.encode())}
    stale = []
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and MUTATION_PROBE["MARKER"] in tok.string:
            line = tok.start[0]
            while lines[line - 1].lstrip().startswith("#"):
                line += 1
            if line not in flipped:
                stale.append(f"line {line}: {lines[line - 1].strip()}")
    return stale


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "fano3").glob("*.py")), ids=lambda p: p.name)
def test_every_equivalent_mutant_marker_marks_a_comparison(path):
    # the probe reports a stale marker only when the tests kill its mutant, so
    # one left over a line with no comparison would go unseen there
    assert _stale_markers(path) == []


# src names that only tests read: each is the independent route a test
# checks a src result against
REFERENCES = {
    "pullback_form_curve",  # test_blowup.py::test_ke_form_agrees_with_pullback_expansion
}


def test_every_src_name_has_a_reader():
    """Each top-level def, class and assignment in src/fano3 is named once
    more, outside comments, in src/fano3, bench or scripts (the bench tracer
    names the functions it wraps in strings)."""
    words = collections.Counter()
    top = []
    for path in sorted(p for d in ("src/fano3", "bench", "scripts") for p in (ROOT / d).rglob("*.py")):
        text = path.read_text()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type in (tokenize.NAME, tokenize.STRING):
                words.update(re.findall(r"\w+", tok.string))
        if path.parent.name == "fano3":
            for node in ast.parse(text).body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    top.append(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    top += [t.id for t in targets if isinstance(t, ast.Name)]
    assert sorted(n for n in top if words[n] < 2) == sorted(REFERENCES)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_samples(name):
    code, text = run(GOLDEN_COMMANDS[name])
    assert code == 0
    assert text == (SAMPLES / name).read_text()


# --- the process entry ----------------------------------------------------

# block-buffered stdout, so that only run's flush gets the output out
PROCESS_ENV = {**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}, "PYTHONPATH": str(ROOT / "src")}
TRIGONAL_100 = ["scroll", "--trigonal", "100", "--json"]


def _process(argv, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "fano3.cli", *argv], env=PROCESS_ENV, stdout=stdout,
                          stderr=subprocess.PIPE, text=True)


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_process_writes_the_golden_samples(name):
    done = _process(GOLDEN_COMMANDS[name])
    assert (done.returncode, done.stdout, done.stderr) == (0, (SAMPLES / name).read_text(), "")


def test_process_usage_error_exits_two():
    done = _process(["rr", "--dim", "3", "--index", "1", "--genus", "1"])
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("fano3 rr: error:")


def test_process_help_reaches_a_block_buffered_stdout():
    done = _process(["rr", "--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("usage: fano3 rr")


def test_process_matches_main_on_the_trigonal_payload():
    done = _process(TRIGONAL_100)
    assert (done.returncode, done.stdout) == run(TRIGONAL_100)
    assert len(done.stdout) == 658990


@pytest.mark.parametrize("argv", [GOLDEN_COMMANDS["rr.json"], TRIGONAL_100], ids=["at-flush", "at-write"])
def test_process_with_a_broken_pipe_exits_one_silently(argv):
    # the read end is closed before the process starts: the 217-byte rr
    # payload fails at run's flush, the 659 kB trigonal one at main's write
    read, write = os.pipe()
    os.close(read)
    try:
        done = _process(argv, stdout=write)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, "")


def test_process_with_stdout_closed_exits_one_silently():
    command = [sys.executable, "-m", "fano3.cli", *GOLDEN_COMMANDS["rr.json"]]
    done = subprocess.run(["sh", "-c", '"$@" >&-', "sh", *command], env=PROCESS_ENV, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["at-flush", "at-write"])
def test_process_with_stdout_read_only_exits_one_silently(unbuffered):
    # a descriptor open for reading refuses the output with EBADF, at main's
    # flush of block-buffered stdout, or at its write under PYTHONUNBUFFERED
    env = {**PROCESS_ENV, "PYTHONUNBUFFERED": "1"} if unbuffered else PROCESS_ENV
    command = [sys.executable, "-m", "fano3.cli", *GOLDEN_COMMANDS["rr.json"]]
    done = subprocess.run(["sh", "-c", 'exec 1</dev/null; "$@"', "sh", *command], env=env, capture_output=True,
                          text=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, "", "")


class _RefusingOut(io.StringIO):
    def __init__(self, code):
        super().__init__()
        self.code = code

    def write(self, text):
        raise OSError(self.code, os.strerror(self.code))


def test_main_returns_one_only_for_a_stdout_that_refuses_the_output():
    argv = GOLDEN_COMMANDS["rr.json"]
    assert main(argv, out=_RefusingOut(errno.EBADF)) == 1
    assert main(argv, out=_RefusingOut(errno.EPIPE)) == 1
    with pytest.raises(OSError) as info:  # a full disk is a fault, not a refusal
        main(argv, out=_RefusingOut(errno.ENOSPC))
    assert info.value.errno == errno.ENOSPC


@pytest.mark.parametrize("code", [errno.EBADF, errno.ENOENT])
def test_an_os_error_inside_a_handler_propagates(code, monkeypatch):
    # such as a missing classification.json: only main's write and flush read
    # EBADF and EPIPE as a stdout that cannot take the output
    def failing(args):
        raise OSError(code, os.strerror(code))

    monkeypatch.setitem(COMMANDS, "rr", failing)
    with pytest.raises(OSError) as info:
        main(GOLDEN_COMMANDS["rr.json"], out=io.StringIO())
    assert info.value.errno == code


# sys.executable itself runs under the shell, so no launcher can reopen fd 2
STDERR_UNUSABLE = {"closed": '"$@" 2>&-', "read-only": 'exec 2</dev/null; "$@"'}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
@pytest.mark.parametrize("script", STDERR_UNUSABLE.values(), ids=STDERR_UNUSABLE.keys())
def test_process_usage_error_without_a_usable_stderr_exits_two(script, argv):
    command = [sys.executable, "-m", "fano3.cli", *argv]
    done = subprocess.run(["sh", "-c", script, "sh", *command], env=PROCESS_ENV, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")


def test_installed_script_is_the_process_entry():
    assert re.search(r'^fano3 = "fano3\.cli:run"$', (ROOT / "pyproject.toml").read_text(), re.M)
