import ast
import builtins
import collections
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tokenize

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fano3.cli import dumps, main

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
    ],
    ids=["trigonal-8", "hyperelliptic-7-json", "trigonal-10-json"],
)
def test_scroll_case_list_output(argv, expected):
    assert run(argv) == (0, expected)


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["scroll", "--weights", "2,1,1", "--h0", "--json"], '{"h0":7,"splitting":[2,1,1]}\n'),
        (["wps", "--weights", "1,1,1,1,3", "--degrees", "6"],
         "weights      [1, 1, 1, 1, 3]\nwell-formed  True\nnormalized   [1, 1, 1, 1, 3]\npic index    3\n"
         "dim          3\nindex        1\n(-K)^dim     2\ngenus        2\n"),
    ],
    ids=["scroll-h0-json", "wps-genus-text"],
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
                {"--genus": _num(-1, 60),
                 "--genus-range": st.builds("{}..{}".format, _num(-1, 30), _num(-1, 60))},
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=_argv())
@example(argv=["link", "--center", "point", "--genus-range", "2..60", "--show-excluded", "--json"])
@example(argv=["rr", "--dim", "3", "--index", "1", "--genus", "12", "--t", "2", "--json"])
@example(argv=["scroll", "--trigonal", "8", "--json"])
@example(argv=["scroll", "--weights", "2,1,1", "--intersect", "M-F,2M+F,F", "--json"])
def test_every_argv_exits_0_2_or_3(argv):
    code, text = run(argv)
    assert code in (0, 2, 3)
    assert code != 2 or text == ""
    if code != 2 and "--json" in argv:  # canonical JSON round-trips byte for byte
        assert json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n" == text


def test_dumps_rejects_unknown_objects():
    with pytest.raises(TypeError, match="cannot serialize object"):
        dumps(object())


def _loaded_modules(code):
    """The fano3 modules a fresh interpreter holds after running code."""
    script = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.startswith('fano3')))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize(
    "argv,layers",
    [
        (["rr", "--dim", "3", "--index", "1", "--genus", "12"], {"riemannroch"}),
        (["wps", "--weights", "1,1,1,2,3"], {"wps"}),
        (["rho2", "enumerate-primitive"], {"sarkisov", "blowup", "exactcore"}),
        (["catalog", "list"], {"catalog", "data"}),
    ],
    ids=["rr", "wps", "rho2", "catalog-list"],
)
def test_subcommand_loads_only_its_layers(argv, layers):
    code = f"import io\nfrom fano3 import cli\nassert cli.main({argv!r}, out=io.StringIO()) == 0"
    assert _loaded_modules(code) == {"fano3", "fano3.cli"} | {f"fano3.{m}" for m in layers}


def test_cli_import_loads_no_layer():
    assert _loaded_modules("import fano3.cli") == {"fano3", "fano3.cli"}


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


# src names that only tests read: each is the independent route a test
# checks a src result against
REFERENCES = {
    "pullback_form_curve",  # test_blowup.py::test_ke_form_agrees_with_pullback_expansion
    "threefold_h0_index1",  # test_riemannroch.py::test_explicit_threefold_forms_match_polynomial
    "threefold_h0_index2",  # test_riemannroch.py::test_explicit_threefold_forms_match_polynomial
    "double_cover_antik_power",  # test_wps.py::test_hurwitz_double_cover_checks
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
