import json
import time

import pytest

from zdgdim import FinitePoset, SimpleGraph, adapters, cli
from zdgdim.cli import _parse_int, main
from zdgdim.verify import FIG3, SUITES

FIG3_JSON = json.dumps(FIG3.to_json_dict())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_boolean(capsys):
    code, out, _ = run(capsys, "build", "--boolean", "3")
    assert code == 0
    assert "8 elements" in out and "3 atoms" in out


def test_build_blowup_summary(capsys):
    code, out, _ = run(capsys, "build", "--blowup", FIG3_JSON)
    assert code == 0
    assert "14 elements" in out
    assert "|Z*|=12" in out
    assert "classes sizes 3,1,2,2,3,1" in out


def test_build_malformed_json(capsys):
    code, _, err = run(capsys, "build", "--blowup", "{not json")
    assert code == 1
    assert "error:" in err


def test_build_invalid_spec(capsys):
    code, _, err = run(capsys, "build", "--blowup",
                       '{"n":3,"chains":{"111":2}}')
    assert code == 1
    assert "error:" in err


def test_sdim_all_methods_figure3(capsys):
    code, out, _ = run(capsys, "sdim", "--blowup", FIG3_JSON,
                       "--method", "all", "--check")
    assert code == 0
    rows = [line for line in out.splitlines() if "|" in line]
    assert any(line.startswith("formula") and " 8 " in line + " "
               for line in rows)
    assert sum("8" in line for line in rows) >= 3


def test_sdim_small_n_formula_guard(capsys):
    code, out, _ = run(capsys, "sdim", "--boolean", "2")
    assert code == 0
    assert "n<3: formula inapplicable" in out
    assert any(line.startswith("gsr") and "1" in line
               for line in out.splitlines())
    # the component-union form needs n >= 3 too; for n = 2, q = 3 it would
    # print 8, which is |V|, not sdim = 5
    code, out, _ = run(capsys, "sdim", "--vspace", "n=2,q=3")
    assert code == 0
    assert "formula  | n<3: formula inapplicable | -" in out
    assert any(line.startswith("gsr") and " 5 " in line
               for line in out.splitlines())


def test_sdim_json_output_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "sdim", "--blowup", FIG3_JSON, "--json")
    code2, out2, _ = run(capsys, "sdim", "--blowup", FIG3_JSON, "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    values = {row["method"]: row["value"] for row in payload["rows"]}
    assert values == {"formula": "8", "gsr": "8", "brute": "8"}


def test_sdim_brute_respects_cap(capsys, monkeypatch):
    monkeypatch.setenv("SDIM_BRUTE_CAP", "4")
    code, _, err = run(capsys, "sdim", "--boolean", "3", "--method", "brute")
    assert code == 1
    assert "exceeds brute cap" in err
    monkeypatch.setenv("SDIM_BRUTE_CAP", "16")
    code, out, _ = run(capsys, "sdim", "--boolean", "3", "--method", "brute")
    assert code == 0 and "2" in out


def test_zdg_and_exports(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, out, _ = run(capsys, "zdg", "--boolean", "3", "--out", str(dot))
    assert code == 0
    assert "6 vertices, 6 edges" in out
    text = dot.read_text()
    assert text.startswith("graph G {")
    assert '"(0,0,1)" -- "(0,1,0)";' in text

    js = tmp_path / "g.json"
    code, _, _ = run(capsys, "zdg", "--boolean", "3", "--out", str(js))
    data = json.loads(js.read_text())
    assert len(data["labels"]) == 6 and len(data["edges"]) == 6

    # a lattice input's `build` writes its Hasse diagram, elements in
    # index order
    hasse = tmp_path / "h.dot"
    code, _, _ = run(capsys, "build", "--mn", "2", "--out", str(hasse))
    assert code == 0
    assert hasse.read_text() == (
        'graph hasse {\n  "0";\n  "a1";\n  "a2";\n  "1";\n'
        '  "0" -- "a1";\n  "0" -- "a2";\n  "a1" -- "1";\n  "a2" -- "1";\n}\n')


def test_build_poset_roundtrip(capsys, tmp_path):
    poset_json = {
        "labels": ["0", "a", "b", "1"],
        "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        "bottom": 0, "top": 3,
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(poset_json))
    code, out, _ = run(capsys, "build", "--poset", str(path))
    assert code == 0
    assert "4 elements" in out
    code, out, _ = run(capsys, "sdim", "--poset", str(path))
    assert code == 0
    assert "n<3" in out


def test_poset_input_without_zero_distributivity(capsys, tmp_path):
    # M_3 is a lattice but not 0-distributive: build and sdim must still
    # work, with the formula row marked inapplicable
    from zdgdim import m_lattice
    from zdgdim.poset import poset_to_json
    path = tmp_path / "m3.json"
    path.write_text(json.dumps(poset_to_json(m_lattice(3))))
    code, out, _ = run(capsys, "build", "--poset", str(path))
    assert code == 0 and "5 elements" in out
    code, out, _ = run(capsys, "sdim", "--poset", str(path))
    assert code == 0
    assert "formula inapplicable" in out
    assert any(line.startswith("gsr") and " 2 " in line + " "
               for line in out.splitlines())


def test_gsr_and_gstarstar_commands(capsys):
    code, out, _ = run(capsys, "gsr", "--blowup", FIG3_JSON)
    assert code == 0
    assert "11 vertices" in out
    code, out, _ = run(capsys, "gstarstar", "--blowup", FIG3_JSON)
    assert code == 0
    assert "12 vertices" in out


def test_adapter_fields(capsys):
    code, out, _ = run(capsys, "adapter", "--fields", "3,2,2", "--check")
    assert code == 0
    assert "9 vertices" in out
    assert "sdim via gsr: 5" in out
    assert "agrees" in out
    assert "matches product-of-chains zero-divisor graph: True" in out


def test_adapter_zn_and_local(capsys):
    code, out, _ = run(capsys, "adapter", "--zn", "60", "--check")
    assert code == 0
    assert "sdim via gsr: 5" in out
    code, out, _ = run(capsys, "adapter", "--local", "2,3,5", "--check")
    assert code == 0
    assert "21 vertices" in out
    assert "sdim via gsr: 17" in out
    code, out, _ = run(capsys, "adapter", "--local", "2^2,3,5", "--check")
    assert code == 0
    assert "42 vertices" in out
    assert "sdim via gsr: 38" in out


def test_vspace_parse_errors(capsys):
    code, _, err = run(capsys, "adapter", "--vspace", "n=3")
    assert code == 1 and "--vspace wants" in err
    code, _, err = run(capsys, "adapter", "--vspace", "nonsense")
    assert code == 1


def test_adapter_vspace_reports_disagreement(capsys):
    code, out, _ = run(capsys, "adapter", "--vspace", "n=3,q=2")
    assert code == 0                      # informational without --check
    assert "sdim via gsr: 3" in out
    assert "DISAGREES" in out
    assert "matches join of blow-up graph with K_t: True" in out
    code, _, _ = run(capsys, "adapter", "--vspace", "n=3,q=2", "--check")
    assert code == 2


@pytest.mark.parametrize("argv, target, prediction", [
    (("--fields", "3,3,2"), "zero_divisor_graph",
     "product-of-chains zero-divisor graph"),
    (("--local", "2^2,3,5"), "zero_divisor_graph",
     "blow-up zero-divisor graph"),
    (("--zn", "210"), "zero_divisor_graph",
     "dual ideal-lattice zero-divisor graph"),
    (("--vspace", "n=3,q=2"), "zero_divisor_graph",
     "join of blow-up graph with K_t"),
], ids=["fields", "local", "zn", "vspace"])
def test_adapter_reports_a_prediction_mismatch(capsys, monkeypatch, argv,
                                               target, prediction):
    # the predicted construction loses one edge, so the application graph
    # no longer equals it
    build = getattr(adapters, target)

    def one_edge_short(*args):
        g = build(*args)
        return SimpleGraph.from_edges(g.labels, g.edge_list()[1:])
    monkeypatch.setattr(adapters, target, one_edge_short)
    code, out, _ = run(capsys, "adapter", *argv, "--check")
    assert code == 2
    assert out.splitlines()[-1] == f"matches {prediction}: False"


@pytest.mark.parametrize("shift", [100, 1], ids=["past-the-top", "collision"])
def test_adapter_reports_a_wrong_predicted_label(capsys, monkeypatch, shift):
    # the renamed side is wrong: the first residue of the chain of mask 001
    # is renamed to a level past the top of that chain (16 elements), which
    # no blow-up element has, or onto level 2, which another residue has.
    # Either way the check reports False instead of raising
    label = adapters.blowup_label

    def misnamed(mask, level, n):
        return label(mask, level + shift if (mask, level) == (1, 1)
                     else level, n)
    monkeypatch.setattr(adapters, "blowup_label", misnamed)
    code, out, err = run(capsys, "adapter", "--local", "2^2,3,5", "--check")
    assert (code, err) == (2, "")
    assert out.splitlines()[-1] == "matches blow-up zero-divisor graph: False"


class LevelNamed(Exception):
    """Raised by a patched `adapters.blowup_label`."""


def test_only_the_prediction_check_names_blowup_levels(capsys, monkeypatch):
    # building an application graph names no blow-up level; only the
    # prediction check of `adapter` does
    def refuse(*args):
        raise LevelNamed(args)
    monkeypatch.setattr(adapters, "blowup_label", refuse)
    code, out, err = run(capsys, "sdim", "--local", "2^2,3,5", "--method",
                         "gsr")
    assert (code, err) == (0, "") and "gsr      | 38 " in out
    code, out, err = run(capsys, "zdg", "--vspace", "n=3,q=3")
    assert (code, err) == (0, "") and "26 vertices" in out
    assert adapters.comaximal([(2, 1), (3, 1), (5, 1)]).graph.n == 21
    with pytest.raises(LevelNamed):
        run(capsys, "adapter", "--local", "2^2,3,5", "--check")


class LatticeBuilt(Exception):
    pass


@pytest.mark.parametrize("flag, value", [("--boolean", "5"),
                                         ("--blowup", FIG3_JSON)])
def test_only_build_builds_a_blowup_lattice(capsys, monkeypatch, flag,
                                            value):
    # a blow-up input's graph and G** come from its spec's (label, mask)
    # pairs; no other command builds a lattice
    def refuse(*args):
        raise LatticeBuilt(args)
    monkeypatch.setattr(cli, "build_blowup", refuse)
    monkeypatch.setattr(FinitePoset, "__init__", refuse)
    for command in ("sdim", "zdg", "gsr", "gstarstar", "adapter"):
        code, out, err = run(capsys, command, flag, value)
        assert (code, err) == (0, "") and out, command
    code, out, err = run(capsys, "sdim", flag, value, "--check")
    assert (code, err) == (0, "")
    with pytest.raises(LatticeBuilt):
        run(capsys, "build", flag, value)
    monkeypatch.undo()
    code, out, err = run(capsys, "build", flag, value)
    assert (code, err) == (0, "")
    assert out == ("boolean 2^5: 32 elements, 5 atoms, |Z*|=30, classes "
                   "sizes " + ",".join(["1"] * 30) + "\n"
                   if flag == "--boolean" else
                   "blow-up of 2^3: 14 elements, 3 atoms, |Z*|=12, classes "
                   "sizes 3,1,2,2,3,1\n")


@pytest.mark.parametrize("flag, value", [("--fields", "3,3,2"),
                                         ("--zn", "210")])
def test_self_named_applications_build_no_renamed_copy(capsys, monkeypatch,
                                                       flag, value):
    # their vertices carry the construction's own labels, so the check
    # compares the graph itself with the construction: one pattern graph
    # for each side
    calls = []
    build = SimpleGraph.from_patterns.__func__

    def counted(cls, vertices, crossing=False):
        calls.append(crossing)
        return build(cls, vertices, crossing)
    monkeypatch.setattr(SimpleGraph, "from_patterns", classmethod(counted))
    code, out, _ = run(capsys, "adapter", flag, value, "--check")
    assert code == 0 and out.endswith(": True\n")
    assert calls == [False, False]


@pytest.mark.parametrize("p", ["1", "0", "-2", "4", "6"])
def test_local_refuses_every_non_prime_base_as_not_prime(capsys, p):
    # a base that is no prime power gets the message of one that is a
    # prime power but no prime
    code, out, err = run(capsys, "sdim", "--local", p)
    assert (code, out, err) == (1, "", f"error: {p} is not prime\n")


@pytest.mark.parametrize("flag, value", [
    ("--chains", "1"), ("--chains", "1,1"),
    ("--poset", '{"labels":["0"],"covers":[],"bottom":0,"top":0}'),
], ids=["chain", "two-chains", "poset"])
def test_one_element_lattice(capsys, flag, value):
    # bounded and 0-distributive with an empty zero-divisor graph; the
    # closed form needs an atom, and the quotient is 2^0
    code, out, err = run(capsys, "sdim", flag, value)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0].endswith("(|V|=0)")
    assert lines[2].split(" | ")[1].rstrip() == \
        "the one-element lattice has no atoms: formula inapplicable"
    assert lines[3].split(" | ")[1].rstrip() == "0"
    for command in ("build", "zdg", "gsr", "gstarstar"):
        code, out, err = run(capsys, command, flag, value)
        assert (code, err) == (0, ""), command
    assert out.startswith("G** of ")
    assert out.endswith(": 0 vertices, 0 edges\n")


def test_gstarstar_refuses_a_quotient_that_is_not_boolean(capsys):
    code, out, err = run(capsys, "gstarstar", "--mn", "3")
    assert (code, out) == (1, "")
    assert err == "error: annihilator quotient is not Boolean\n"


def test_gstarstar_rejects_graph_only_inputs(capsys):
    code, _, err = run(capsys, "gstarstar", "--fields", "3,2,2")
    assert code == 1
    assert "lattice input" in err


def test_mn_input(capsys):
    code, out, _ = run(capsys, "sdim", "--mn", "4")
    assert code == 0
    assert any(line.startswith("gsr") and "3" in line
               for line in out.splitlines())


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "formula-agreement",
                       "--seed", "7", "--count", "10")
    assert code == 0
    assert "suite formula-agreement: pass" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    assert "unknown suite" in err


def test_verify_refuses_a_negative_count(capsys):
    code, out, err = run(capsys, "verify", "--count", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --count wants a nonnegative integer (got -1)\n"


def test_verify_deterministic(capsys):
    args = ("verify", "--suite", "quotient", "--seed", "3",
            "--count", "8", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_case_counts_and_failures_are_pinned(capsys):
    # the case counts and the published-form failures fix `verify`'s stdout;
    # a suite that drops or adds a case changes it.  The component-union
    # closed form is the one check that honestly fails, in `adapters` and
    # `examples` alike
    code, out, _ = run(capsys, "verify", "--json", "--seed", "0",
                       "--count", "25")
    assert code == 1
    payload = json.loads(out)
    assert [(r["suite"], r["cases"]) for r in payload] == [
        ("diameter", 36), ("gallai", 168), ("distance-lemma", 28),
        ("quotient", 140), ("gsr-equality", 85), ("decomposition", 248),
        ("formula-agreement", 44), ("adapters", 43), ("examples", 31)]
    assert sorted((r["suite"], f["case"]) for r in payload
                  for f in r["failures"]) == [
        ("adapters", "UG(3,2): published form = gsr"),
        ("adapters", "UG(3,3): published form = gsr"),
        ("examples", "UG(3,2): published form"),
        ("examples", "UG(3,3): published form")]


PINNED_STDOUT = [
    (("build", "--chains", "3,2,2"), 0, """\
product of chains [3, 2, 2]: 12 elements, 3 atoms, |Z*|=9, classes sizes 1,1,2,1,2,2
"""),
    (("build", "--chains", "1"), 0, """\
product of chains [1]: 1 elements, 0 atoms, |Z*|=0
"""),
    # no class lies strictly between bottom and top, so none is listed
    (("build", "--chains", "2"), 0, """\
product of chains [2]: 2 elements, 1 atoms, |Z*|=0
"""),
    (("build", "--chains", "3"), 0, """\
product of chains [3]: 3 elements, 1 atoms, |Z*|=0
"""),
    (("build", "--boolean", "1"), 0, """\
boolean 2^1: 2 elements, 1 atoms, |Z*|=0
"""),
    (("build", "--boolean", "2"), 0, """\
boolean 2^2: 4 elements, 2 atoms, |Z*|=2, classes sizes 1,1
"""),
    (("gstarstar", "--chains", "1"), 0, """\
G** of product of chains [1]: 0 vertices, 0 edges
"""),
    (("build", "--zn", "60"), 0, """\
comaximal ideal graph of Z_60: 9 vertices, 11 edges
"""),
    (("sdim", "--boolean", "2"), 0, """\
sdim of boolean 2^2 (|V|=2)
method   | value                     | witness
formula  | n<3: formula inapplicable | -
gsr      | 1                         | cover size 1
brute    | 1                         | set size 1
"""),
    (("sdim", "--mn", "4"), 0, """\
sdim of M_4 (|V|=4)
method   | value                  | witness
formula  | no closed form for M_n | -
gsr      | 3                      | cover size 3
brute    | 3                      | set size 3
"""),
    (("sdim", "--zn", "12"), 0, """\
sdim of comaximal ideal graph of Z_12 (|V|=3)
method   | value                          | witness
formula  | no closed sdim form for N = 12 | -
gsr      | 1                              | cover size 1
brute    | 1                              | set size 1
"""),
    (("sdim", "--fields", "3,2"), 0, """\
sdim of reduced ring fields 3,2 (|V|=3)
method   | value                     | witness
formula  | n<3: formula inapplicable | -
gsr      | 1                         | cover size 1
brute    | 1                         | set size 1
"""),
    (("sdim", "--local", "2,3,5"), 0, """\
sdim of comaximal graph of 2,3,5 (|V|=21)
method   | value                     | witness
formula  | 17                        | -
gsr      | 17                        | cover size 17
brute    | skipped (|V|=21 > cap 16) | -
"""),
    (("adapter", "--fields", "3,2,2", "--check"), 0, """\
reduced ring fields 3,2,2: 9 vertices, 11 edges
sdim via gsr: 5
closed form: 5 (agrees)
matches product-of-chains zero-divisor graph: True
"""),
    (("adapter", "--local", "3,5"), 0, """\
comaximal graph of 3,5: 6 vertices, 8 edges
sdim via gsr: 4
matches blow-up zero-divisor graph: True
"""),
    (("adapter", "--vspace", "n=3,q=2", "--check"), 2, """\
component union graph n=3 q=2: 7 vertices, 12 edges
sdim via gsr: 3
closed form: 6 (DISAGREES)
matches join of blow-up graph with K_t: True
"""),
    (("adapter", "--boolean", "3", "--check"), 0, """\
boolean 2^3: 6 vertices, 6 edges
sdim via gsr: 2
closed form: 2 (agrees)
"""),
    # empty vertex lists and one-atom blow-ups: the degenerate cases of the
    # prediction checks
    (("adapter", "--local", "2", "--check"), 0, """\
comaximal graph of 2: 0 vertices, 0 edges
sdim via gsr: 0
matches blow-up zero-divisor graph: True
"""),
    (("adapter", "--local", "2,3", "--check"), 0, """\
comaximal graph of 2,3: 3 vertices, 2 edges
sdim via gsr: 1
matches blow-up zero-divisor graph: True
"""),
    (("adapter", "--local", "2^2,2^2", "--check"), 0, """\
comaximal graph of 2^2,2^2: 8 vertices, 16 edges
sdim via gsr: 6
matches blow-up zero-divisor graph: True
"""),
    (("adapter", "--vspace", "n=1,q=2", "--check"), 0, """\
component union graph n=1 q=2: 1 vertices, 0 edges
sdim via gsr: 0
matches join of blow-up graph with K_t: True
"""),
    (("adapter", "--vspace", "n=1,q=5", "--check"), 0, """\
component union graph n=1 q=5: 4 vertices, 6 edges
sdim via gsr: 3
matches join of blow-up graph with K_t: True
"""),
    (("adapter", "--fields", "2", "--check"), 0, """\
reduced ring fields 2: 0 vertices, 0 edges
sdim via gsr: 0
matches product-of-chains zero-divisor graph: True
"""),
    (("adapter", "--zn", "4", "--check"), 0, """\
comaximal ideal graph of Z_4: 0 vertices, 0 edges
sdim via gsr: 0
matches dual ideal-lattice zero-divisor graph: True
"""),
]


def test_stdout_and_exit_codes_are_pinned(capsys, monkeypatch):
    # every input kind, each formula note, and the adapters' cross-check
    # lines; a change to any of them changes what scripts read
    monkeypatch.delenv("SDIM_BRUTE_CAP", raising=False)
    for argv, want_code, want_out in PINNED_STDOUT:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (want_code, want_out, ""), argv


@pytest.fixture
def fresh_parser():
    """`main` with no parser kept yet, and none kept after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_main_keeps_one_parser(capsys, monkeypatch, fresh_parser):
    parser, built = cli.build_parser, []

    def counted():
        built.append(None)
        return parser()
    monkeypatch.setattr(cli, "build_parser", counted)
    for argv in (("sdim", "--boolean", "3"), ("build", "--mn", "2"),
                 ("zdg", "--chains", "3,2"), ("sdim", "--boolean", "4")):
        assert run(capsys, *argv)[0] == 0
    assert len(built) == 1
    # the public builder still gives a fresh parser
    assert parser() is not parser()


def test_a_command_replaced_after_the_first_call_runs(capsys, monkeypatch,
                                                      fresh_parser):
    # the benchmark's tracer wraps cli.cmd_* once the parser is built
    assert run(capsys, "sdim", "--boolean", "3")[0] == 0
    seen = []

    def replaced(args):
        seen.append(args.boolean)
        return 7
    monkeypatch.setattr(cli, "cmd_sdim", replaced)
    assert run(capsys, "sdim", "--boolean", "3") == (7, "", "")
    assert seen == [3]


@pytest.mark.parametrize("bad", [
    ("sdim", "--boolean", "3", "--bogus"), ("sdim", "--boolean", "x"),
    ("sdim", "--boolean", "3", "--mn", "4"), ("sdim",),
    ("sdim", "--boolean", "3", "--method", "none"), ("frob",), ()])
def test_a_bad_flag_leaves_the_next_call_unchanged(capsys, fresh_parser, bad):
    good = ("sdim", "--boolean", "3", "--method", "all", "--check")
    first = run(capsys, *good)
    errors = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        captured = capsys.readouterr()
        errors.append((exc.value.code, captured.out, captured.err))
        assert run(capsys, *good) == first
    assert errors[0] == errors[1]
    code, out, err = errors[0]
    assert (code, out) == (2, "")
    assert err.startswith("usage: zdgdim") and "error: " in err


@pytest.mark.parametrize("argv", [
    ("--help",), ("build", "--help"), ("zdg", "--help"), ("gsr", "--help"),
    ("gstarstar", "--help"), ("adapter", "--help"), ("sdim", "--help"),
    ("verify", "--help")])
def test_help_text_is_that_of_a_fresh_parser(capsys, monkeypatch,
                                             fresh_parser, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    want = (exc.value.code, capsys.readouterr().out)
    assert want[0] == 0 and want[1].startswith("usage: zdgdim")
    run(capsys, "sdim", "--boolean", "3")
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert (exc.value.code, capsys.readouterr().out) == want
    if argv == ("--help",):
        assert "{build,zdg,gsr,gstarstar,adapter,sdim,verify}" in want[1]


class GraphBuilt(Exception):
    pass


@pytest.mark.parametrize("flag, value", [
    ("--boolean", "5"), ("--blowup", FIG3_JSON), ("--chains", "3,2,2"),
    ("--mn", "4"),
    ("--poset", '{"labels":["0","a","b","1"],"covers":[[0,1],[0,2],[1,3],'
                '[2,3]],"bottom":0,"top":3}')],
    ids=["boolean", "blowup", "chains", "mn", "poset"])
def test_build_and_the_formula_build_no_graph(capsys, monkeypatch, flag,
                                              value):
    # they read |V| and the lattice only; the output is that of a run
    # that built the graph
    commands = [("sdim", flag, value, "--method", "formula"),
                ("sdim", flag, value, "--method", "formula", "--json"),
                ("build", flag, value)]
    want = [run(capsys, *argv) for argv in commands]

    def refuse(self, labels, adj):
        raise GraphBuilt(len(labels))
    monkeypatch.setattr(SimpleGraph, "__init__", refuse)
    assert [run(capsys, *argv) for argv in commands] == want
    with pytest.raises(GraphBuilt):
        run(capsys, "sdim", flag, value, "--method", "gsr")


@pytest.mark.parametrize("flag, value", [
    ("--boolean", "1"), ("--boolean", "6"), ("--blowup", FIG3_JSON),
    ("--chains", "1"), ("--chains", "3,2,2"), ("--mn", "4"),
    ("--poset", '{"labels":["0"],"covers":[],"bottom":0,"top":0}'),
    ("--fields", "3,2,2"), ("--local", "2^2,3"), ("--zn", "60"),
    ("--vspace", "n=3,q=2")])
def test_vertex_count_is_that_of_the_graph(flag, value):
    res = cli.resolve_input(cli.build_parser().parse_args(["zdg", flag,
                                                          value]))
    assert res.vertex_count == res.graph.n


@pytest.mark.parametrize("flag, value, message", [
    ("--boolean", "17", "boolean 2^17 has 131072 elements"),
    ("--boolean", "20000", "boolean 2^20000 has at least 2^20000 elements"),
    ("--blowup", '{"n":3,"chains":{"001":200000}}',
     "blow-up of 2^3 has 200007 elements"),
    ("--chains", "400,400", "product of chains [400, 400] has 160000 elements"),
    ("--mn", "100000", "M_100000 has 100002 elements"),
    ("--poset", json.dumps({"labels": list(range(100001)), "covers": [],
                            "bottom": 0, "top": 1}),
     "poset has 100001 elements"),
    ("--fields", ",".join(["2"] * 17),
     " x ".join(["GF(2)"] * 17) + " has 131072 elements"),
    ("--local", "2,3,5,7,11,13,17",
     "Z_2 x Z_3 x Z_5 x Z_7 x Z_11 x Z_13 x Z_17 has 510510 elements"),
    ("--vspace", "n=11,q=3", "GF(3)^11 has 177147 elements"),
    ("--zn", "1000000000000", "Z_1000000000000 has 1000000000000 elements"),
    # the count 2^n or q^n is never built, nor is a huge field order or
    # prime tested for primality
    ("--boolean", "1000000000",
     "boolean 2^1000000000 has at least 2^1000000000 elements"),
    ("--vspace", "n=1000000000,q=2",
     "GF(2)^1000000000 has at least 2^1000000000 elements"),
    ("--vspace", "n=1000000,q=3",
     "GF(3)^1000000 has at least 2^1584962 elements"),
    ("--fields", "1000000000000000003,2,2",
     "GF(1000000000000000003) x GF(2) x GF(2) has 4000000000000000012 "
     "elements"),
    ("--local", "1000000000000000003,2,3",
     "Z_1000000000000000003 x Z_2 x Z_3 has 6000000000000000018 elements"),
    # nor 2^n of a huge blow-up, nor a modulus p^e over 64 bits, which is
    # named Z_(p^e)
    ("--blowup", '{"n":2000000000}',
     "blow-up of 2^2000000000 has at least 2^2000000000 elements"),
    ("--local", "2^100000,3,5",
     "Z_(2^100000) x Z_3 x Z_5 has at least 2^100003 elements"),
    ("--local", "2^1000000000,3",
     "Z_(2^1000000000) x Z_3 has at least 2^1000000001 elements"),
], ids=["boolean", "boolean-huge", "blowup", "chains", "mn", "poset",
        "fields", "local", "vspace", "zn", "boolean-exponent",
        "vspace-exponent", "vspace-exponent-q3", "fields-large-prime",
        "local-large-prime", "blowup-exponent", "local-huge-modulus",
        "local-exponent"])
def test_lattice_inputs_over_the_element_budget_fail_fast(capsys, flag, value,
                                                          message):
    # adapter inputs included: each input kind counts its elements and is
    # refused before anything is enumerated
    start = time.perf_counter()
    code, out, err = run(capsys, "sdim", flag, value)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {message}, over the element budget of 100000\n"


@pytest.mark.parametrize("value", ["1000000000000000003^0,2,3", "4^0,3"])
def test_local_exponent_below_one_is_refused_before_primality(capsys, value):
    # an exponent below 1 is refused before any trial division, which
    # takes minutes on the prime 10^18 + 3
    start = time.perf_counter()
    code, out, err = run(capsys, "sdim", "--local", value)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", "error: exponent 0 must be >= 1\n")


def test_zn_builds_the_comaximal_ideal_graph_once(capsys, monkeypatch):
    # the closed form counts the vertices from the factorisation of N; the
    # graph and the prediction check share one enumeration of the ideals
    calls = []
    enumerate_ideals = adapters._comaximal_ideal_vertices

    def counted(N):
        calls.append(N)
        return enumerate_ideals(N)
    monkeypatch.setattr(adapters, "_comaximal_ideal_vertices", counted)
    code, out, _ = run(capsys, "sdim", "--zn", "60")
    assert code == 0 and "formula  | 5 " in out
    assert calls == [60]


BIG = "1" + "0" * 5000


@pytest.mark.parametrize("flag, value", [
    ("--fields", f"{BIG},2"),
    ("--local", f"{BIG},3"),
    ("--local", f"2^{BIG},3"),
    ("--vspace", f"n={BIG},q=2"),
    ("--vspace", f"n=3,q={BIG}"),
    ("--chains", f"{BIG},2"),
    ("--blowup", f'{{"n":3,"chains":{{"001":{BIG}}}}}'),
    ("--poset", f'{{"labels":["0","1"],"covers":[[0,1]],"bottom":0,'
                f'"top":{BIG}}}'),
], ids=["fields", "local", "local-exponent", "vspace-n", "vspace-q",
        "chains", "blowup", "poset"])
def test_overlong_numbers_are_refused_as_input(capsys, flag, value):
    # Python converts no decimal string of more than 4300 digits; the error
    # names the flag, not the interpreter setting that lifts the limit
    code, out, err = run(capsys, "sdim", flag, value)
    assert (code, out) == (1, "")
    assert err == (f"error: {flag} has a number of 5001 digits, over the "
                   "limit of 4300\n")
    assert "set_int_max_str_digits" not in err


@pytest.mark.parametrize("pad", ["", "-", " +", "\t-"])
def test_the_digit_limit_counts_digits_not_signs_or_spaces(pad):
    # 4300 digits convert however a sign and whitespace pad them past 4300
    # characters; 4301 digits are refused with the count of digits alone
    text = f"{pad}{'7' * 4300} "
    assert _parse_int(text, "--chains") == int(text)
    with pytest.raises(ValueError) as err:
        _parse_int(f"{pad}{'7' * 4301} ", "--chains")
    assert str(err.value) == ("--chains has a number of 4301 digits, over "
                              "the limit of 4300")


@pytest.mark.parametrize("argv, env, message", [
    (["sdim", "--vspace", "n=3,q"], None,
     "--vspace wants n=..,q=.. (got 'n=3,q')"),
    (["sdim", "--vspace", "n=3=4,q=2"], None,
     "--vspace wants n=..,q=.. (got 'n=3=4,q=2')"),
    (["sdim", "--local", "2^3^4,3,5"], None,
     "--local wants P^E,.. (got '2^3^4,3,5')"),
    (["sdim", "--local", "2^,3,5"], None, "--local wants P^E,.. (got '2^,3,5')"),
    (["sdim", "--boolean", "3"], "abc",
     "SDIM_BRUTE_CAP wants an integer (got 'abc')"),
    (["sdim", "--fields", ""], None,
     "--fields wants a list of integers (got '')"),
    (["sdim", "--fields", ",,"], None,
     "--fields wants a list of integers (got ',,')"),
    (["sdim", "--chains", ""], None,
     "--chains wants a list of integers (got '')"),
    (["sdim", "--boolean", "3"], "-3",
     "SDIM_BRUTE_CAP wants a nonnegative integer (got '-3')"),
    (["verify", "--suite", ""], None,
     "--suite names an unknown suite ''; choose from " + ", ".join(SUITES)),
    (["sdim", "--blowup", '{"n":3,"chains":[]}'], None,
     "malformed blow-up spec: field 'chains' must be an object (got [])"),
    (["sdim", "--blowup", '{"n":3,"chains":null}'], None,
     "malformed blow-up spec: field 'chains' must be an object (got None)"),
    (["sdim", "--blowup", "{}"], None, "malformed blow-up spec: no field 'n'"),
    # JSON true is a Python int
    (["sdim", "--blowup", '{"n":true}'], None,
     "blow-up spec field 'n' must be an integer"),
    (["sdim", "--blowup", '{"n":3,"chains":{"001":true}}'], None,
     "chain size for mask 1 must be an integer (got True)"),
    (["sdim", "--blowup", '{"n":3,"chains":{"001":2.0}}'], None,
     "chain size for mask 1 must be an integer (got 2.0)"),
    (["sdim", "--blowup", "[1]"], None,
     "malformed blow-up spec: a spec is a JSON object (got [1])"),
    (["sdim", "--blowup", "3"], None,
     "malformed blow-up spec: a spec is a JSON object (got 3)"),
    (["sdim", "--blowup", '"x"'], None,
     "malformed blow-up spec: a spec is a JSON object (got 'x')"),
    (["build", "--poset", "[1]"], None,
     "malformed poset JSON: a poset is a JSON object (got [1])"),
    (["build", "--poset", "3"], None,
     "malformed poset JSON: a poset is a JSON object (got 3)"),
    (["build", "--poset", '"x"'], None,
     "malformed poset JSON: a poset is a JSON object (got 'x')"),
    (["build", "--poset", '{"labels":["a","b"]}'], None,
     "malformed poset JSON: no field 'covers'"),
    (["build", "--poset", '{"labels":["a","b"],"covers":[[0,1]],"top":1}'],
     None, "malformed poset JSON: no field 'bottom'"),
    # a string would be split into one label per character
    (["build", "--poset",
      '{"labels":"abc","covers":[[0,1],[1,2]],"bottom":0,"top":2}'], None,
     "malformed poset JSON: field 'labels' must be a list (got 'abc')"),
    (["build", "--poset",
      '{"labels":["a","b"],"covers":{"0":1},"bottom":0,"top":1}'], None,
     "malformed poset JSON: field 'covers' must be a list (got {'0': 1})"),
    (["build", "--poset",
      '{"labels":["a","b"],"covers":[[0]],"bottom":0,"top":1}'], None,
     "malformed poset JSON: a cover is a pair of indices (got [0])"),
    (["build", "--poset",
      '{"labels":["a","b"],"covers":[1],"bottom":0,"top":1}'], None,
     "malformed poset JSON: a cover is a pair of indices (got 1)"),
], ids=["vspace-missing-value", "vspace-two-values", "local-two-exponents",
        "local-empty-exponent", "brute-cap", "fields-empty", "fields-commas",
        "chains-empty", "brute-cap-negative", "suite-empty",
        "blowup-chains-list", "blowup-chains-null", "blowup-no-n",
        "blowup-n-bool", "blowup-size-bool", "blowup-size-float",
        "blowup-list", "blowup-number", "blowup-string", "poset-list",
        "poset-number", "poset-string", "poset-no-covers", "poset-no-bottom",
        "poset-labels-string", "poset-covers-object", "poset-cover-single",
        "poset-cover-number"])
def test_parse_errors_name_their_flag(capsys, monkeypatch, argv, env, message):
    # the message names the flag or variable and its form, not the Python
    # exception that the parse raised
    if env is not None:
        monkeypatch.setenv("SDIM_BRUTE_CAP", env)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("index", ["-1", "true", "1.0", "4"])
def test_poset_json_indices_must_be_in_range(capsys, index):
    # -1 would name the last label and true the label at index 1
    poset = ('{"labels":["0","a","b","1"],"covers":[[0,1],[0,2],[1,%s],'
             '[2,3]],"bottom":0,"top":3}' % index)
    code, out, err = run(capsys, "build", "--poset", poset)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed poset JSON: index ")
