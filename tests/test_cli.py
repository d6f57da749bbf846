from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from gmbound import bounds, cli
from gmbound.bounds import (
    DEFAULT_ASSIGNMENT_CAP,
    TheoremInapplicable,
    best_bound,
    bound_general,
    bound_regular,
    bound_tree,
)
from gmbound.gl2 import is_plus_minus_h
from gmbound.graph import graph_from_json, graph_to_json, normalize_all
from gmbound.oracle import MinFResult, bruteforce_min_f
from sample_graphs import h_loops

FIXTURES = Path(__file__).parent / "fixtures"

# inputs that must end in a parse error (exit 2), not in a traceback
HOSTILE = {
    "huge_int": ('{"vertices": [{"id": "v1", "g": ' + "9" * 5000 + ', "fibres": [], "b": 0}],'
                 ' "edges": []}').encode(),
    "deep": b"[" * 100_000 + b"]" * 100_000,
    # a valid graph once decoded as Latin-1, which a graph file must not be
    "not_utf8": (FIXTURES / "regular_pair.json").read_text().replace('"v1"', '"v\u00e9"').encode("latin-1"),
}

# valid graphs holding 4300-digit integers, the longest a graph file may hold;
# their bound, or a b after normalizing, is longer than Python converts to a
# string by default
BIG = 10**4300 - 1
LONG_BOUND = json.dumps({
    "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                 {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": -2}],
    "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[BIG - 1, BIG], [1, 1]]}],
})
LONG_DET = json.dumps({  # determinant 10^8598 - 1
    "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                 {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0}],
    "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[10**4299, 1], [1, 10**4299]]}],
})
# 5600 H-loops on one piece: the search needs 6^5600 labelings, a 4358-digit count
LONG_CAP_MESSAGE = "cap exceeded: assignment search needs a 4358-digit number > cap 1048576 assignments"
LONG_SHIFT = json.dumps({  # normalizing moves each edge by k = -BIG at v1
    "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                 {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0}],
    "edges": [{"id": eid, "from": "v1", "to": "v2", "matrix": [[BIG, 1], [1, 0]]}
              for eid in ("e1", "e2")],
})

LONG_MINF = json.dumps({  # one H-edge between two pieces with b = -BIG
    "vertices": [{"id": vid, "g": 0, "fibres": [[2, 1], [2, 1]], "b": -BIG} for vid in ("v1", "v2")],
    "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[0, 1], [1, 0]]}],
})

# a non-normalized edge whose id is a lone surrogate, which JSON allows and
# no UTF-8 stream can encode
LONE_SURROGATE = json.dumps({
    "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0},
                 {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": 0}],
    "edges": [{"id": "\ud800", "from": "v1", "to": "v2", "matrix": [[3, 2], [2, 1]]}],
})
H_PAIR_BLOCK = "ok\ntheorem: tree\nbound: 7\n\n"


def _report_text(report, breakdown: bool = False) -> str:
    """What `bound` prints for a report, written with every digit."""
    with cli._all_digits():
        text = f"theorem: {report.theorem}\nbound: {report.total}\n"
        if breakdown:
            text += "breakdown:\n" + json.dumps(report.to_json_dict(), indent=2) + "\n"
    return text


def run_cli(*args: str, env_extra: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("MC_MAX_ASSIGNMENTS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gmbound", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_validate_ok():
    result = run_cli("validate", str(FIXTURES / "regular_pair.json"))
    assert result.returncode == 0
    assert result.stdout.strip() == "ok"


def test_validate_prints_loop_note():
    result = run_cli("validate", str(FIXTURES / "single_loop.json"))
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("note e1:")
    assert lines[-1] == "ok"


@pytest.mark.parametrize("text, expected", [
    pytest.param((FIXTURES / "invalid_h_pair.json").read_text(),
                 "(ii)(a) e1: +-H gluing of two (2,1)(2,1) disk pieces with b = (0, 0)\n",
                 id="invalid_h_pair"),
    # an H-edge from v2 to v1 between two degree-1 (0,1,(2,1),(2,1),-1)
    # pieces: exclusion (i) visits its ends source first
    pytest.param(
        json.dumps({
            "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [2, 1]], "b": -1},
                         {"id": "v2", "g": 0, "fibres": [[2, 1], [2, 1]], "b": -1}],
            "edges": [{"id": "e1", "from": "v2", "to": "v1", "matrix": [[0, 1], [1, 0]]}],
        }),
        "(i) e1: +-H gluing touches vertex v2, a (0,1,(2,1),(2,1),-1) piece\n"
        "(i) e1: +-H gluing touches vertex v1, a (0,1,(2,1),(2,1),-1) piece\n",
        id="reversed_h"),
])
def test_validate_invalid(tmp_path, text, expected):
    path = tmp_path / "graph.json"
    path.write_text(text)
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert result.stdout == expected


def test_validate_label_messages_pinned(tmp_path):
    # one edge per way a label can break the contract: det +1, beta = 0, outside the window
    path = tmp_path / "bad_labels.json"
    path.write_text(json.dumps({
        "vertices": [{"id": "v1", "g": 0, "fibres": [[2, 1], [3, 1]], "b": 0},
                     {"id": "v2", "g": 0, "fibres": [[2, 1], [3, 1]], "b": 0}],
        "edges": [{"id": "e1", "from": "v1", "to": "v2", "matrix": [[1, 1], [0, 1]]},
                  {"id": "e2", "from": "v2", "to": "v1", "matrix": [[1, 0], [0, -1]]},
                  {"id": "e3", "from": "v1", "to": "v2", "matrix": [[5, 3], [2, 1]]}],
    }))
    result = run_cli("validate", str(path))
    assert result.returncode == 1
    assert result.stdout == (
        "normalization e1: matrix determinant must be -1, got 1\n"
        "normalization e2: matrix has beta = 0: the gluing matches fibres,"
        " so the decomposition is non-minimal\n"
        "normalization e3: matrix is not normalized\n"
    )


def test_validate_output_does_not_depend_on_hash_seed(tmp_path):
    # an H-edge between two degree-1 (0,1,(2,1),(2,1),-1) pieces breaks (i) at both ends
    piece = {"g": 0, "fibres": [[2, 1], [2, 1]], "b": -1}
    path = tmp_path / "half_disks.json"
    path.write_text(json.dumps({
        "vertices": [dict(piece, id="a"), dict(piece, id="b")],
        "edges": [{"id": "e1", "from": "a", "to": "b", "matrix": [[0, 1], [1, 0]]}],
    }))
    outputs = set()
    for seed in range(8):
        result = run_cli("validate", str(path), env_extra={"PYTHONHASHSEED": str(seed)})
        assert result.returncode == 1
        outputs.add(result.stdout)
    assert outputs == {
        "(i) e1: +-H gluing touches vertex a, a (0,1,(2,1),(2,1),-1) piece\n"
        "(i) e1: +-H gluing touches vertex b, a (0,1,(2,1),(2,1),-1) piece\n"
    }


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "parse error" in result.stderr
    result = run_cli("validate", str(tmp_path / "missing.json"))
    assert result.returncode == 2


def test_bound_values():
    for name, expected in (
        ("regular_pair.json", ("regular", 8)),
        ("single_loop.json", ("regular", 9)),
        ("h_pair.json", ("tree", 7)),
        ("parallel_h.json", ("general", 12)),
    ):
        result = run_cli("bound", str(FIXTURES / name))
        assert result.returncode == 0, result.stderr
        theorem, bound = result.stdout.splitlines()[:2]
        assert theorem == f"theorem: {expected[0]}"
        assert bound == f"bound: {expected[1]}"


def test_bound_rejects_invalid_graph():
    result = run_cli("bound", str(FIXTURES / "invalid_h_pair.json"))
    assert result.returncode == 1
    assert "(ii)(a)" in result.stderr


def test_bound_explicit_theorem_mismatch():
    result = run_cli("bound", "--theorem", "regular", str(FIXTURES / "h_pair.json"))
    assert result.returncode == 1
    assert "inapplicable" in result.stderr
    result = run_cli("bound", "--theorem", "tree", str(FIXTURES / "parallel_h.json"))
    assert result.returncode == 1


def test_bound_explicit_theorem_match():
    result = run_cli("bound", "--theorem", "general", str(FIXTURES / "h_pair.json"))
    assert result.returncode == 0
    assert "bound: 7" in result.stdout


def test_bound_normalize_first():
    result = run_cli("bound", str(FIXTURES / "non_normalized.json"))
    assert result.returncode == 1  # normalization violation without the flag
    result = run_cli("bound", "--normalize-first", str(FIXTURES / "non_normalized.json"))
    assert result.returncode == 0, result.stderr
    assert "bound: 9" in result.stdout
    assert "edge e1: k=-1, h=0" in result.stderr


def test_bound_breakdown_json():
    result = run_cli("bound", "--breakdown", str(FIXTURES / "parallel_h.json"))
    assert result.returncode == 0
    payload = result.stdout.split("breakdown:\n", 1)[1]
    doc = json.loads(payload)
    assert doc["total"] == 12
    assert doc["witness"]["tree"] == ["e1"]
    assert doc["terms"]["phi"] == 1


def test_bound_assignment_cap_flag_and_env():
    result = run_cli("bound", "--max-assignments", "1", str(FIXTURES / "h_pair.json"))
    assert result.returncode == 3
    assert "cap exceeded" in result.stderr
    result = run_cli("bound", str(FIXTURES / "h_pair.json"), env_extra={"MC_MAX_ASSIGNMENTS": "1"})
    assert result.returncode == 3
    # explicit flag wins over the environment
    result = run_cli(
        "bound", "--max-assignments", "4", str(FIXTURES / "h_pair.json"),
        env_extra={"MC_MAX_ASSIGNMENTS": "1"},
    )
    assert result.returncode == 0
    # negative or non-integer caps are usage errors, even where no search runs
    result = run_cli("bound", "--max-assignments", "-1", str(FIXTURES / "regular_pair.json"))
    assert result.returncode == 2
    assert "argument --max-assignments: must be a non-negative integer" in result.stderr
    # the tree cap is gone: the assignment cap bounds the tree scan too
    result = run_cli("bound", "--max-trees", "5", str(FIXTURES / "regular_pair.json"))
    assert result.returncode == 2
    assert "unrecognized arguments: --max-trees" in result.stderr
    for value in ("x", "-1"):
        result = run_cli("bound", str(FIXTURES / "regular_pair.json"),
                         env_extra={"MC_MAX_ASSIGNMENTS": value})
        assert result.returncode == 2
        assert "MC_MAX_ASSIGNMENTS must be a non-negative integer" in result.stderr
        assert "parse error" not in result.stderr


def test_every_search_reads_the_budget_from_the_environment(tmp_path):
    for name in ("h_pair.json", "regular_pair.json"):
        (tmp_path / name).write_text((FIXTURES / name).read_text())
    result = run_cli("batch", str(tmp_path), env_extra={"MC_MAX_ASSIGNMENTS": "1"})
    assert result.returncode == 3
    blocks = result.stdout.strip().split("\n\n")
    assert blocks[0].splitlines()[0] == "== h_pair.json"
    assert "cap exceeded: assignment search needs 2 > cap 1 assignments" in blocks[0]
    assert blocks[1].splitlines()[0] == "== regular_pair.json"
    assert "bound: 8" in blocks[1]
    result = run_cli("oracle", "minf", str(FIXTURES / "h_pair.json"), env_extra={"MC_MAX_ASSIGNMENTS": "1"})
    assert result.returncode == 3
    assert "cap exceeded" in result.stderr
    for command in ("batch", "oracle minf"):
        result = run_cli(*command.split(), str(FIXTURES / "h_pair.json"), env_extra={"MC_MAX_ASSIGNMENTS": "x"})
        assert result.returncode == 2
        assert "MC_MAX_ASSIGNMENTS must be a non-negative integer" in result.stderr


def test_a_cap_may_have_any_number_of_digits():
    # 4301 digits, more than Python converts from a string by default
    cap = "9" * 4301
    default = run_cli("bound", str(FIXTURES / "parallel_h.json"))
    assert default.returncode == 0
    for result in (run_cli("bound", "--max-assignments", cap, str(FIXTURES / "parallel_h.json")),
                   run_cli("bound", str(FIXTURES / "parallel_h.json"), env_extra={"MC_MAX_ASSIGNMENTS": cap})):
        assert (result.returncode, result.stdout, result.stderr) == (0, default.stdout, "")


def test_commands_that_do_not_search_ignore_the_budget():
    env = {"MC_MAX_ASSIGNMENTS": "x"}
    assert run_cli("validate", str(FIXTURES / "regular_pair.json"), env_extra=env).returncode == 0
    assert run_cli("normalize", str(FIXTURES / "regular_pair.json"), env_extra=env).returncode == 0
    assert run_cli("oracle", "phi", str(FIXTURES / "parallel_h.json"), env_extra=env).returncode == 0


def test_oracle_minf_gives_both_sides_the_budget(monkeypatch, capsys):
    # a budget raised above the default must reach the exhaustive search too
    caps = []

    def exhaustive(g, mode, assignment_cap):
        caps.append(assignment_cap)
        return bruteforce_min_f(g, mode, assignment_cap=assignment_cap)

    monkeypatch.setattr("gmbound.oracle.bruteforce_min_f", exhaustive)
    monkeypatch.setenv("MC_MAX_ASSIGNMENTS", str(10**7))
    assert cli.main(["oracle", "minf", str(FIXTURES / "parallel_h.json")]) == 0
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS")
    assert cli.main(["oracle", "minf", str(FIXTURES / "parallel_h.json")]) == 0
    assert caps == [10**7, DEFAULT_ASSIGNMENT_CAP]
    assert "witnesses equal" in capsys.readouterr().out


def test_bound_deterministic_output():
    first = run_cli("bound", "--breakdown", str(FIXTURES / "parallel_h.json"))
    second = run_cli("bound", "--breakdown", str(FIXTURES / "parallel_h.json"))
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_normalize_writes_canonical_json(tmp_path):
    result = run_cli("normalize", str(FIXTURES / "non_normalized.json"))
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["edges"][0]["matrix"] == [[2, 3], [1, 1]]
    assert {v["id"]: v["b"] for v in doc["vertices"]} == {"v1": -1, "v2": 0}
    # piping the output back through normalize is a fixed point
    out = tmp_path / "normalized.json"
    out.write_text(result.stdout)
    second = run_cli("normalize", str(out))
    assert second.stdout == result.stdout
    assert "already normalized" in second.stderr


def test_oracle_lemma():
    result = run_cli("oracle", "lemma", "6")
    assert result.returncode == 0
    assert "verified" in result.stdout


@pytest.mark.parametrize("beta_max", ["1", "-3", "x"])
def test_oracle_lemma_needs_a_beta_max_of_at_least_2(beta_max):
    # below 2 there is no normalized matrix to check, so nothing was verified
    result = run_cli("oracle", "lemma", "--", beta_max)
    assert result.returncode == 2
    assert f"argument beta_max: must be an integer >= 2, got {beta_max!r}" in result.stderr
    assert "verified" not in result.stdout


def test_oracle_phi():
    result = run_cli("oracle", "phi", str(FIXTURES / "parallel_h.json"))
    assert result.returncode == 0
    assert result.stdout.strip() == "Phi = 1 (greedy = brute force)"


def test_oracle_minf():
    result = run_cli("oracle", "minf", str(FIXTURES / "h_pair.json"))
    assert result.returncode == 0
    assert "min penalty sum = 1" in result.stdout
    assert "tree bookkeeping" in result.stdout
    result = run_cli("oracle", "minf", str(FIXTURES / "parallel_h.json"))
    assert result.returncode == 0
    assert "general bookkeeping" in result.stdout


def test_oracle_minf_compares_witnesses(monkeypatch, capsys):
    # same value as production, other witnesses: still a disagreement
    monkeypatch.setattr("gmbound.oracle.bruteforce_min_f",
                        lambda g, mode, assignment_cap: MinFResult(0, ("e2",), (("e2", "+"),), (("e1", "++"),)))
    assert cli.main(["oracle", "minf", str(FIXTURES / "parallel_h.json")]) == 4
    out = capsys.readouterr().out
    assert "DISAGREEMENT: production tree = ('e1',), exhaustive tree = ('e2',)" in out
    assert "production min" not in out


def test_batch_over_fixtures():
    result = run_cli("batch", str(FIXTURES))
    # the fixture set deliberately contains invalid graphs
    assert result.returncode == 1
    blocks = result.stdout.strip().split("\n\n")
    assert len(blocks) == len(list(FIXTURES.glob("*.json")))
    joined = result.stdout
    assert "== regular_pair.json" in joined
    assert "bound: 8" in joined
    assert "== invalid_h_pair.json" in joined
    assert "(ii)(a)" in joined


def test_batch_missing_directory(tmp_path):
    result = run_cli("batch", str(tmp_path / "nowhere"))
    assert result.returncode == 2


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_is_a_parse_error(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_bytes(HOSTILE[name])
    for command in ("bound", "validate"):
        result = run_cli(command, str(path))
        assert result.returncode == 2
        assert "parse error" in result.stderr
        assert "Traceback" not in result.stderr


def test_batch_goes_on_after_a_bad_file(tmp_path):
    (tmp_path / "a.json").write_text((FIXTURES / "regular_pair.json").read_text())
    (tmp_path / "b.json").write_bytes(HOSTILE["deep"])
    (tmp_path / "c.json").write_text((FIXTURES / "h_pair.json").read_text())
    result = run_cli("batch", str(tmp_path))
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    blocks = result.stdout.strip().split("\n\n")
    assert [b.splitlines()[0] for b in blocks] == ["== a.json", "== b.json", "== c.json"]
    assert "bound: 8" in blocks[0]
    assert blocks[1].splitlines()[1].startswith("parse error: ")
    assert "bound: 7" in blocks[2]


def test_bound_prints_every_digit(tmp_path):
    path = tmp_path / "long_bound.json"
    path.write_text(LONG_BOUND)
    report = best_bound(graph_from_json(LONG_BOUND))
    assert report.total > 10**4300
    for flags in ((), ("--breakdown",)):
        result = run_cli("bound", *flags, str(path))
        assert result.returncode == 0, result.stderr
        assert result.stdout == _report_text(report, bool(flags))


def test_batch_goes_on_after_a_long_bound(tmp_path):
    (tmp_path / "a.json").write_text(LONG_BOUND)
    (tmp_path / "h_pair.json").write_text((FIXTURES / "h_pair.json").read_text())
    result = run_cli("batch", str(tmp_path))
    assert result.returncode == 0, result.stderr
    blocks = result.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    report = best_bound(graph_from_json(LONG_BOUND))
    assert blocks[0] == "== a.json\nok\n" + _report_text(report).rstrip("\n")
    assert blocks[1].splitlines()[0] == "== h_pair.json"
    assert "bound: 7" in blocks[1]


def test_normalize_prints_long_b_shifts(tmp_path):
    path = tmp_path / "long_shift.json"
    path.write_text(LONG_SHIFT)
    result = run_cli("normalize", str(path))
    assert result.returncode == 0, result.stderr
    with cli._all_digits():
        doc = json.loads(result.stdout)
    assert {v["id"]: v["b"] for v in doc["vertices"]} == {"v1": -2 * BIG, "v2": 0}
    assert [e["matrix"] for e in doc["edges"]] == [[[0, 1], [1, 0]]] * 2
    assert f"edge e2: k={-BIG}, h=0" in result.stderr
    result = run_cli("bound", "--normalize-first", str(path))
    assert result.returncode == 0, result.stderr
    normalized, _ = normalize_all(graph_from_json(LONG_SHIFT))
    assert result.stdout == _report_text(best_bound(normalized))


def test_oracle_minf_prints_every_digit(tmp_path):
    path = tmp_path / "long_minf.json"
    path.write_text(LONG_MINF)
    result = run_cli("oracle", "minf", str(path))
    assert result.returncode == 0, result.stderr
    assert "Traceback" not in result.stderr
    with cli._all_digits():
        expected = (f"min penalty sum = {2 * BIG - 4}, witnesses equal"
                    " (exhaustive = production, tree bookkeeping)\n")
    assert result.stdout == expected


def test_bound_reports_a_long_cap_count(tmp_path):
    path = tmp_path / "h_loops.json"
    path.write_text(graph_to_json(h_loops(5600)))
    result = run_cli("bound", str(path))
    assert result.returncode == 3
    assert result.stderr.splitlines()[-1] == LONG_CAP_MESSAGE
    assert "Traceback" not in result.stderr


def test_batch_goes_on_after_a_long_cap_count(tmp_path):
    (tmp_path / "a.json").write_text(graph_to_json(h_loops(5600)))
    (tmp_path / "b.json").write_text((FIXTURES / "h_pair.json").read_text())
    result = run_cli("batch", str(tmp_path))
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    blocks = result.stdout.strip().split("\n\n")
    assert len(blocks) == 2
    assert blocks[0].splitlines()[-2:] == ["ok", LONG_CAP_MESSAGE]
    assert blocks[1] == "== b.json\nok\ntheorem: tree\nbound: 7"


def test_long_determinant_is_a_parse_error(tmp_path):
    path = tmp_path / "long_det.json"
    path.write_text(LONG_DET)
    for command in ("validate", "bound"):
        result = run_cli(command, str(path))
        assert result.returncode == 2
        # the message names the determinant's length, not Python's digit limit
        assert result.stderr == "parse error: edge 'e1': determinant must be +1 or -1, got a 8598-digit number\n"


def test_normalize_errors_name_the_edge(tmp_path):
    path = tmp_path / "det_plus_one.json"
    path.write_text((FIXTURES / "regular_pair.json").read_text().replace("[[1, 2], [1, 1]]", "[[1, 1], [0, 1]]"))
    expected = "cannot normalize: edge 'e1': matrix determinant must be -1, got 1\n"
    for args in (("normalize",), ("bound", "--normalize-first")):
        result = run_cli(*args, str(path))
        assert result.returncode == 1
        assert result.stderr == expected


def test_readme_lists_the_bound_options():
    # the flags under `gmbound bound` in the README's CLI block are the parser's
    block = (Path(__file__).parent.parent / "README.md").read_text().split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    listed, under_bound = set(), False
    for line in block.splitlines():
        if line.startswith("gmbound "):
            under_bound = line.startswith("gmbound bound ")
        elif under_bound and line.lstrip().startswith("--"):
            listed.add(line.split()[0])
    commands = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {flag for action in commands.choices["bound"]._actions if action.dest != "help"
               for flag in action.option_strings}
    assert listed == defined


def test_readme_python_runs_as_written(tmp_path):
    # every ```python block of the README runs in a fresh interpreter (src/
    # is on PYTHONPATH, see conftest.py) beside a graph.json that is the
    # parallel_h fixture; the library example prints its theorem and total
    # first and loads no checking code
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    blocks = [textwrap.dedent(part.split("```", 1)[0]) for part in readme.split("```python\n")[1:]]
    library = readme.split("## Library\n\n```python\n", 1)[1].split("```", 1)[0]
    assert library in blocks
    (tmp_path / "graph.json").write_text((FIXTURES / "parallel_h.json").read_text())
    for block in blocks:
        code = block + "import sys\nprint('gmbound.oracle' in sys.modules)\n"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path)
        assert result.returncode == 0, block + result.stderr
        if block == library:
            assert result.stdout.startswith("general 12\n")
            assert result.stdout.endswith("False\n")


@pytest.mark.parametrize("theorem, fixture, message", [
    ("regular", "h_pair.json", "regular evaluator needs a graph without +-H edges, found ['e1']"),
    ("tree", "parallel_h.json", "tree evaluator needs every +-H edge inside one spanning tree"),
])
def test_inapplicable_refusals_pinned(theorem, fixture, message):
    result = run_cli("bound", "--theorem", theorem, str(FIXTURES / fixture))
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == f"inapplicable: {message}\n"


def test_bound_parse_error_pinned(tmp_path):
    path = tmp_path / "cut.json"
    path.write_text('{"vertices": [')
    result = run_cli("bound", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "parse error: invalid JSON: Expecting value: line 1 column 15 (char 14)\n"


def test_batch_refusals_pinned(tmp_path):
    # one file per way batch ends a block: ok, parse error, invalid, cap exceeded
    (tmp_path / "a.json").write_text((FIXTURES / "h_pair.json").read_text())
    (tmp_path / "b.json").write_text('{"vertices": [')
    (tmp_path / "c.json").write_text((FIXTURES / "invalid_h_pair.json").read_text())
    (tmp_path / "d.json").write_text(graph_to_json(h_loops(12)))
    result = run_cli("batch", str(tmp_path))
    assert result.returncode == 3
    assert result.stderr == ""
    assert result.stdout == (
        "== a.json\n" + H_PAIR_BLOCK
        + "== b.json\nparse error: invalid JSON: Expecting value: line 1 column 15 (char 14)\n\n"
        "== c.json\n(ii)(a) e1: +-H gluing of two (2,1)(2,1) disk pieces with b = (0, 0)\n\n"
        "== d.json\n"
        + "".join(f"note e{i:05d}: loop edge (admitted; never part of a spanning tree)\n" for i in range(12))
        + "ok\ncap exceeded: assignment search needs 2176782336 > cap 1048576 assignments\n\n"
    )


def test_unencodable_messages_print_as_escapes(tmp_path):
    path = tmp_path / "lone_surrogate.json"
    path.write_text(LONE_SURROGATE)
    result = run_cli("validate", str(path), env_extra={"PYTHONIOENCODING": "utf-8"})
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stdout == "normalization \\ud800: matrix is not normalized\n"


def test_batch_prints_an_undecodable_file_name_as_an_escape(tmp_path):
    try:
        with open(os.path.join(os.fsencode(tmp_path), b"\xff.json"), "wb") as out:
            out.write((FIXTURES / "h_pair.json").read_bytes())
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    result = run_cli("batch", str(tmp_path), env_extra={"PYTHONIOENCODING": "utf-8"})
    assert result.returncode == 0, result.stderr
    assert result.stdout == "== \\udcff.json\n" + H_PAIR_BLOCK


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_a_closed_stdout_ends_the_run_by_sigpipe(tmp_path):
    # 1500 blocks of 47 bytes: more than a 64 KiB pipe holds, so the run
    # cannot finish before the reader closes its end
    text = (FIXTURES / "h_pair.json").read_text()
    for i in range(1500):
        (tmp_path / f"h_pair_{i:04d}.json").write_text(text)
    env = dict(os.environ)
    env.pop("MC_MAX_ASSIGNMENTS", None)
    with subprocess.Popen([sys.executable, "-m", "gmbound", "batch", str(tmp_path)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, bufsize=0, env=env) as proc:
        assert proc.stdout.readline() == b"== h_pair_0000.json\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in stderr



# every fixture under every --theorem label, with the labels that apply to
# each valid one (non_normalized.json is bounded with --normalize-first);
# invalid_h_pair.json is refused under every label
EVALUATORS = {
    "auto": best_bound,
    "regular": lambda g, assignment_cap: bound_regular(g),
    "tree": bound_tree,
    "general": bound_general,
}
APPLIES = {
    "h_pair.json": {"auto", "tree", "general"},
    "non_normalized.json": set(EVALUATORS),
    "parallel_h.json": {"auto", "general"},
    "regular_pair.json": set(EVALUATORS),
    "single_loop.json": set(EVALUATORS),
}


@pytest.mark.parametrize("name, theorem", [
    (path.name, theorem) for path in sorted(FIXTURES.glob("*.json")) for theorem in EVALUATORS])
def test_bound_under_each_label_prints_its_evaluator_report(monkeypatch, capsys, name, theorem):
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS", raising=False)
    flags = ["--normalize-first"] if name == "non_normalized.json" else []
    code = cli.main(["bound", "--theorem", theorem, "--breakdown", *flags, str(FIXTURES / name)])
    out, err = capsys.readouterr()
    if name == "invalid_h_pair.json":
        assert (code, out) == (1, "")
        assert err.startswith("(ii)(a) e1:")
        assert err.endswith("graph is not valid; see messages above\n")
        return
    g = graph_from_json((FIXTURES / name).read_text())
    if flags:
        g = normalize_all(g)[0]
    if theorem not in APPLIES[name]:
        with pytest.raises(TheoremInapplicable) as refusal:
            EVALUATORS[theorem](g, assignment_cap=DEFAULT_ASSIGNMENT_CAP)
        assert (code, out) == (1, "")
        assert err.splitlines()[-1] == f"inapplicable: {refusal.value}"
        return
    report = EVALUATORS[theorem](g, assignment_cap=DEFAULT_ASSIGNMENT_CAP)
    assert code == 0
    assert out == (f"theorem: {report.theorem}\nbound: {report.total}\nbreakdown:\n"
                   + json.dumps(report.to_json_dict(), indent=2) + "\n")


@pytest.mark.parametrize("theorem", ["tree", "general"])
def test_an_explicit_label_keeps_the_budget(monkeypatch, capsys, theorem):
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS", raising=False)
    code = cli.main(["bound", "--theorem", theorem, "--max-assignments", "1", str(FIXTURES / "h_pair.json")])
    assert code == 3
    assert capsys.readouterr() == ("", "cap exceeded: assignment search needs 2 > cap 1 assignments\n")


def test_the_regular_label_searches_nothing_so_ignores_the_budget(monkeypatch, capsys):
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS", raising=False)
    code = cli.main(["bound", "--theorem", "regular", "--max-assignments", "0", str(FIXTURES / "regular_pair.json")])
    assert code == 0
    assert capsys.readouterr() == ("theorem: regular\nbound: 8\n", "")


@pytest.mark.parametrize("name", sorted(set(APPLIES) - {"non_normalized.json"}))
def test_oracle_minf_agrees_on_every_valid_fixture(monkeypatch, capsys, name):
    # regular_pair and single_loop run tree bookkeeping on a graph without H-edges
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS", raising=False)
    assert cli.main(["oracle", "minf", str(FIXTURES / name)]) == 0
    assert "witnesses equal" in capsys.readouterr().out


def test_oracle_minf_gives_the_production_side_the_budget(monkeypatch, capsys):
    # a graph that only a cap above the default admits takes the exhaustive
    # side over a million labelings, so a recorder shows the cap instead
    caps = []

    def production(g, theorem, assignment_cap):
        caps.append(assignment_cap)
        return bounds._bound(g, theorem, assignment_cap)

    monkeypatch.setattr(cli, "_bound", production)
    monkeypatch.setenv("MC_MAX_ASSIGNMENTS", str(10**7))
    assert cli.main(["oracle", "minf", str(FIXTURES / "parallel_h.json")]) == 0
    assert caps == [10**7]
    assert "witnesses equal" in capsys.readouterr().out


def test_every_command_classifies_each_edge_once(monkeypatch, capsys, tmp_path):
    # a graph keeps its graph._split, so validate, the bound and oracle
    # phi's and minf's Phi all read one classification of each edge; batch
    # splits each file's graph once
    monkeypatch.delenv("MC_MAX_ASSIGNMENTS", raising=False)
    one = FIXTURES / "parallel_h.json"
    pair = [FIXTURES / "h_pair.json", one]
    for path in pair:
        (tmp_path / path.name).write_text(path.read_text())
    # each command, and the graph files it reads
    runs = [
        (["validate", str(one)], [one]),
        (["bound", str(one)], [one]),
        (["bound", "--normalize-first", "--breakdown", str(one)], [one]),
        (["oracle", "phi", str(one)], [one]),
        (["oracle", "minf", str(one)], [one]),
        (["batch", str(tmp_path)], pair),
    ]
    calls = []

    def counting(m):
        calls.append(m)
        return is_plus_minus_h(m)

    monkeypatch.setattr("gmbound.graph.is_plus_minus_h", counting)
    for args, read in runs:
        edges = sum([len(graph_from_json(path.read_text()).edges) for path in read])
        calls.clear()
        assert cli.main(args) == 0, args
        assert len(calls) == edges, args
    capsys.readouterr()
