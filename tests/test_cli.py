import json
import os
import subprocess
import sys

import pytest

import ramsey
from ramsey import arrowing
from ramsey.cli import EXIT_BUDGET, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main


@pytest.mark.parametrize("n", [33, 100000])
def test_witness_check_rejects_oversized_order(tmp_path, capsys, n):
    path = tmp_path / "big.witness"
    path.write_text(f"n={n}\nred=\n")
    code = main(["witness-check", "--file", str(path), "--red", "C4", "--blue", "K3"])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().out.startswith("INVALID")


def test_witness_check_on_undecodable_bytes_is_invalid(tmp_path, capsys):
    # the file opens, so its bytes are a witness that does not parse
    path = tmp_path / "bytes.witness"
    path.write_bytes(b"n=2\nred=\xff\n")
    code = main(["witness-check", "--file", str(path), "--red", "C4", "--blue", "K3"])
    assert code == EXIT_VIOLATION
    assert capsys.readouterr().out.startswith("INVALID")


def test_witness_check_takes_a_pair_listed_twice(tmp_path, capsys):
    # the red star of K4 with one leaf listed again, either way round: no
    # red C4, and blue is a triangle, so no blue 2K2
    path = tmp_path / "twice.witness"
    path.write_text("n=4\nred=0-1,0-2,0-3,1-0,0-1\n")
    code = main(["witness-check", "--file", str(path), "--red", "C4", "--blue", "2K2"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "VALID\n"


# the committed r(C4, 2K3) = 8 witness on K7: red has a vertex of degree 4,
# and r(C4, 3K2) = r(C4, K3) = 7, so its C4-free red leaves a blue 3K2 and
# a blue K3
C4_2K3_WITNESS = "n=7\nred=0-1,0-2,0-3,0-4,1-2,1-5,1-6,3-4,5-6\n"


@pytest.mark.parametrize("red,blue,code,out", [
    ("C4", "2K3", EXIT_OK, "VALID"),
    ("P3", "2K3", EXIT_VIOLATION, "INVALID: red P3"),
    ("K1,4", "K3", EXIT_VIOLATION, "INVALID: red K1,4"),
    ("C4", "3K2", EXIT_VIOLATION, "INVALID: blue 3K2"),
    ("C4", "K3", EXIT_VIOLATION, "INVALID: blue K3"),
])
def test_witness_check_names_the_failing_colour(tmp_path, capsys, red, blue, code, out):
    path = tmp_path / "c4_2k3.witness"
    path.write_text(C4_2K3_WITNESS)
    assert main(["witness-check", "--file", str(path), "--red", red, "--blue", blue]) == code
    assert capsys.readouterr().out == out + "\n"


@pytest.mark.parametrize("max_n", ["0", "3"])
def test_ramsey_rejects_max_n_below_the_scan_start(tmp_path, capsys, max_n):
    # r(C4, K3) is scanned from n = 4, the larger pattern's order
    path = tmp_path / "w.witness"
    code = main(["ramsey", "--red", "C4", "--blue", "K3", "--max-n", max_n,
                 "--witness", str(path)])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "where the scan starts" in err
    assert not path.exists()


def test_ramsey_max_n_reached_exits_3(monkeypatch, capsys):
    searched = []
    run_search = arrowing._run_search

    def recording_run_search(n, *args):
        searched.append(n)
        return run_search(n, *args)

    monkeypatch.setattr(arrowing, "_run_search", recording_run_search)
    code = main(["ramsey", "--red", "C4", "--blue", "K3", "--max-n", "5"])
    assert code == EXIT_BUDGET
    assert searched == [4, 5]
    assert "r(F,G) > 5" in capsys.readouterr().err


@pytest.mark.parametrize("red,blue", [("3K2", "C4"), ("C4", "3K2")])
def test_ramsey_matching_on_either_side(tmp_path, capsys, monkeypatch, red, blue):
    # decided by structure, so no order is searched; red 3K2 swaps colours
    monkeypatch.setattr(arrowing, "_run_search", None)
    path = tmp_path / "w.witness"
    assert main(["ramsey", "--red", red, "--blue", blue, "--witness", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "7\n"
    assert main(["witness-check", "--file", str(path), "--red", red, "--blue", blue]) == EXIT_OK


def test_ramsey_gives_the_position_of_an_oversize_part(capsys):
    # B31 has 33 vertices: the builder refuses it, and the error names its base
    assert main(["ramsey", "--red", "B31", "--blue", "K3"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "(at position 0)" in err


def test_ramsey_names_the_default_witness_file_after_the_patterns(tmp_path, monkeypatch, capsys):
    # r(C4, K2 u P3) = 6; without --witness the K5 witness goes to the
    # working directory
    monkeypatch.chdir(tmp_path)
    assert main(["ramsey", "--red", "C4", "--blue", "K2 u P3"]) == EXIT_OK
    assert capsys.readouterr().out == "6\n"
    assert os.listdir(tmp_path) == ["C4_K2_u_P3.witness"]
    assert main(["witness-check", "--file", "C4_K2_u_P3.witness",
                 "--red", "C4", "--blue", "K2 u P3"]) == EXIT_OK


def test_arrows_prints_the_answer_and_writes_the_witness(tmp_path, capsys):
    # K9 arrows (C4, 4K2); the K8 witness is the text test_search_tree_pinned pins
    assert main(["arrows", "--n", "9", "--red", "C4", "--blue", "4K2"]) == EXIT_OK
    assert capsys.readouterr().out == "ARROWS\n"
    path = tmp_path / "m.witness"
    assert main(["arrows", "--n", "8", "--red", "C4", "--blue", "4K2",
                 "--witness", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == "GOOD COLORING EXISTS\n"
    assert path.read_text() == "n=8\nred=0-1,0-2,0-3,0-4,0-5,0-6,0-7,1-2,3-4,5-6\n"


@pytest.mark.parametrize("n", [-1, 33])
def test_arrows_rejects_bad_order(tmp_path, capsys, n):
    path = tmp_path / "w.witness"
    code = main(["arrows", "--n", str(n), "--red", "C4", "--blue", "K3",
                 "--witness", str(path)])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert f"order {n} outside" in err
    assert not path.exists()


@pytest.mark.parametrize("name", ["missing", "directory"])
def test_witness_check_on_an_unopenable_file_is_a_usage_error(tmp_path, capsys, name):
    # a file that cannot be read is no witness at all, valid or invalid
    path = tmp_path / name
    if name == "directory":
        path.mkdir()
    code = main(["witness-check", "--file", str(path), "--red", "C4", "--blue", "K3"])
    assert code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command,out", [
    (["verify", "--theorem", "t1", "--q-max", "2", "--json"], ""),
    (["verify", "--theorem", "t1", "--q-max", "2", "--resume", "--json"], ""),
    (["ramsey", "--red", "C4", "--blue", "K3", "--witness"], "7\n"),
    (["arrows", "--n", "6", "--red", "C4", "--blue", "K3", "--witness"],
     "GOOD COLORING EXISTS\n"),
], ids=["verify", "verify-resume", "ramsey", "arrows"])
def test_unopenable_output_path_is_a_usage_error(tmp_path, capsys, command, out):
    # one error line and exit 2, not a traceback and the violation code
    path = tmp_path / "missing" / "out"
    assert main(command + [str(path)]) == EXIT_USAGE
    got, err = capsys.readouterr()
    assert got == out
    assert err.startswith("error: ") and str(path) in err
    assert err.count("\n") == 1


def test_enumerate_connected_with_isolated_allowed(capsys):
    assert main(["enumerate", "--edges", "1", "--connected", "--allow-isolated",
                 "--max-vertices", "3"]) == 0
    assert capsys.readouterr().out == "A_\n"


@pytest.mark.parametrize("q_max", ["1", "0", "-3"])
def test_verify_rejects_q_max_below_the_first_level(capsys, q_max):
    # t1 starts at q=2; t3 starts at q=1, which the resume tests below use
    assert main(["verify", "--theorem", "t1", "--q-max", q_max]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "leaves no graph" in err


@pytest.mark.parametrize("command", [
    ["arrows", "--n", "5", "--red", "C4", "--blue", "K3"],
    ["ramsey", "--red", "C4", "--blue", "K3"],
    ["verify", "--theorem", "t1", "--q-max", "2"],
])
@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_rejects_jobs_below_one(capsys, command, jobs):
    with pytest.raises(SystemExit) as exc:
        main(command + ["--jobs", jobs])
    assert exc.value.code == EXIT_USAGE
    assert "--jobs" in capsys.readouterr().err


def test_resume_footer_counts_every_row(tmp_path, capsys):
    path = tmp_path / "t1.jsonl"
    assert main(["verify", "--theorem", "t1", "--q-max", "2", "--json", str(path)]) == 0
    assert main(["verify", "--theorem", "t1", "--q-max", "3", "--json", str(path),
                 "--resume"]) == 0
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    names = [row["graph"]["name"] for row in rows if "graph" in row]
    assert sorted(names) == sorted(["P3", "2K2", "K3", "K1,3", "P4", "K2 u P3", "3K2"])
    # the q <= 2 run's footer gave way to the new rows
    assert sum("summary" in row for row in rows) == 1
    footer = rows[-1]["summary"]
    assert footer["graphs"] == 7
    assert footer["equality"] == ["2K2", "K3", "3K2"]
    assert footer["max_slack"] == 2
    # stdout ends with the same footer
    assert json.loads(capsys.readouterr().out.splitlines()[-1]) == rows[-1]


def test_resume_needs_a_json_file(monkeypatch, capsys):
    # with no file to resume from, --resume is an error before any search
    monkeypatch.setattr(arrowing, "_run_search", None)
    assert main(["verify", "--theorem", "t1", "--q-max", "2", "--resume"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert "--resume needs --json" in err


def _p3_row(**changes) -> str:
    """The t1 row of P3 as verify writes it, with changes, as a JSON line."""
    row = {"theorem": "t1", "graph": {"g6": "BW", "name": "P3"}, "p": 3, "q": 2, "k": 2,
           "exact": 4, "bound": 5, "slack": 1, "equality": False, "runtime": 0.0}
    return json.dumps({**row, **changes}) + "\n"


@pytest.mark.parametrize("text,message", [
    ('{"graph": {"g6": "BW"}}\n', "'BW': exact is null, not an integer"),
    ('{"summary": {"graphs": 0}}\n', "bad report line"),
    ('{"summary": {"theorem": "t2", "graphs": 0}}\n', "holds a t2 sweep"),
    # lines that are not one whole JSON object
    (_p3_row()[:20], "line 1 is not one whole JSON object"),
    (_p3_row().rstrip("\n"), "line 1 is not one whole JSON object"),
    (_p3_row() + "[]\n", "line 2 is not one whole JSON object"),
    ('{"theorem": "t1",\n', "line 1 is not one whole JSON object"),
    # rows the sweep could not have written
    (_p3_row(exact=99), "'BW': slack is 1, the sweep writes -94"),
    (_p3_row(graph={"g6": "garbage!", "name": "P3"}), "'garbage!': not a graph of this sweep"),
    (_p3_row() + _p3_row(), "line 2: graph 'BW' has an earlier row"),
    (_p3_row(graph={"g6": "Bo", "name": "P3"}), "'Bo': not a graph of this sweep"),
    (_p3_row(p=4), "'BW': p is 4, the sweep writes 3"),
    (_p3_row(graph={"g6": "A_", "name": "K2"}, p=2, q=1, bound=3, slack=0, exact=3,
             equality=True), "'A_': not a graph of this sweep"),
    (_p3_row(graph={"g6": "BW", "name": "K1,2"}),
     '\'BW\': graph is {"g6": "BW", "name": "K1,2"}, the sweep writes {"g6": "BW", "name": "P3"}'),
    (_p3_row(bound=6, slack=2), "'BW': bound is 6, the sweep writes 5"),
    (_p3_row(equality=True), "'BW': equality is true, the sweep writes false"),
    (_p3_row(exact="4"), "'BW': exact is \"4\", not an integer"),
    # JSON types: true is not 1, 0 is not false, "0" is not 0.0
    (_p3_row(exact=True), "'BW': exact is true, not an integer"),
    (_p3_row(equality=0), "'BW': equality is 0, the sweep writes false"),
    (_p3_row(runtime="0"), "'BW': runtime is \"0\", not a number of seconds"),
    (_p3_row(extra=1), "'BW': fields are ["),
    # K3 has q = 3, past this sweep's --q-max 2
    (_p3_row(graph={"g6": "Bw", "name": "K3"}, q=3, exact=7, bound=7, slack=0, equality=True),
     "'Bw': not a graph of this sweep"),
])
def test_resume_rejects_a_foreign_file(tmp_path, capsys, text, message):
    path = tmp_path / "t1.jsonl"
    path.write_text(text)
    code = main(["verify", "--theorem", "t1", "--q-max", "2", "--json", str(path), "--resume"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert path.read_text() == text


def test_resume_takes_the_rows_it_wrote(tmp_path, capsys, monkeypatch):
    # the P3 row passes every resume check, so only 2K2 is searched again
    path = tmp_path / "t1.jsonl"
    path.write_text(_p3_row())
    verify = ["verify", "--theorem", "t1", "--q-max", "2", "--json", str(path), "--resume"]
    assert main(verify) == EXIT_OK
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [row["graph"]["name"] for row in rows[:-1]] == ["P3", "2K2"]
    assert rows[-1]["summary"]["graphs"] == 2
    # the file is complete now: resuming it searches nothing, and its
    # footer is replaced by the same one
    complete = path.read_bytes()
    monkeypatch.setattr(arrowing, "_run_search", None)
    monkeypatch.setattr(arrowing, "matching_arrows", None)
    assert main(verify) == EXIT_OK
    assert path.read_bytes() == complete


def test_resume_stops_at_a_violating_row(tmp_path, capsys, monkeypatch):
    # a P3 row with exact 99 and the slack 5 - 99 = -94 that follows is
    # one the sweep writes, and a counterexample: exit 1 before 2K2 is
    # searched, with the file untouched
    monkeypatch.setattr(arrowing, "_run_search", None)
    monkeypatch.setattr(arrowing, "matching_arrows", None)
    path = tmp_path / "t1.jsonl"
    text = _p3_row(exact=99, slack=-94)
    path.write_text(text)
    assert main(["verify", "--theorem", "t1", "--q-max", "2", "--json", str(path),
                 "--resume"]) == EXIT_VIOLATION
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "VIOLATION: t1 fails on P3 (BW): exact 99 > bound 5\n"
    assert path.read_text() == text


def test_resume_refuses_a_cut_line_then_finishes_without_it(tmp_path, capsys):
    # a run killed mid-row leaves a last line with no newline; resuming
    # must not glue the next row onto it
    def rows(path):
        return [{k: v for k, v in json.loads(line).items() if k != "runtime"}
                for line in path.read_text().splitlines()]

    verify = ["verify", "--theorem", "t1", "--q-max", "3", "--json"]
    full, path = tmp_path / "full.jsonl", tmp_path / "cut.jsonl"
    assert main(verify + [str(full)]) == EXIT_OK
    lines = full.read_bytes().splitlines(keepends=True)
    cut = b"".join(lines[:3]) + lines[3][:20]
    path.write_bytes(cut)
    assert main(verify + [str(path), "--resume"]) == EXIT_USAGE
    assert "line 4 is not one whole JSON object" in capsys.readouterr().err
    assert path.read_bytes() == cut
    path.write_bytes(b"".join(lines[:3]))
    assert main(verify + [str(path), "--resume"]) == EXIT_OK
    assert rows(path) == rows(full)


def test_resume_refuses_a_footer_before_the_last_line(tmp_path, capsys):
    # a file can hold a footer between rows, or two footers; resuming it
    # exits 2, names the footer's line and leaves the file as it was
    path = tmp_path / "t1.jsonl"
    verify = ["verify", "--theorem", "t1", "--q-max", "3", "--json", str(path)]
    assert main(verify) == EXIT_OK
    lines = path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 8 and b"summary" in lines[-1]
    for text, line in [(b"".join(lines[:3] + lines[-1:] + lines[3:5]), 4), (lines[-1] * 2, 1)]:
        path.write_bytes(text)
        capsys.readouterr()
        assert main(verify + ["--resume"]) == EXIT_USAGE
        assert f"line {line} is a footer but not the last line" in capsys.readouterr().err
        assert path.read_bytes() == text


@pytest.mark.parametrize("first,second,message", [
    (["--theorem", "t1", "--q-max", "2"], ["--theorem", "t3", "--q-max", "2"],
     "'BW': theorem is \"t1\", the sweep writes \"t3\""),
    (["--theorem", "t3", "--q-max", "1"], ["--theorem", "t3", "--q-max", "1", "--k", "4"],
     "'A_': k is 3, the sweep writes 4"),
])
def test_resume_rejects_a_cut_file_of_another_sweep(tmp_path, capsys, first, second, message):
    # a run cut before its footer leaves only report rows, which must name
    # their own sweep
    path = tmp_path / "cut.jsonl"
    assert main(["verify", "--json", str(path)] + first) == 0
    text = "".join(path.read_text().splitlines(keepends=True)[:-1])
    assert text and "summary" not in text
    path.write_text(text)
    capsys.readouterr()
    assert main(["verify", "--json", str(path), "--resume"] + second) == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert path.read_text() == text


@pytest.mark.parametrize("flags", [["--q-max", "1"], ["--k", "3"]])
def test_rejected_verify_leaves_the_json_file(tmp_path, capsys, flags):
    path = tmp_path / "keep.jsonl"
    path.write_bytes(b'{"kept": true}\n')
    assert main(["verify", "--theorem", "t1", "--json", str(path)] + flags) == EXIT_USAGE
    assert path.read_bytes() == b'{"kept": true}\n'


def test_verify_rejects_k_past_the_vertex_cap(tmp_path, capsys):
    # K2,31 has 33 vertices; the error names t3's k range, and the file is kept
    path = tmp_path / "keep.jsonl"
    path.write_bytes(b'{"kept": true}\n')
    assert main(["verify", "--theorem", "t3", "--k", "31", "--json", str(path)]) == EXIT_USAGE
    assert "t3 needs k in 3..30" in capsys.readouterr().err
    assert path.read_bytes() == b'{"kept": true}\n'


@pytest.mark.parametrize("budget", ["abc", "-1", "0", "nan", "inf"])
def test_rejects_a_budget_that_is_not_a_positive_number(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        main(["arrows", "--n", "5", "--red", "C4", "--blue", "K3", "--budget", budget])
    assert exc.value.code == EXIT_USAGE
    assert "--budget" in capsys.readouterr().err


def test_budget_exceeded_exits_3(capsys):
    code = main(["arrows", "--n", "9", "--red", "C4", "--blue", "4K2", "--budget", "1e-9"])
    assert code == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert out == ""
    assert "budget exceeded" in err


def test_budget_does_not_depend_on_jobs(capsys):
    # a budget too small for any search leaves every searched class
    # incomplete, with no forked helper or one; the matchings are decided
    # by structure, with no budget
    footers = []
    for jobs in ("1", "2"):
        code = main(["verify", "--theorem", "t1", "--q-max", "4", "--budget", "1e-9",
                     "--jobs", jobs])
        assert code == EXIT_BUDGET
        footers.append(json.loads(capsys.readouterr().out.splitlines()[-1]))
    assert footers[0] == footers[1]
    summary = footers[0]["summary"]
    assert len(summary["incomplete"]) == 15
    assert summary["equality"] == ["2K2", "3K2", "4K2"]


def test_incomplete_line_names_each_reason(capsys):
    # P3's search runs out of budget; 2K2 is decided by structure, with no
    # budget, but r(K2,30, 2K2) = 33 passes the vertex cap
    code = main(["verify", "--theorem", "l32", "--k", "30", "--q-max", "2", "--budget", "1e-9"])
    assert code == EXIT_BUDGET
    out, err = capsys.readouterr()
    assert json.loads(out.splitlines()[-1])["summary"]["incomplete"] == ["BW", "CK"]
    assert err == ("incomplete: 1 graph(s) ran out of budget, "
                   "1 graph(s) have r above the 32-vertex cap\n")


def test_cli_import_leaves_the_pool_and_dataclasses_unloaded(tmp_path):
    # neither importing the CLI nor a search with forked helpers pays for
    # concurrent.futures (with multiprocessing) or dataclasses
    src = os.path.dirname(os.path.dirname(ramsey.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    witness = str(tmp_path / "w")
    code = ("import sys, ramsey.cli; "
            "mods = ('concurrent.futures', 'multiprocessing', 'dataclasses'); "
            "print(sorted(m for m in mods if m in sys.modules)); "
            "ramsey.cli.main(['ramsey', '--red', 'C4', '--blue', '2K3', '--jobs', '2', "
            f"'--witness', {witness!r}]); "
            "print(sorted(m for m in mods if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.splitlines() == ["[]", "8", "[]"]


def test_helpers_leave_the_callers_stack_and_buffers_alone(tmp_path, monkeypatch):
    # verify --jobs 2 writes the jobs=1 rows, once each.  Its rows sit
    # unflushed in a buffered stdout while later orders fork their helpers,
    # so a helper that flushed its copy of that buffer would print them
    # again.  With os.kill made a no-op each helper ends on its own, so one
    # that came back through these frames reaches the finally below
    # instead of racing the kill.
    def rows(text):
        return [{k: v for k, v in json.loads(line).items() if k != "runtime"}
                for line in text.splitlines()]
    argv = ["verify", "--theorem", "t1", "--q-max", "3", "--json"]
    assert main(argv + [str(tmp_path / "one.jsonl")]) == EXIT_OK
    me = os.getpid()
    with open(tmp_path / "stdout", "w") as out:
        monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(os, "kill", lambda pid, sig: None)
        try:
            code = main(argv + [str(tmp_path / "two.jsonl"), "--jobs", "2"])
        finally:
            if os.getpid() != me:
                (tmp_path / "escaped").touch()
                os._exit(1)
            monkeypatch.undo()
    assert code == EXIT_OK
    assert not (tmp_path / "escaped").exists()
    one = rows((tmp_path / "one.jsonl").read_text())
    assert len(one) == 8  # 7 rows and the footer
    assert rows((tmp_path / "two.jsonl").read_text()) == one
    assert rows((tmp_path / "stdout").read_text()) == one


@pytest.mark.parametrize("command", [
    ["arrows", "--n", "8", "--red", "C4", "--blue", "2K3", "--witness"],
    ["ramsey", "--red", "C4", "--blue", "2K3", "--witness"],
    ["verify", "--theorem", "t1", "--q-max", "3", "--json"],
])
def test_jobs_above_one_need_fork(tmp_path, monkeypatch, capsys, command):
    # refused before any search, and before verify empties its --json file
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(arrowing, "_run_search", None)
    path = tmp_path / "kept"
    path.write_text("kept\n")
    assert main(command + [str(path), "--jobs", "2"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: jobs=2 needs os.fork, which this platform lacks\n"
    assert path.read_text() == "kept\n"
