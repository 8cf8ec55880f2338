import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import netforms
from netforms.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def path3_file(tmp_path):
    p = tmp_path / "net.json"
    p.write_text(json.dumps({
        "vertices": [0, 1, 2],
        "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}],
    }))
    return p


@pytest.fixture
def disconnected_file(tmp_path):
    p = tmp_path / "disc.json"
    p.write_text(json.dumps({
        "vertices": [0, 1, 2, 3],
        "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 2, "v": 3, "c": 1.0}],
    }))
    return p


def test_net_validate(path3_file, capsys):
    assert main(["net", "validate", str(path3_file)]) == 0
    assert "markov=True" in capsys.readouterr().out


def test_net_assemble_matches_matrix(path3_file, tmp_path):
    out = tmp_path / "A.csv"
    assert main(["net", "assemble", str(path3_file), "--output", str(out)]) == 0
    rows = [[float(x) for x in line.split(",")] for line in out.read_text().strip().splitlines()]
    assert np.array_equal(rows, [[1, -1, 0], [-1, 2, -1], [0, -1, 1]])


def test_trace_command(path3_file, capsys):
    assert main(["trace", "--net", str(path3_file), "--subset", "0,2"]) == 0
    rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.strip().splitlines()]
    assert np.allclose(rows, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)


def test_resistance_pair_and_all(path3_file, capsys):
    assert main(["resistance", "--net", str(path3_file), "--pairs", "0,2"]) == 0
    assert abs(float(capsys.readouterr().out) - 2.0) <= 1e-12
    assert main(["resistance", "--net", str(path3_file), "--pairs", "all"]) == 0
    rows = [[float(x) for x in line.split(",")] for line in capsys.readouterr().out.strip().splitlines()]
    assert np.allclose(rows, [[0, 1, 2], [1, 0, 1], [2, 1, 0]], atol=1e-12)


def test_resistance_disconnected_exit_2(disconnected_file, capsys):
    assert main(["resistance", "--net", str(disconnected_file), "--pairs", "0,2"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "numerical"
    assert "infinite" in err["error"]["message"]


def test_resistance_other_component_does_not_float(disconnected_file, capsys):
    assert main(["resistance", "--net", str(disconnected_file), "--pairs", "0,1"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_resistance_matrix_near_zero_bridge_exit_2(tmp_path, capsys):
    p = tmp_path / "bridge.json"
    p.write_text(json.dumps({
        "vertices": [0, 1, 2, 3],
        "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1e-20}, {"u": 2, "v": 3, "c": 1.0}],
    }))
    assert main(["resistance", "--net", str(p), "--pairs", "all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)["error"]
    assert err["type"] == "numerical"
    assert "singular" in err["message"]


def test_malformed_json_exit_1_names_offset(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": [0, 1], "edges": [}')
    assert main(["net", "validate", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "byte offset 31" in err["error"]["message"]


def test_malformed_json_offset_counts_bytes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["\u00e9", 1], "edges": [}', encoding="utf-8")  # é is two bytes
    assert main(["net", "validate", str(bad)]) == 1
    assert "byte offset 34" in json.loads(capsys.readouterr().err)["error"]["message"]


@pytest.mark.parametrize("text", [b"\xff\xfe", b"[" * 100_000, b"1" * 5000], ids=["not-utf8", "deep", "long-int"])
def test_unparsable_json_exit_1(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_bytes(text)
    assert main(["net", "validate", str(bad)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "malformed JSON" in err["error"]["message"]


@pytest.mark.parametrize("message", ["", "Unable to allocate 3.00 MiB for an array"], ids=["bare", "numpy"])
def test_out_of_memory_exit_1_without_traceback(path3_file, capsys, monkeypatch, message):
    def load(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(json, "load", load)
    assert main(["net", "validate", str(path3_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    expected = f"out of memory: {message}" if message else "out of memory"
    assert json.loads(captured.err) == {"error": {"type": "validation", "message": expected}}


def test_superlu_partial_line_leaves_the_json_error_on_the_last_line(tmp_path, capfd, monkeypatch):
    # SuperLU writes this message with no newline, then the factor fails
    def factor(*args, **kwargs):
        os.write(2, b"malloc fails for local dworkptr[].")
        raise MemoryError()

    monkeypatch.setattr(sys.modules["netforms.trace"], "splu", factor)
    n = netforms.network.DENSE_N_MAX + 3
    net = tmp_path / "path.json"
    net.write_text(json.dumps(netforms.Network(n, [(k, k + 1, 1.0) for k in range(n - 1)]).to_dict()))
    assert main(["resistance", "--pairs", f"0,{n - 1}", "--net", str(net)]) == 1
    out, err = capfd.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[0] == "malloc fails for local dworkptr[]."
    assert json.loads(err.splitlines()[-1]) == {
        "error": {
            "type": "validation",
            "message": f"out of memory eliminating an interior component of {n - 2} vertices by sparse LU",
        }
    }


@pytest.mark.parametrize("args", [["check"], ["profile", "--f", "f.csv"]], ids=["check", "profile"])
def test_seq_missing_file_exit_1(tmp_path, capsys, args):
    assert main(["seq", args[0], str(tmp_path / "missing.json"), *args[1:]]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "cannot read" in err["error"]["message"]


@pytest.mark.parametrize("command", [
    ["net", "assemble", "{net}"],
    ["trace", "--net", "{net}", "--subset", "0,2"],
    ["seq", "build", "dyadic", "--levels", "2"],
], ids=["net-assemble", "trace", "seq-build"])
def test_output_into_missing_directory_exit_1(path3_file, tmp_path, capsys, command):
    out = tmp_path / "nodir" / "out"
    argv = [a.format(net=path3_file) for a in command] + ["--output", str(out)]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "cannot write" in err["error"]["message"]
    assert not out.parent.exists()


@pytest.mark.parametrize("command", [["demo", "counterexample", "--levels", "4"], ["reproduce-all", "--quick"]],
                         ids=["demo-counterexample", "reproduce-all"])
def test_outdir_is_a_file_exit_1(path3_file, capsys, command):
    before = path3_file.read_bytes()
    assert main([*command, "--outdir", str(path3_file)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "cannot create directory" in err["error"]["message"]
    assert path3_file.read_bytes() == before


def test_unknown_flag_exit_1(path3_file, capsys):
    assert main(["trace", "--net", str(path3_file), "--subset", "0,2", "--bogus"]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"


_PATH3 = {"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}]}


def _with_edge0(**fields):
    return {**_PATH3, "edges": [{**_PATH3["edges"][0], **fields}, _PATH3["edges"][1]]}


@pytest.mark.parametrize("net, mu", [
    (_with_edge0(c="abc"), None),
    (_with_edge0(u="x"), None),
    (_with_edge0(u=0.7), None),
    (_with_edge0(v=True), None),
    ({**_PATH3, "edges": 5}, None),
    ({**_PATH3, "vertices": 3}, None),
    ({**_PATH3, "killing": ["a", 1, 0]}, None),
    (_PATH3, [1, "a", 1]),
    (_with_edge0(c=10**400), None),
    ({**_PATH3, "killing": [10**400, 0, 0]}, None),
    (_PATH3, [1, 10**400, 1]),
], ids=["c-string", "u-string", "u-float", "v-bool", "edges-number", "vertices-number",
        "killing-string", "measure-string", "c-huge-int", "killing-huge-int", "measure-huge-int"])
def test_malformed_network_and_measure_exit_1(tmp_path, capsys, net, mu):
    net_file = tmp_path / "net.json"
    net_file.write_text(json.dumps(net))
    args = ["sim", "commute", "--net", str(net_file), "--seed", "1", "--n", "5", "--pair", "0,2"]
    if mu is not None:
        mu_file = tmp_path / "mu.json"
        mu_file.write_text(json.dumps(mu))
        args += ["--mu", str(mu_file)]
    assert main(args) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"


@pytest.mark.parametrize("n", [3, 65], ids=["dense", "sparse"])
@pytest.mark.parametrize("command", ["validate", "assemble"])
def test_overflowing_row_sum_exit_1_one_json_line(tmp_path, capsys, command, n):
    # two finite conductances at vertex 1 sum to an infinite diagonal entry
    p = tmp_path / "net.json"
    edges = [{"u": 0, "v": 1, "c": 1e308}, {"u": 1, "v": 2, "c": 1e308}]
    p.write_text(json.dumps({"vertices": list(range(n)), "edges": edges}))
    assert main(["net", command, str(p)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])["error"]
    assert err["type"] == "validation" and "non-finite entries, the first in row 1" in err["message"]


@pytest.mark.parametrize("module", ["netforms", "netforms.cli"])
def test_python_m_help(module):
    src = str(Path(netforms.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", module, "--help"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: netforms")


def child_env() -> dict:
    """The environment of a CLI child: this netforms on its path, one BLAS thread."""
    src = str(Path(netforms.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    env.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    return env


def under_3_gib():
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


def test_star_trace_onto_leaves_is_refused_under_3_gib(tmp_path):
    # the center touches all 6,000 leaves, so the trace would sum 3.6e7
    # boundary pairs: the guard refuses it before any is built
    b = 6000
    net = tmp_path / "star.json"
    star = netforms.Network.from_arrays(b + 1, np.zeros(b, dtype=int), np.arange(1, b + 1), np.ones(b))
    net.write_text(json.dumps(star.to_dict()))
    leaves = ",".join(map(str, range(1, b + 1)))
    run = subprocess.run([sys.executable, "-m", "netforms", "trace", "--net", str(net), "--subset", leaves],
                         capture_output=True, text=True, env=child_env(), preexec_fn=under_3_gib, timeout=300)
    assert run.returncode == 1 and run.stdout == "", run.stderr[-2000:]
    assert len(run.stderr.splitlines()) == 1
    error = json.loads(run.stderr)["error"]
    assert error["type"] == "validation" and error["message"].startswith("the boundary-pair terms")


#: A CLI child that limits its own address space to what it holds after
#: importing netforms plus argv[1] MiB, then runs the command in argv[2:].
LIMITED_CLI = """
import resource, sys
import netforms.cli
with open("/proc/self/status") as fh:
    held = next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmSize:"))
limit = held + int(sys.argv[1]) * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(netforms.cli.main(sys.argv[2:]))
"""


def grid_file(tmp_path, m):
    """The network file of an m x m x m unit grid."""
    idx = np.arange(m**3).reshape(m, m, m)
    u = np.concatenate([idx[:-1].ravel(), idx[:, :-1].ravel(), idx[:, :, :-1].ravel()])
    v = np.concatenate([idx[1:].ravel(), idx[:, 1:].ravel(), idx[:, :, 1:].ravel()])
    net = tmp_path / f"grid{m}.json"
    net.write_text(json.dumps(netforms.Network.from_arrays(m**3, u, v, np.ones(u.size)).to_dict()))
    return net


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address space from /proc")
def test_reading_a_file_out_of_memory_exits_1(tmp_path):
    # with 20 MiB above the child's own footprint, json.load of the 3 MB file of
    # the 30-cube grid runs out of memory (10 of 10 runs)
    args = ["resistance", "--pairs", "0,1", "--net", str(grid_file(tmp_path, 30))]
    run = subprocess.run([sys.executable, "-c", LIMITED_CLI, "20", *args], capture_output=True, text=True,
                         env=child_env(), timeout=120)
    assert run.returncode == 1 and run.stdout == "", run.stderr[-2000:]
    assert "Traceback" not in run.stderr and len(run.stderr.splitlines()) == 1
    assert json.loads(run.stderr) == {"error": {"type": "validation", "message": "out of memory"}}


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads the address space from /proc")
def test_superlu_out_of_memory_exits_1_on_a_30_cube_grid(tmp_path):
    # 27,000 vertices: SuperLU factors the interior of 26,998 in about 5 s with 400 MiB
    # above the child's own footprint. With 195-370 MiB SuperLU cannot expand its
    # L factor ("Can't expand MemType 0" on stderr, then a MemoryError); with 80-120
    # and 180-190 it retries ever smaller expansions for minutes, so 230 and 330 are used.
    m = 30
    args = ["resistance", "--pairs", f"0,{m**3 - 1}", "--net", str(grid_file(tmp_path, m))]
    procs = [
        subprocess.Popen([sys.executable, "-c", LIMITED_CLI, str(mib), *args], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=child_env())
        for mib in (230, 330)
    ]
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 1 and out == "", err[-2000:]
            assert "Traceback" not in err
            error = json.loads(err.splitlines()[-1])["error"]
            assert error == {
                "type": "validation",
                "message": f"out of memory eliminating an interior component of {m**3 - 2} vertices by sparse LU",
            }
    finally:  # a child that stalls inside SuperLU is not left running
        for proc in procs:
            proc.kill()


def test_gasket8_decompose_and_occupy_under_3_gib(tmp_path):
    # 9,843 vertices: one dense n x n float64 array alone takes 739 MiB. The
    # vertices are renumbered so that the three corners come first.
    seq = netforms.build_sierpinski_gasket(8)
    g = seq.networks[8]
    corners = np.arange(3)
    for m in seq.inclusions:
        corners = m[corners]
    new = np.empty(g.n, dtype=np.intp)
    new[np.r_[corners, np.setdiff1d(np.arange(g.n), corners)]] = np.arange(g.n)
    net = tmp_path / "gasket8.json"
    net.write_text(json.dumps(netforms.Network.from_arrays(g.n, new[g.u], new[g.v], g.c).to_dict()))
    commands = (
        ["decompose"],
        ["sim", "occupy", "--n", "64", "--horizon", "0.1", "--seed", "1"],
        ["trace", "--subset", "0,1,2"],  # the one interior component, 9,840 vertices, is factored sparse
        ["resistance", "--pairs", "0,1"],
        ["resistance", "--pairs", "all"],  # the all-pairs matrix and its working arrays need 3.9e9 bytes
    )
    # the children run at once, each under its own limit; preexec_fn needs a parent without threads
    procs = [
        subprocess.Popen([sys.executable, "-m", "netforms", *args, "--net", str(net)], stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=child_env(), preexec_fn=under_3_gib)
        for args in commands
    ]
    (decomposed, e1), (occupied, e2), (traced, e3), (pair, e4), (out, err) = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0, 0, 0, 1], [e[-2000:] for e in (e1, e2, e3, e4, err)]
    assert e1 == e2 == e3 == e4 == ""
    assert len(json.loads(decomposed)["kappa"]) == len(json.loads(occupied)["occupation"]) == 9843
    T = np.array([line.split(",") for line in traced.split()], dtype=float)
    # the corner trace is the level-0 triangle at every level; 3.3e-12 measured
    assert T.shape == (3, 3) and np.max(np.abs(T - (3.0 * np.eye(3) - 1.0))) <= 2e-11
    assert abs(float(pair) - 2.0 / 3.0) <= 1e-11 * 2.0 / 3.0  # as in TestAcrossLevels at level 8
    assert out == "" and len(err.splitlines()) == 1 and json.loads(err)["error"]["type"] == "validation"


def test_decompose_json(path3_file, capsys):
    assert main(["decompose", "--net", str(path3_file)]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["J"] == [{"x": 0, "y": 1, "value": 0.5}, {"x": 1, "y": 2, "value": 0.5}]
    assert d["kappa"] == [0.0, 0.0, 0.0]


def test_seq_build_check_profile(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    assert main(["seq", "build", "dyadic", "--levels", "3", "--output", str(seq)]) == 0
    capsys.readouterr()
    assert main(["seq", "check", str(seq)]) == 0
    assert "compatible" in capsys.readouterr().out
    f = tmp_path / "f.csv"
    f.write_text("\n".join(str(k / 8) for k in range(9)) + "\n")
    out = tmp_path / "profile.csv"
    assert main(["seq", "profile", str(seq), "--f", str(f), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "level,energy"
    assert all(abs(float(line.split(",")[1]) - 1.0) <= 1e-12 for line in lines[1:])


def test_seq_check_incompatible_exit_2(tmp_path, capsys):
    seq = {
        "levels": [
            {"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": 3.0}]},
            {"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 1.0}, {"u": 1, "v": 2, "c": 1.0}]},
        ],
        "inclusions": [[0, 2]],
    }
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(seq))
    assert main(["seq", "check", str(p)]) == 2
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "numerical"


_SEQ2 = {
    "levels": [
        {"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": 1.0}]},
        {"vertices": [0, 1, 2], "edges": [{"u": 0, "v": 1, "c": 2.0}, {"u": 1, "v": 2, "c": 2.0}]},
    ],
    "inclusions": [[0, 2]],
}


@pytest.mark.parametrize("seq", [
    {**_SEQ2, "levels": 5},
    {**_SEQ2, "inclusions": [[0.7, 2]]},
    {**_SEQ2, "inclusions": [[True, 2]]},
    {**_SEQ2, "inclusions": [["1", 2]]},
    {**_SEQ2, "inclusions": [[10**400, 2]]},
], ids=["levels-number", "inclusion-float", "inclusion-bool", "inclusion-string", "inclusion-huge-int"])
def test_seq_check_malformed_exit_1(tmp_path, capsys, seq):
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(seq))
    assert main(["seq", "check", str(p)]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"


def test_seq_build_above_dyadic_guard_exit_1(tmp_path, capsys):
    seq = tmp_path / "seq.json"
    assert main(["seq", "build", "dyadic", "--levels", "21", "--output", str(seq)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert err["error"]["message"] == "levels must be an integer in [0, 20], got 21"
    assert not seq.exists()


def test_net_assemble_above_dense_guard_exit_1(tmp_path, capsys):
    # 12,000 vertices need 1,152,000,000 bytes densely, above DENSE_BYTES_MAX (1 GiB)
    n = 12_000
    p = tmp_path / "big.json"
    p.write_text(json.dumps({
        "vertices": list(range(n)),
        "edges": [{"u": k, "v": k + 1, "c": 1.0} for k in range(n - 1)],
    }))
    out = tmp_path / "A.csv"
    assert main(["net", "assemble", str(p), "--output", str(out)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "needs 1152000000 bytes" in err["error"]["message"]
    assert not out.exists()


def test_gasket_build_with_calibration(tmp_path, capsys):
    seq = tmp_path / "g.json"
    assert main(["seq", "build", "gasket", "--levels", "1", "--calibrate", "--output", str(seq)]) == 0
    capsys.readouterr()
    assert main(["seq", "check", str(seq)]) == 0


def test_gelfand_commands(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"points": [0, 1, 2], "generators": [[1.0, 1.0, 2.0]]}))
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([0.25, 0.75, 1.0]))

    assert main(["gelfand", "embed", "--spec", str(spec)]) == 0
    emb = json.loads(capsys.readouterr().out)
    assert emb["classes"] == [[0, 1], [2]]
    assert emb["separated"] is False

    assert main(["gelfand", "pushforward", "--spec", str(spec), "--mu", str(mu)]) == 0
    push = json.loads(capsys.readouterr().out)
    assert push["atoms"] == [1.0, 1.0]
    assert push["total"] == 2.0

    f = tmp_path / "f.csv"
    f.write_text("3\n3\n-1\n")
    assert main(["gelfand", "isometry", "--spec", str(spec), "--mu", str(mu), "--f", str(f)]) == 0
    iso = json.loads(capsys.readouterr().out)
    assert iso["difference"] <= 1e-12

    assert main(["gelfand", "closure", "--spec", str(spec), "--epsilon", "0.1"]) == 0
    clo = json.loads(capsys.readouterr().out)
    assert clo["flagged"] == [False, False]


_SPEC = {"points": [0, 1, 2], "generators": [[1.0, 1.0, 2.0]]}


@pytest.mark.parametrize("spec, args", [
    ({**_SPEC, "generators": [[1.0, 1.0, 2.0], [1.0]]}, ["embed"]),
    ({**_SPEC, "points": 5}, ["embed"]),
    ({**_SPEC, "generators": 5}, ["embed"]),
    ({**_SPEC, "generators": [["1.5", 1.0, 2.0]]}, ["embed"]),
    ({**_SPEC, "generators": [[True, 1.0, 2.0]]}, ["embed"]),
    ({**_SPEC, "generators": [[10**400, 1.0, 2.0]]}, ["embed"]),
    (_SPEC, ["embed", "--tolerance", "nan"]),
    (_SPEC, ["closure", "--epsilon", "nan"]),
    (_SPEC, ["closure", "--epsilon", "inf"]),
], ids=["generators-ragged", "points-number", "generators-number", "generator-string", "generator-bool",
        "generator-huge-int", "tolerance-nan", "epsilon-nan", "epsilon-inf"])
def test_gelfand_malformed_exit_1(tmp_path, capsys, spec, args):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(spec))
    assert main(["gelfand", args[0], "--spec", str(p), *args[1:]]) == 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"


@pytest.mark.parametrize("bad", ["nan", "1e400"])
@pytest.mark.parametrize("command", ["gamma", "seq profile", "gelfand isometry"])
def test_non_finite_vector_file_exit_1(path3_file, tmp_path, capsys, command, bad):
    f = tmp_path / "f.csv"
    f.write_text(f"0\n{bad}\n1\n")
    if command == "gamma":
        args = ["gamma", "--form", str(path3_file)]
    elif command == "seq profile":
        seq = tmp_path / "seq.json"
        assert main(["seq", "build", "dyadic", "--levels", "1", "--output", str(seq)]) == 0
        args = ["seq", "profile", str(seq)]
    else:
        spec, mu = tmp_path / "spec.json", tmp_path / "mu.json"
        spec.write_text(json.dumps(_SPEC))
        mu.write_text(json.dumps([1.0, 1.0, 1.0]))
        args = ["gelfand", "isometry", "--spec", str(spec), "--mu", str(mu)]
    capsys.readouterr()
    assert main(args + ["--f", str(f)]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation" and "not finite" in err["message"]


def test_gamma_csv(path3_file, tmp_path, capsys):
    f = tmp_path / "f.csv"
    f.write_text("1\n0.5\n0\n")
    assert main(["gamma", "--form", str(path3_file), "--f", str(f)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "vertex,mass"
    masses = [float(line.split(",")[1]) for line in lines[1:]]
    assert np.allclose(masses, [0.125, 0.25, 0.125], atol=1e-14)


def test_demo_counterexample_outputs_and_idempotence(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["demo", "counterexample", "--levels", "8", "--set", "0,0.5,1",
                     "--min-level", "4", "--outdir", str(out)]) == 0
    csv1 = (out1 / "counterexample.csv").read_bytes()
    csv2 = (out2 / "counterexample.csv").read_bytes()
    svg1 = (out1 / "counterexample.svg").read_bytes()
    svg2 = (out2 / "counterexample.svg").read_bytes()
    assert csv1 == csv2 and svg1 == svg2
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "level,energy,gamma_mass"
    assert all(line.split(",")[1] == "1" for line in lines[1:])


def test_demo_svg_matches_golden(tmp_path):
    out = tmp_path / "run"
    assert main(["demo", "counterexample", "--levels", "8", "--set", "0,0.5,1",
                 "--min-level", "4", "--outdir", str(out)]) == 0
    golden = (GOLDEN / "counterexample.svg").read_bytes()
    assert (out / "counterexample.svg").read_bytes() == golden


def test_sim_hit_same_seed_bit_identical(path3_file, capsys):
    args = ["sim", "hit", "--net", str(path3_file), "--n", "400", "--targets", "0,2", "--start", "1"]
    assert main(args + ["--seed", "7"]) == 0
    out1 = capsys.readouterr().out
    assert main(args + ["--seed", "7"]) == 0
    out2 = capsys.readouterr().out
    assert main(args + ["--seed", "8"]) == 0
    out3 = capsys.readouterr().out
    assert out1 == out2
    d1, d3 = json.loads(out1), json.loads(out3)
    assert d1["estimate"] != d3["estimate"]
    assert abs(d1["estimate"] - 0.5) <= 4.0 * d1["stderr"]


def test_sim_workers_flag_is_unknown(path3_file, capsys):
    code = main(["sim", "hit", "--net", str(path3_file), "--seed", "7", "--n", "10",
                 "--targets", "0,2", "--start", "1", "--workers", "2"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation" and "--workers" in err["error"]["message"]


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_sim_occupy_non_finite_horizon_exit_1(path3_file, capsys, horizon):
    code = main(["sim", "occupy", "--net", str(path3_file), "--seed", "1", "--n", "5",
                 "--horizon", horizon])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation" and "horizon" in err["error"]["message"]


@pytest.mark.parametrize("n", ["0", str(10**7 + 1), "100000000000"])
@pytest.mark.parametrize("query", [["hit", "--targets", "0,2", "--start", "1"], ["commute", "--pair", "0,2"],
                                   ["occupy", "--horizon", "5"]], ids=["hit", "commute", "occupy"])
def test_sim_n_outside_range_exit_1(path3_file, capsys, query, n):
    code = main(["sim", query[0], "--net", str(path3_file), "--seed", "1", "--n", n, *query[1:]])
    assert code == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "validation" and "--n" in err["message"]


@pytest.mark.parametrize("query", [["hit", "--targets", "0,2", "--start", "1"], ["commute", "--pair", "0,2"],
                                   ["occupy", "--horizon", "5"]], ids=["hit", "commute", "occupy"])
def test_sim_overflowing_rates_exit_1_one_json_line(path3_file, tmp_path, query):
    # 1 / 1e-320 overflows; the child shows warnings, so any would reach stderr
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([1.0, 1e-320, 1.0]))
    run = subprocess.run([sys.executable, "-m", "netforms", "sim", query[0], "--net", str(path3_file), "--mu", str(mu),
                          "--seed", "1", "--n", "5", *query[1:]],
                         capture_output=True, text=True, env={**child_env(), "PYTHONWARNINGS": "default"}, timeout=300)
    assert run.returncode == 1 and run.stdout == "", run.stderr[-2000:]
    assert len(run.stderr.splitlines()) == 1, run.stderr[-2000:]
    error = json.loads(run.stderr)["error"]
    assert error == {"type": "validation", "message": "mu(1) = 1e-320 is too small: the rates out of vertex 1 overflow"}


def test_sim_commute_same_vertex_with_killing_exit_1(tmp_path, capsys):
    net = tmp_path / "net.json"
    net.write_text(json.dumps({**_PATH3, "killing": [0.0, 0.5, 0.0]}))
    assert main(["sim", "commute", "--net", str(net), "--seed", "1", "--n", "10", "--pair", "0,0"]) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error == {"type": "validation", "message": "commute time requires a killing-free chain"}


def test_sim_commute_and_occupy(path3_file, capsys):
    assert main(["sim", "commute", "--net", str(path3_file), "--seed", "3", "--n", "2000",
                 "--pair", "0,2"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert abs(d["estimate"] - 6.0) <= 0.15 * 6.0

    assert main(["sim", "occupy", "--net", str(path3_file), "--seed", "4", "--n", "60",
                 "--horizon", "200"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["l1_distance"] < 0.1


def test_input_files_never_mutated(path3_file):
    before = path3_file.read_bytes()
    main(["net", "assemble", str(path3_file), "--output", str(path3_file.parent / "o.csv")])
    main(["resistance", "--net", str(path3_file), "--pairs", "all",
          "--output", str(path3_file.parent / "r.csv")])
    assert path3_file.read_bytes() == before


def test_reproduce_all_quick(tmp_path, capsys):
    out = tmp_path / "rep"
    assert main(["reproduce-all", "--quick", "--outdir", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report) == 9
    assert all(r["passed"] for r in report)
    table = (out / "report.txt").read_text()
    assert table.count("PASS") == 9
    env = json.loads((out / "env.json").read_text())
    assert env.keys() == {"nproc", "python", "numpy", "scipy", "blas", "blas_threads"}
    assert env["nproc"] >= 1 and env["numpy"] == np.__version__ and env["blas"].keys() == {"name", "version"}
    assert env["blas_threads"] == {var: os.environ.get(var) for var in netforms.cli.BLAS_THREAD_VARS}


def test_reproduce_all_negative_control(tmp_path, capsys):
    out = tmp_path / "rep-bad"
    code = main(["reproduce-all", "--quick", "--gasket-factor", "1.6", "--outdir", str(out)])
    assert code == 2
    report = json.loads((out / "report.json").read_text())
    failed = [r["name"] for r in report if not r["passed"]]
    assert failed == ["compatibility and monotonicity"]


def _one_error_line(captured) -> dict:
    """The error object of a failed command, which must be stderr's only line."""
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    return json.loads(captured.err)["error"]


def test_demo_counterexample_negative_min_level_exit_1(tmp_path, capsys):
    # -2 is not a level: before the range rule it read rows -2 and -1 off levels 2 and 3
    out = tmp_path / "ce"
    assert main(["demo", "counterexample", "--levels", "3", "--set", "0", "--min-level", "-2", "--outdir", str(out)]) == 1
    error = _one_error_line(capsys.readouterr())
    assert error == {"type": "validation", "message": "n_min must be an integer in [0, 20], got -2"}
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("levels, factor", [("2", "1e200"), ("3", "1e-200"), ("2", "nan")],
                         ids=["overflows", "underflows", "nan"])
def test_seq_build_gasket_factor_out_of_range_exit_1(tmp_path, capsys, levels, factor):
    seq = tmp_path / "seq.json"
    assert main(["seq", "build", "gasket", "--levels", levels, "--factor", factor, "--output", str(seq)]) == 1
    error = _one_error_line(capsys.readouterr())
    assert error["type"] == "validation" and error["message"].startswith("factor")
    assert not seq.exists()


def test_reproduce_all_overflowing_gasket_factor_exit_1(tmp_path, capsys):
    assert main(["reproduce-all", "--quick", "--gasket-factor", "1e200", "--outdir", str(tmp_path / "rep")]) == 1
    error = _one_error_line(capsys.readouterr())
    assert error == {"type": "validation",
                     "message": "factor ** levels = 1e+200 ** 4 must be a finite number > 0, got inf"}


@pytest.mark.parametrize("command", [["sim", "occupy", "--horizon", "1"], ["sim", "commute", "--pair", "0,1"],
                                     ["gelfand", "pushforward"]], ids=["occupy", "commute", "pushforward"])
def test_measure_whose_total_overflows_exit_1(tmp_path, capsys, command):
    # each weight is finite, their sum is not; the suite turns numpy's overflow warning into an error
    mu = tmp_path / "mu.json"
    mu.write_text(json.dumps([1e308, 1e308]))
    net = tmp_path / "edge.json"
    net.write_text(json.dumps({"vertices": [0, 1], "edges": [{"u": 0, "v": 1, "c": 1.0}]}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"points": [0, 1], "generators": [[0.0, 1.0]]}))
    where = ["--spec", str(spec)] if command[0] == "gelfand" else ["--net", str(net), "--seed", "1", "--n", "5"]
    assert main([*command, *where, "--mu", str(mu)]) == 1
    error = _one_error_line(capsys.readouterr())
    assert error == {"type": "validation", "message": "measure weights and their total must be finite, got a total of inf"}
