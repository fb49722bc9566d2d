"""The benchmark tracer over the CLI: tracing changes no report, and the
count hooks read the results of the functions they wrap, so an API change
to a traced result fails here and not only in a traced benchmark run."""

from crjet.cli.main import main
from tests.test_cli import DILATION, HEIS, JET_LINE, M3, SYSTEM_LINE
from tests.test_layout import load_tracing


def test_traced_reports_are_identical(tmp_path, capsys):
    paths = {}
    for name, text in (("heis", HEIS), ("m3", M3), ("dilation", DILATION),
                       ("system", SYSTEM_LINE), ("jet", JET_LINE)):
        paths[name] = str(tmp_path / f"{name}.crj")
        (tmp_path / f"{name}.crj").write_text(text, encoding="utf-8")
    calls = [
        ["aut", paths["heis"], "--degree", "2"],
        ["aut", paths["m3"], "--json"],
        ["verify", paths["heis"], "--check", "frame,recursion,operators"],
        ["reflect", paths["heis"], paths["heis"], paths["dilation"],
         "--kmax", "2", "--json"],
        ["reconstruct", paths["system"], paths["jet"], "--target-order", "3",
         "--grid", "0:1:3", "--step", "0.25"],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, err

    plain = [run(argv) for argv in calls]
    assert all(code == 0 for code, _, _ in plain)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, metrics = [], []
        for argv in calls:
            tracer.reset()
            traced.append(run(argv))
            metrics.append(tracer.layer_metrics())
    finally:
        tracer.uninstall()
    assert traced == plain
    for argv, m in zip(calls, metrics):
        if argv[0] == "aut":
            assert m["autdim.unknowns"] > 0
            # one elimination per aut call
            assert m["linalg.nullspace.calls"] == 1
    assert metrics[-1]["jets.taylor.values"] > 0
    assert metrics[-1]["jets.rk4_substeps"] > 0


def test_aut_compositions_do_not_grow_with_the_degree(tmp_path, capsys):
    # one composition per gradient entry, whatever the candidates
    doc = tmp_path / "m3.crj"
    doc.write_text(M3, encoding="utf-8")
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        composed = []
        for degree in ("1", "3"):
            tracer.reset()
            assert main(["aut", str(doc), "--degree", degree,
                         "--order", "8"]) == 0
            composed.append(tracer.layer_metrics()["series.compose.calls"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert composed[0] == composed[1] > 0
