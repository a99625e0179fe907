import re
import subprocess
import sys
from pathlib import Path

import pytest

from jostspec import _kernels, bands, cli, jost, measures
from jostspec.cli import EXPERIMENTS, load_config, main, run

FREE_CONFIG = """\
[block]
q = 1
a = 1.0
b = 0.0

[perturbation]
kind = zero

[experiment]
N = 6
grid_points = 40
margin = 0.1
"""

PERTURBED_CONFIG = """\
[block]
q = 2
a = 1.0, 1.4
b = 0.1, -0.2

[perturbation]
kind = finite_list
alpha = 0.05, -0.03, 0.02
beta = 0.1, -0.08, 0.05, 0.02

[experiment]
N = 8
grid_points = 60
margin = 0.2
"""


def _write(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def test_bands_free(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    code = run(str(cfg), experiment="bands", out_dir=str(tmp_path / "out"))
    assert code == 0
    header, rows = _rows(tmp_path / "out" / "bands.csv")
    assert header == ["lo", "hi"]
    assert len(rows) == 1
    lo, hi = map(float, rows[0])
    assert lo == pytest.approx(-2.0, abs=1e-9)
    assert hi == pytest.approx(2.0, abs=1e-9)


def test_metadata_header_present(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    run(str(cfg), experiment="bands", out_dir=str(tmp_path / "out"))
    first = (tmp_path / "out" / "bands.csv").read_text().splitlines()[0]
    assert first.startswith("# jostspec=")
    assert "model=" in first and "experiment=bands" in first


def test_malformed_config_exits_2_without_output(tmp_path, capsys):
    bad = FREE_CONFIG.replace("a = 1.0", "a = -1.0")
    cfg = _write(tmp_path, bad)
    out = tmp_path / "out"
    code = run(str(cfg), experiment="bands", out_dir=str(out))
    assert code == 2
    assert not out.exists() or not any(out.iterdir())
    err = capsys.readouterr().err
    assert '"error"' in err


def test_unknown_key_rejected(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG + "\nwhatever = 3\n")
    assert run(str(cfg), experiment="bands", out_dir=str(tmp_path / "o")) == 2


def test_unknown_section_rejected(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG + "\n[extra]\nx = 1\n")
    assert run(str(cfg), experiment="bands", out_dir=str(tmp_path / "o")) == 2
    # DEFAULT is a section name like any other, so it is unknown too
    cfg = _write(tmp_path, FREE_CONFIG)
    assert run(str(cfg), overrides=["DEFAULT.x=1"], experiment="bands", out_dir=str(tmp_path / "o")) == 2


# configparser would read this q as a default for every section, [block] included
DEFAULT_SECTION_CONFIG = """\
[DEFAULT]
q = 2

[block]
a = 1.0, 1.4
b = 0.1, -0.2
"""


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_default_section_exits_2_without_output(tmp_path, capsys, experiment):
    out = tmp_path / "out"
    assert run(str(_write(tmp_path, DEFAULT_SECTION_CONFIG)), experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    assert '"message": "unknown config section [DEFAULT]"' in capsys.readouterr().err


def test_density_writes_curve(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    code = run(str(cfg), experiment="density", out_dir=str(tmp_path / "out"))
    assert code == 0
    header, rows = _rows(tmp_path / "out" / "density.csv")
    assert header == ["E", "value"]
    assert len(rows) == 40
    assert all(float(r[1]) > 0 for r in rows)


def test_density_oracle_computes_only_the_oracle_curve(tmp_path, monkeypatch):
    cfg = str(_write(tmp_path, PERTURBED_CONFIG))
    assert run(cfg, experiment="compare", out_dir=str(tmp_path / "c")) == 0
    _, compared = _rows(tmp_path / "c" / "compare.csv")

    def refuse(*args, **kwargs):
        raise AssertionError("the key formula ran for method = oracle")

    monkeypatch.setattr(jost, "density_terms", refuse)
    assert run(cfg, overrides=["experiment.method=oracle"], experiment="density", out_dir=str(tmp_path / "o")) == 0
    header, rows = _rows(tmp_path / "o" / "density.csv")
    assert header == ["E", "value"]
    # the E and density_oracle columns of compare
    assert rows == [[r[0], r[2]] for r in compared]


def test_compare_perturbed_passes_tolerance(tmp_path):
    cfg = _write(tmp_path, PERTURBED_CONFIG)
    code = run(str(cfg), experiment="compare", out_dir=str(tmp_path / "out"))
    assert code == 0
    header, rows = _rows(tmp_path / "out" / "compare.csv")
    assert header == ["E", "density_key", "density_oracle", "rel_err"]
    assert max(float(r[3]) for r in rows) < 1e-5


# A q = 2 random model whose upper band has a sharp density peak near its
# edge, at E ~ 2.4553: boundary values extrapolated from Im zeta >= 1e-5 are
# off there by 3.2e-5 relative.
PEAKED_CONFIG = """\
[block]
q = 2
a = 0.767690000632964, 1.566578120598905
b = 0.04801344611576297, 0.3286731570597735

[perturbation]
kind = finite_list
alpha = 0.003589449153319699, 0.013705382924763131, -0.057252201359362036, -0.03847125767921969, \
0.021457168334703427, 0.008667477799490916, -0.041939821787978074, 0.05552293593512369, \
-0.04245588160775438, 0.001265552287746069, -0.04372726929628791, 0.0266998560883334, \
-0.027475561976140483, -0.04493947021925412, -0.0557665762493481, -0.039940080978750514, \
-0.0378564869365705, 0.004541295326379434, -0.006013913200972054, 0.05616965009381103
beta = 0.10899632084799418, 0.07117106651242328, 0.04118103215536881, 0.08280554197640314, \
0.10530043883517229, -0.11457174506711934, -0.0916547454837939, -0.033536667675925655, \
-0.09753915526977606, 0.02388587353278651, -0.05751258663645393, -0.05655846500824188, \
-0.05080128272451226, -0.09654824217974639, 0.05782666877715814, 0.036161383103916034, \
0.025561941753902973, -0.11182906025333389, -0.016928605286669396, 0.04444886157596223

[experiment]
N = 13
grid_points = 200
margin = 0.05
"""

BASELINE_CONFIG = """\
[block]
q = 2
a = 1.0, 1.4
b = 0.1, -0.2

[perturbation]
kind = power_decay_oscillatory
c = 0.8
s = 0.5
gamma = 0.2
target = b

[experiment]
grid_points = 200
margin = 0.1
"""


@pytest.mark.parametrize(
    "config, n",
    [
        pytest.param(PEAKED_CONFIG, 13, id="peaked-N13"),
        # densities down to 1.6e-11 (N = 40) and 1.95e-143 (N = 1000)
        pytest.param(BASELINE_CONFIG, 40, id="baseline-N40"),
        pytest.param(BASELINE_CONFIG, 1000, id="baseline-N1000"),
    ],
)
def test_compare_agrees_at_any_density_scale(tmp_path, config, n):
    cfg = _write(tmp_path, config)
    code = run(str(cfg), overrides=[f"experiment.N={n}"], experiment="compare", out_dir=str(tmp_path / "out"))
    assert code == 0
    _, rows = _rows(tmp_path / "out" / "compare.csv")
    assert len(rows) == 200
    assert max(float(r[3]) for r in rows) <= 1e-11


def test_compare_exit_3_when_tolerance_unreachable(tmp_path):
    cfg = _write(tmp_path, PERTURBED_CONFIG)
    code = run(
        str(cfg),
        overrides=["experiment.tol=1e-18"],
        experiment="compare",
        out_dir=str(tmp_path / "out"),
    )
    assert code == 3
    assert (tmp_path / "out" / "compare.csv").exists()


def test_entropy_rows_and_convergence_orders(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG + "N_list = 4, 8\nquad_order = 32\n")
    code = run(str(cfg), experiment="entropy", out_dir=str(tmp_path / "out"))
    assert code == 0
    header, rows = _rows(tmp_path / "out" / "entropy.csv")
    assert header == ["N", "I_lo", "I_hi", "value", "quad_order"]
    assert len(rows) == 4  # two N values x two quadrature orders
    orders = {r[4] for r in rows}
    assert orders == {"32", "64"}


BASELINE_CONFIG = """\
[block]
q = 2
a = 1.0, 1.4
b = 0.1, -0.2

[perturbation]
kind = power_decay_oscillatory
c = 0.8
s = 0.5
gamma = 0.2
target = b

[experiment]
margin = 0.1
quad_order = 16
"""


def test_entropy_rows_follow_n_list_with_duplicates(tmp_path):
    def rows(n_list):
        name = n_list.replace(", ", "-")
        cfg = _write(tmp_path, BASELINE_CONFIG + f"N_list = {n_list}\n", name=f"{name}.ini")
        assert run(str(cfg), experiment="entropy", out_dir=str(tmp_path / name)) == 0
        return _rows(tmp_path / name / "entropy.csv")[1]

    got = rows("40, 10, 40")
    assert [r[0] for r in got] == ["40", "40", "10", "10", "40", "40"]
    assert [r[4] for r in got] == ["16", "32"] * 3
    assert got == rows("40") + rows("10") + rows("40")
    assert got[0][3] != got[2][3]


def test_entropy_runs_one_recursion_ladder_over_n_list(tmp_path, monkeypatch):
    calls = []
    jost_backward = _kernels.jost_backward

    def counting(*args, **kwargs):
        joins = [k for k, *_ in kwargs.get("joins", ())]
        calls.append((len(args[0]) - 1, args[3].shape, len(args[2]), joins))
        return jost_backward(*args, **kwargs)

    monkeypatch.setattr(_kernels, "jost_backward", counting)
    cfg = _write(tmp_path, FREE_CONFIG + "N_list = 200, 100, 400\nquad_order = 8\n")
    assert run(str(cfg), experiment="entropy", out_dir=str(tmp_path / "out")) == 0
    # (sites, (rungs, energies) of the boundary pairs, energies, join sites)
    # per call, the energies the nodes of both orders, 8 + 16.  On q = 1,
    # N = 200 and N = 100 join at the block boundaries 193 and 65 below sites
    # 199 and 99 and run their own 8 and 36 top steps; N = 400 walks from its
    # top in one call, which takes their pairs in as rungs at sites 193 and
    # 65, so 444 sites are walked, not 700, and each call passes the 24
    # energies once.
    assert calls == [(8, (1, 24), 24, []), (36, (1, 24), 24, []), (400, (1, 24), 24, [193, 65])]


THREE_BAND_CONFIG = """\
[block]
q = 3
a = 1.0, 1.3, 0.8
b = 0.2, -0.3, 0.1

[perturbation]
kind = finite_list
alpha = 0.05, -0.03
beta = 0.1, -0.08, 0.05

[experiment]
N = 4
N_list = 4
grid_points = 20
quad_order = 8
margin = 0.1
n_grid = 8, 16
"""


@pytest.mark.parametrize("experiment", ["density", "compare", "entropy", "certify"])
def test_auto_interval_computes_strip_constants_once(tmp_path, monkeypatch, experiment):
    # only certify reads eps_I and C_I, and it computes them for the widest band alone
    cfg = _write(tmp_path, THREE_BAND_CONFIG)
    pairs = bands.trimmed_bands(load_config(str(cfg), [], experiment).block, 0.1)
    assert len(pairs) == 3
    widest = pairs[bands._widest_index(pairs)]
    calls = []
    interval_constants = bands.interval_constants

    def counting(*args, **kwargs):
        calls.append(args[1])
        return interval_constants(*args, **kwargs)

    monkeypatch.setattr(bands, "interval_constants", counting)
    monkeypatch.setattr(cli, "interval_constants", counting)
    assert run(str(cfg), experiment=experiment, out_dir=str(tmp_path / "out")) == 0
    assert calls == ([widest] if experiment == "certify" else [])


# Bands (-1.99985, 0) and (3e-4, 2.00015): no point of a 129-point grid on
# [-1.5, 1.6] falls in the gap.  Bands (-2, 0) and (0, 2) meet at a closed gap.
NARROW_GAP_CONFIG = """\
[block]
q = 2
a = 1, 1
b = 0, 3e-4

[experiment]
N = 4
N_list = 4
grid_points = 20
quad_order = 8
interval = -1.5, 1.6
n_grid = 8, 16
"""
CLOSED_GAP_CONFIG = NARROW_GAP_CONFIG.replace("b = 0, 3e-4", "b = 0, 0").replace("-1.5, 1.6", "-1, 1")


@pytest.mark.parametrize("config", [NARROW_GAP_CONFIG, CLOSED_GAP_CONFIG], ids=["narrow-gap", "closed-gap"])
@pytest.mark.parametrize("experiment", ["density", "compare", "entropy", "certify"])
def test_interval_across_a_gap_exits_2_without_output(tmp_path, capsys, config, experiment):
    out = tmp_path / "out"
    assert run(str(_write(tmp_path, config)), experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    assert "is not inside one band interior" in capsys.readouterr().err


# Floats whose shortest repr and 17-digit form differ, or that have special spellings.
SPECIAL_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    1.0, -3.0, 1e22, 2.0**53, 0.1, -1.0 / 3.0,
]


def test_csv_values_match_format_17g(tmp_path, monkeypatch):
    hi = SPECIAL_FLOATS[::-1]
    expected = [",".join(format(x, ".17g") for x in row) for row in zip(SPECIAL_FLOATS, hi)]
    assert cli._fmt_rows(SPECIAL_FLOATS, hi) == expected
    monkeypatch.setattr(cli, "band_edges", lambda block: bands.BandSet(tuple(zip(SPECIAL_FLOATS, hi))))
    assert run(str(_write(tmp_path, FREE_CONFIG)), experiment="bands", out_dir=str(tmp_path / "out")) == 0
    data = (tmp_path / "out" / "bands.csv").read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n") and not data.endswith(b"\n\n")
    body = [line for line in data.decode().split("\n")[:-1] if not line.startswith("#")]
    assert body == ["lo,hi", *expected]


def test_certify_free_passes(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG + "n_grid = 8, 16, 32\n")
    code = run(str(cfg), experiment="certify", out_dir=str(tmp_path / "out"))
    assert code == 0
    header, rows = _rows(tmp_path / "out" / "certify.csv")
    assert header == ["name", "passed", "constant_name", "constant_value", "worst_E", "worst_y"]
    names = {r[0] for r in rows}
    assert names == {
        "floquet_strip_bound",
        "w_square_summability",
        "diagonal_product_bound",
        "harmonic_hypotheses",
    }
    assert all(r[1] == "true" for r in rows)
    # the two strip certificates say where their constant is attained
    assert all(r[4] and r[5] for r in rows if r[0] in ("floquet_strip_bound", "diagonal_product_bound"))


def test_set_override_changes_grid(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    run(
        str(cfg),
        overrides=["experiment.grid_points=17"],
        experiment="density",
        out_dir=str(tmp_path / "out"),
    )
    _, rows = _rows(tmp_path / "out" / "density.csv")
    assert len(rows) == 17


def test_deterministic_output_bytes(tmp_path):
    cfg = _write(tmp_path, PERTURBED_CONFIG)
    run(str(cfg), experiment="compare", out_dir=str(tmp_path / "a"))
    run(str(cfg), experiment="compare", out_dir=str(tmp_path / "b"))
    assert (tmp_path / "a" / "compare.csv").read_bytes() == (
        tmp_path / "b" / "compare.csv"
    ).read_bytes()


def test_console_entry_point(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    proc = subprocess.run(
        [sys.executable, "-m", "jostspec.cli", "bands", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "bands.csv").exists()



@pytest.mark.parametrize(
    "text",
    [
        FREE_CONFIG.encode() + b"n_grid = 16, x\n",
        FREE_CONFIG.replace("[block]\n", "").encode(),
        FREE_CONFIG.replace("b = 0.0\n", "b = 0.0\nb = 0.5\n").encode(),
        FREE_CONFIG.encode() + b"tol = \xff\xfe\n",
        DEFAULT_SECTION_CONFIG.encode(),
    ],
    ids=["n_grid-not-a-number", "no-section-header", "duplicate-key", "undecodable-bytes", "default-section"],
)
def test_malformed_config_text_exits_2_without_output(tmp_path, capsys, text):
    cfg = tmp_path / "config.ini"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    assert run(str(cfg), experiment="certify", out_dir=str(out)) == 2
    assert not out.exists() or not any(out.iterdir())
    assert '"error": "ValidationError"' in capsys.readouterr().err


@pytest.mark.parametrize("key", ["N_list", "n_grid"])
@pytest.mark.parametrize("experiment", ["bands", "density", "entropy", "certify", "compare"])
def test_infinite_integer_list_exits_2_without_output(tmp_path, capsys, experiment, key):
    # the lists are parsed for every experiment; int() rejects inf
    cfg = _write(tmp_path, FREE_CONFIG + f"{key} = 10, inf\n")
    out = tmp_path / "out"
    assert run(str(cfg), experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    assert '"error": "ValidationError"' in capsys.readouterr().err


def test_seed_key_exits_2_without_output(tmp_path, capsys):
    # the certificates are deterministic and take no seed
    cfg = _write(tmp_path, FREE_CONFIG + "seed = 0\n")
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert '"message": "unknown key \'seed\' in [experiment]"' in capsys.readouterr().err


@pytest.mark.parametrize("value", ["double", "extended"])
def test_precision_key_exits_2_without_output(tmp_path, capsys, value):
    # the site recursion runs in double precision only
    cfg = _write(tmp_path, FREE_CONFIG + f"precision = {value}\n")
    out = tmp_path / "out"
    assert main(["density", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert '"message": "unknown key \'precision\' in [experiment]"' in capsys.readouterr().err


def test_seed_flag_is_an_argparse_error(tmp_path):
    cfg = _write(tmp_path, FREE_CONFIG)
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--config", str(cfg), "--out", str(out), "--seed", "0"])
    assert exc.value.code == 2
    assert not out.exists()


def test_main_calls_in_one_process_share_nothing(tmp_path, capsys):
    # main() reuses one parser: an override, a --help exit or a successful
    # call leaves nothing behind for the next call
    cfg = _write(tmp_path, FREE_CONFIG)
    argv = ["density", "--config", str(cfg), "--out"]
    assert main([*argv, str(tmp_path / "a"), "--set", "experiment.grid_points=17"]) == 0
    assert main([*argv, str(tmp_path / "b")]) == 0
    assert [len(_rows(tmp_path / out / "density.csv")[1]) for out in "ab"] == [17, 40]
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1] and "--set section.key=value" in helps[0]
    with pytest.raises(SystemExit) as exc:
        main([*argv, str(tmp_path / "c"), "--bogus"])
    assert exc.value.code == 2
    assert not (tmp_path / "c").exists()


def test_non_finite_strip_probe_exits_2_without_output(tmp_path, capsys):
    # every strip probe of the band (1e-152, 1.99e-150) overflows; the error
    # names the first probe, not a block of the chain at half an eps_I that
    # no probe certified
    block = "[block]\nq = 2\na = 1e-150, 1e-150\nb = 0, 0\n"
    cfg = _write(tmp_path, block + "\n[experiment]\nmargin = 1e-152\nn_grid = 4, 8\n")
    out = tmp_path / "out"
    assert main(["certify", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == [
        '{"error": "DegenerateBranchError", "message": "no finite Floquet multiplier at zeta = (1e-152+0.1j)"}'
    ]


@pytest.mark.parametrize("experiment", ["density", "entropy", "certify", "compare"])
def test_nan_margin_exits_2_without_output(tmp_path, capsys, experiment):
    # NaN passed a `margin <= 0` test and left no interval to choose from
    cfg = _write(tmp_path, FREE_CONFIG.replace("margin = 0.1", "margin = nan"))
    out = tmp_path / "out"
    assert run(str(cfg), experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    assert '"message": "margin must be positive"' in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["density", "entropy", "certify", "compare"])
def test_non_finite_coefficients_exit_2_without_output(tmp_path, capsys, experiment):
    # at s = 1000, n**s overflows and cos(inf) is NaN: entropy wrote nan
    # values, certify nan rows, and density and compare failed only after
    # the whole computation
    cfg = _write(tmp_path, BASELINE_CONFIG.replace("s = 0.5\n", "s = 1000\n").replace("target = b\n", "target = both\n"))
    out = tmp_path / "out"
    overrides = ["experiment.N=40", "experiment.N_list=20, 40"]
    assert run(str(cfg), overrides=overrides, experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert err == ['{"error": "CoefficientError", "message": "a(3) = nan is not finite"}']


# (config, override, experiments it reaches); each value is rejected before
# anything is computed or written.
REJECTED_VALUES = [
    (BASELINE_CONFIG, "perturbation.gamma=nan", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.gamma=inf", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.c=nan", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.s=inf", EXPERIMENTS),
    (PERTURBED_CONFIG, "perturbation.alpha=0.05, nan", EXPERIMENTS),
    (PERTURBED_CONFIG, "perturbation.beta=inf", EXPERIMENTS),
    # margin and interval are checked when parsed, also in bands, which reads neither
    (PERTURBED_CONFIG, "experiment.interval=0.5, inf", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.interval=1, 0.5", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.margin=-1", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.margin=nan", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.margin=inf", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.tol=nan", EXPERIMENTS),
    (PERTURBED_CONFIG, "experiment.tol=0", EXPERIMENTS),
    # keys the perturbation kind does not read are still parsed
    (PERTURBED_CONFIG, "perturbation.c=abc", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.alpha=0.1, y", EXPERIMENTS),
    # and must be finite, as the kind that reads them requires
    (FREE_CONFIG, "perturbation.c=inf", EXPERIMENTS),
    (FREE_CONFIG, "perturbation.s=nan", EXPERIMENTS),
    (PERTURBED_CONFIG, "perturbation.gamma=-inf", EXPERIMENTS),
    (FREE_CONFIG, "perturbation.alpha=0.1, nan", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.beta=-inf", EXPERIMENTS),
    # ranges are checked when parsed, also in experiments that do not read the key
    (BASELINE_CONFIG, "experiment.N=0", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.quad_order=2", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.grid_points=1", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.N_list=0", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.N_list=10, 0", EXPERIMENTS),
    # an empty schedule would write a header and no rows
    (BASELINE_CONFIG, "experiment.N_list=", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.n_grid=8, 0", EXPERIMENTS),
    # integer lists take integers only, as N does
    (BASELINE_CONFIG, "experiment.N_list=10.6, 20.4", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.N_list=1e30", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.n_grid=8.5, 16", EXPERIMENTS),
    # the summability certificate needs an increment, so 2 distinct entries
    (BASELINE_CONFIG, "experiment.n_grid=128", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.n_grid=64, 64", EXPERIMENTS),
    # its increments are over windows [m, 2m), so each entry doubles the last;
    # at s = 1.5, outside the hypothesis, this grid passed the certificate
    (BASELINE_CONFIG.replace("s = 0.5\n", "s = 1.5\n"), "experiment.n_grid=16, 4000, 4001", EXPERIMENTS),
    (BASELINE_CONFIG.replace("gamma = 0.2\n", ""), None, EXPERIMENTS),
    # enumerations are checked when parsed, also where unread
    (FREE_CONFIG, "perturbation.target=xyz", EXPERIMENTS),
    (BASELINE_CONFIG, "perturbation.target=ab", EXPERIMENTS),
    (FREE_CONFIG, "perturbation.kind=sine", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.method=fast", EXPERIMENTS),
    # compare writes both density curves, so density computes one
    (BASELINE_CONFIG, "experiment.method=both", EXPERIMENTS),
    # nothing read the declared flag, so the key is unknown
    (BASELINE_CONFIG, "perturbation.l2_admissible=true", EXPERIMENTS),
    # the site recursion runs in double precision only, so the key is unknown
    (BASELINE_CONFIG, "experiment.precision=quad", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.precision=double", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.precision=extended", EXPERIMENTS),
    # the certificates take no seed, so the key is unknown
    (BASELINE_CONFIG, "experiment.seed=-1", EXPERIMENTS),
    (BASELINE_CONFIG, "experiment.seed=0", EXPERIMENTS),
]


@pytest.mark.parametrize(
    "config, override, experiment",
    [
        pytest.param(config, override, experiment, id=f"{override or 'no-gamma'}-{experiment}")
        for config, override, experiments in REJECTED_VALUES
        for experiment in experiments
    ],
)
def test_rejected_value_exits_2_without_output(tmp_path, capsys, config, override, experiment):
    cfg = _write(tmp_path, config)
    out = tmp_path / "out"
    overrides = [override] if override else []
    assert run(str(cfg), overrides=overrides, experiment=experiment, out_dir=str(out)) == 2
    assert not out.exists()
    assert '"error": "ValidationError"' in capsys.readouterr().err


def test_bad_enumeration_names_its_choices(tmp_path, capsys):
    cfg = _write(tmp_path, FREE_CONFIG)
    out = tmp_path / "out"
    assert run(str(cfg), overrides=["perturbation.target=xyz"], experiment="bands", out_dir=str(out)) == 2
    assert not out.exists()
    assert '"message": "target must be one of a, b, both; got \'xyz\'"' in capsys.readouterr().err


@pytest.mark.parametrize(
    "override, parsed, expected",
    [
        ("experiment.n_grid=128, 64, 256", lambda cfg: cfg.params["n_grid"], (128, 64, 256)),
        ("experiment.interval=-1.5, 0.5", lambda cfg: cfg.params["interval"], (-1.5, 0.5)),
    ],
)
def test_config_value_parsed(tmp_path, override, parsed, expected):
    cfg = load_config(str(_write(tmp_path, BASELINE_CONFIG)), [override], "bands")
    assert parsed(cfg) == expected


def test_readme_grammar_lists_exactly_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (grammar,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    listed = {}
    for line in grammar.splitlines():
        if header := re.fullmatch(r"\[(\w+)\]", line.strip()):
            section = listed.setdefault(header[1], set())
        elif key := re.match(r"#?\s*(\w+)\s*=", line):  # commented keys count too
            section.add(key[1])
    assert listed == {name: set(table) for name, table in cli._SECTIONS.items()}


def _readme_csv_schemas():
    """(experiment, header) pairs of the README's CSV schemas table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### CSV schemas\n", 1)[1].split("\n#", 1)[0]
    pairs = []
    # the rows after the column names and the |---| line
    for row in [line for line in table.splitlines() if line.startswith("|")][2:]:
        match = re.fullmatch(r"\| (\w+) \| `([\w,]+)` \|", row)
        assert match, f"a schema row must name one experiment and one header: {row!r}"
        pairs.append(match.groups())
    return pairs


def test_readme_csv_schemas_list_every_experiment_once():
    assert sorted(name for name, _ in _readme_csv_schemas()) == sorted(EXPERIMENTS)


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        pytest.param("bands", [], id="bands"),
        pytest.param("density", ["experiment.method=key_formula"], id="density-key_formula"),
        pytest.param("density", ["experiment.method=oracle"], id="density-oracle"),
        pytest.param("entropy", [], id="entropy"),
        pytest.param("certify", [], id="certify"),
        pytest.param("compare", [], id="compare"),
    ],
)
def test_csv_header_matches_readme_schema(tmp_path, experiment, overrides):
    cfg = _write(tmp_path, FREE_CONFIG + "N_list = 4\nquad_order = 8\nn_grid = 8, 16\n")
    assert run(str(cfg), overrides=overrides, experiment=experiment, out_dir=str(tmp_path / "out")) == 0
    header, _ = _rows(tmp_path / "out" / f"{experiment}.csv")
    assert ",".join(header) == dict(_readme_csv_schemas())[experiment]
