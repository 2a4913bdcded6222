"""Config grammar, determinism contracts, and the command-line surface."""

import dataclasses
import json

import numpy as np
import pytest

from sschain import cli
from sschain import config as C
from sschain import kernels as K
from sschain.streams import STREAM_BLOCK

BASE = """\
seed = 7
replicates = 200

[kernel]
type = barrier
[kernel.q]
type = power_tail
gamma = 0.5

[grids]
n = 16 32 64
lambda = 0.5 1
t = 0.5 1
"""


def test_parse_nested_sections_and_comments():
    tree = C.parse_config_text("""
    a = 1   # trailing comment
    [x]
    b = two words
    [x.y]
    c = 3
    """)
    assert tree["a"] == "1"
    assert tree["x"]["b"] == "two words"
    assert tree["x"]["y"]["c"] == "3"


def test_parse_rejects_bad_lines():
    with pytest.raises(C.ConfigError):
        C.parse_config_text("just some words\n")
    with pytest.raises(C.ConfigError):
        C.parse_config_text("= 3\n")


def test_experiment_config_fields():
    cfg = C.ExperimentConfig.from_text(BASE)
    assert cfg.seed == 7
    assert cfg.n_grid == (16, 32, 64)
    assert cfg.lambda_grid == (0.5, 1.0)
    assert isinstance(cfg.kernel(), K.BarrierKernel)
    assert len(cfg.digest) == 64


def test_validation_errors_name_fields():
    with pytest.raises(C.ConfigError) as err:
        C.ExperimentConfig.from_text("replicates = 5\n")
    assert "seed" in str(err.value)
    with pytest.raises(C.ConfigError) as err:
        C.ExperimentConfig.from_text("seed = 1\n[grids]\nn = \n")
    assert "grids.n" in str(err.value)
    with pytest.raises(C.ConfigError) as err:
        C.ExperimentConfig.from_text("seed = 1\n[grids]\nn = 8 4\n")
    assert "grids.n" in str(err.value)
    with pytest.raises(C.ConfigError) as err:
        C.ExperimentConfig.from_text("seed = x\n")
    assert "seed" in str(err.value)
    # grid point j uses streams j * STREAM_BLOCK + i, i < replicates
    C.ExperimentConfig.from_text(f"seed = 1\nreplicates = {STREAM_BLOCK - 1}\n")
    with pytest.raises(C.ConfigError) as err:
        C.ExperimentConfig.from_text(f"seed = 1\nreplicates = {STREAM_BLOCK}\n")
    assert "replicates" in str(err.value)


def test_measure_expression_parser():
    mu = C.parse_measure("atom(0.5, 0) + barrier(0.5) + lebesgue(2)")
    assert mu.atom0 == 0.5
    assert mu.total_mass == pytest.approx(0.5 + 1.0 + 2.0)
    with pytest.raises(C.ConfigError):
        C.parse_measure("mystery(1)")
    with pytest.raises(C.ConfigError):
        C.parse_measure("atom(oops, 0)")


def test_levy_expression_parser():
    om = C.parse_levy_measure("atom(1, 0.693147)")
    assert om.atoms == ((0.693147, 1.0),)
    om2 = C.parse_levy_measure("barrier_tail(0.5)")
    assert om2.tail_index == 0.5
    om3 = C.parse_levy_measure("barrier_tail(0.5) + atom(0.3, 2)")
    assert om3.atoms and om3.density is not None
    # the barrier's closed forms describe its density part, so the atoms keep them
    assert om3.unit_beta_terms == om2.unit_beta_terms
    assert om3.tail_inverse is not None
    assert om3.tail_inverse(0.7) == om2.tail_inverse(0.7)


@pytest.mark.parametrize("parse, expr, term", [
    (C.parse_measure, "barrier(0.5) + atom(1)", "atom(1)"),
    (C.parse_measure, "lebesgue(1) + barrier(2)", "barrier(2)"),
    (C.parse_levy_measure, "atom(1, 2, 3)", "atom(1, 2, 3)"),
    (C.parse_levy_measure, "atom(1, -2)", "atom(1, -2)"),
])
def test_bad_terms_name_the_field_and_the_term(parse, expr, term):
    # wrong arity and a refused value each fail one term
    with pytest.raises(C.ConfigError) as err:
        parse(expr, "kernel.x")
    assert err.value.fieldname == "kernel.x"
    assert f"bad term {term!r}" in str(err.value)


def test_kernel_builders_roundtrip():
    for text, cls in [
        ("type = coalescent\nLambda = beta_density(1.5, 1)", K.CoalescentKernel),
        ("type = composition\nomega = barrier_tail(0.5)", K.CompositionKernel),
        ("type = canonical\nmeasure = lebesgue(1)\ngamma = 0.5", K.CanonicalKernel),
        ("type = truncated\n[q]\ntype = power_tail\ngamma = 0.5", K.TruncatedKernel),
    ]:
        kernel = C.build_kernel(C.parse_config_text(text))
        assert isinstance(kernel, cls)


def _run(tmp_path, cmd, text, extra=()):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    return cli.main([cmd, "--config", str(cfg_path), "--out", str(tmp_path),
                     *extra])


def test_json_default_takes_numpy_scalars_and_arrays():
    obj = {"s": np.float64(0.5), "i": np.int64(3), "a": np.arange(3), "m": np.eye(2)}
    assert json.loads(json.dumps(obj, default=cli._json_default)) == {
        "s": 0.5, "i": 3, "a": [0, 1, 2], "m": [[1.0, 0.0], [0.0, 1.0]]}
    with pytest.raises(TypeError, match="not JSON-serializable: object"):
        json.dumps(object(), default=cli._json_default)


def test_cli_simulate_chain_and_determinism(tmp_path, capsys):
    text = BASE
    rc = _run(tmp_path, "simulate-chain", text)
    assert rc == 0
    digest = C.config_digest(text)
    record = tmp_path / "runs" / f"simulate-chain-{digest[:12]}.jsonl"
    assert record.exists()
    lines1 = record.read_text().splitlines()
    header = json.loads(lines1[0])
    assert header["config_digest"] == digest
    assert header["passed"] is True
    # replicate records carry the chain-engine schema
    rec = json.loads(lines1[2])
    assert {"kernel", "n", "seed", "stream", "absorption_time"} <= set(rec)
    # byte-identical estimates on a re-run
    rc = _run(tmp_path, "simulate-chain", text)
    assert rc == 0
    lines2 = record.read_text().splitlines()
    assert lines1[1:] == lines2[1:]


def test_cli_path_dumps_match_replicate_records(tmp_path):
    # the barrier family's batch step maps uniforms to jumps differently from
    # single-path inverse CDF, so a dump must replay the batch sampler
    text = BASE.replace("[kernel]", "dump_paths = 2\n\n[kernel]")
    assert _run(tmp_path, "simulate-chain", text) == 0
    [record] = (tmp_path / "runs").iterdir()
    times = {(r["n"], r["stream"] % STREAM_BLOCK): r["absorption_time"]
             for r in map(json.loads, record.read_text().splitlines()[2:])}
    for n in (16, 32, 64):
        for i in range(2):
            rows = (tmp_path / "tables" / f"path_n{n}_r{i}.csv").read_text().splitlines()
            last_step, last_state = map(int, rows[-1].split(","))
            assert last_step == times[n, i]
            assert last_state == 0


def test_cli_out_dir_does_not_change_record(tmp_path):
    # the output directory is not part of the experiment: same digest, same record
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    assert (_run(dir_a, "simulate-chain", BASE), _run(dir_b, "simulate-chain", BASE)) == (0, 0)
    [rec_a] = (dir_a / "runs").iterdir()
    [rec_b] = (dir_b / "runs").iterdir()
    assert rec_a.name == rec_b.name == f"simulate-chain-{C.config_digest(BASE)[:12]}.jsonl"
    assert rec_a.read_text().splitlines()[1:] == rec_b.read_text().splitlines()[1:]


@pytest.mark.parametrize("suite", ["simulate-chain", "simulate-limit"])
def test_cli_records_ride_beside_the_estimates(tmp_path, suite):
    # an output directory changes where a run is written, not what it returns
    cfg = C.ExperimentConfig.from_text(BASE.replace("replicates = 200", "replicates = 20"))
    bare = cli.run(cfg, suite)
    kept = cli.run(dataclasses.replace(cfg, out_dir=str(tmp_path)), suite)
    assert bare.estimates == kept.estimates and bare.records == kept.records
    assert bare.records and not any(k.startswith("_") for k in bare.estimates)
    [record] = (tmp_path / "runs").iterdir()
    lines = record.read_text().splitlines()
    assert json.loads(lines[1])["estimates"] == json.loads(
        json.dumps(kept.estimates, default=cli._json_default))
    assert [json.loads(line) for line in lines[2:]] == json.loads(
        json.dumps(kept.records, default=cli._json_default))


def test_cli_refuses_mismatched_digest(tmp_path):
    rc = _run(tmp_path, "exact-moments", BASE)
    assert rc == 0
    digest = C.config_digest(BASE)
    record = tmp_path / "runs" / f"exact-moments-{digest[:12]}.jsonl"
    record.write_text(json.dumps({"type": "run", "config_digest": "zzz"}) + "\n")
    cfg = dataclasses.replace(C.ExperimentConfig.from_text(BASE), out_dir=str(tmp_path))
    with pytest.raises(RuntimeError):
        cli.run(cfg, "exact-moments")


def test_cli_exact_moments_emits_table(tmp_path):
    rc = _run(tmp_path, "exact-moments", BASE)
    assert rc == 0
    table = (tmp_path / "tables" / "moments.csv").read_text().splitlines()
    assert table[0] == "n,p,moment,normalized"
    assert len(table) == 1 + 3 * 65  # header + (n_max+1) rows x p in {0,1,2}


def test_cli_diagnose_h(tmp_path):
    rc = _run(tmp_path, "diagnose-h", BASE.replace("n = 16 32 64",
                                                   "n = 64 128 256 512"))
    assert rc == 0
    assert (tmp_path / "tables" / "diagnostic.csv").exists()


def test_cli_unknown_flag_is_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["diagnose-h", "--frobnicate", "1"])
    with pytest.raises(SystemExit):
        cli.main(["not-a-command"])


def test_cli_composition_subcommand(tmp_path):
    text = """\
seed = 5
replicates = 2000

[kernel]
type = composition
omega = atom(1, 0.6931471805599453)

[grids]
n = 2 3
lambda = 1
t = 1
"""
    rc = _run(tmp_path, "composition", text)
    assert rc == 0


def test_cli_barrier_triple_subcommand(tmp_path):
    rc = _run(tmp_path, "barrier-triple",
              BASE.replace("replicates = 200", "replicates = 100"))
    assert rc == 0


def test_cli_coalescent_subcommand(tmp_path):
    text = """\
seed = 5
replicates = 400

[kernel]
type = coalescent
Lambda = beta_density(1.5, 1)

[grids]
n = 64 128 256
lambda = 1
t = 1
"""
    # small n: the finite-size bias dominates, so expect a FAIL exit (1),
    # but the machinery must run end to end and leave a record
    rc = _run(tmp_path, "coalescent", text)
    assert rc in (0, 1)
    digest = C.config_digest(text)
    assert (tmp_path / "runs" / f"coalescent-{digest[:12]}.jsonl").exists()


@pytest.mark.parametrize("lam", ["atom(1, 0.5)", "lebesgue(1)"])
def test_cli_coalescent_bad_lambda_is_config_error(tmp_path, capsys, lam):
    # an atomic Lambda has no tail index; lebesgue(1) has beta = 1, outside (0, 1)
    text = f"""\
seed = 5
replicates = 10

[kernel]
type = coalescent
Lambda = {lam}

[grids]
n = 8 16
"""
    assert _run(tmp_path, "coalescent", text) == 2
    assert "kernel.Lambda" in capsys.readouterr().err


@pytest.mark.parametrize("block, field", [
    ("type = barrier\n[kernel.q]\ntype = power_tail\ngamma = 1", "kernel.q"),
    ("type = barrier\n[kernel.q]\ntype = power_tail\ngamma = -1", "kernel.q"),
    ("type = barrier\n[kernel.q]\ntype = finite\nprobs = 0.5 0.4", "kernel.q"),
    ("type = canonical\nmeasure = lebesgue(1)\ngamma = 0", "kernel"),
    ("type = composition\nomega = atom(0, 1)", "kernel.omega"),
], ids=["barrier-gamma1", "power-tail-gamma-neg", "finite-mass", "canonical-gamma0",
        "composition-zero-atom"])
def test_cli_kernel_constructor_error_is_config_error(tmp_path, capsys, block, field):
    # values a step-law, measure or kernel constructor refuses exit 2, naming the field
    assert _run(tmp_path, "simulate-chain", f"seed = 5\n[kernel]\n{block}\n") == 2
    assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("block, field", [
    ("gamma = 0.5", "kernel.type"),
    ("type = barrier", "kernel.q"),
    ("type = barrier\n[kernel.q]\ngamma = 0.5", "kernel.q.type"),
    ("type = canonical\nmeasure = lebesgue(1)", "kernel.gamma"),
], ids=["kernel-type", "barrier-q", "q-type", "canonical-gamma"])
def test_cli_missing_kernel_field_is_named_from_root(tmp_path, capsys, block, field):
    assert _run(tmp_path, "exact-moments", f"seed = 5\n[kernel]\n{block}\n") == 2
    assert f"config field '{field}'" in capsys.readouterr().err


def test_cli_exact_moments_refuses_an_absorbing_state_as_config_error(tmp_path, capsys):
    # the coalescent waits at one block forever; collapsing it would change A_n
    text = "seed = 5\n[kernel]\ntype = coalescent\nLambda = beta_density(1.5, 1)\n" \
           "[grids]\nn = 16 32\n"
    assert _run(tmp_path, "exact-moments", text) == 2
    [line] = capsys.readouterr().err.splitlines()
    # no config field can collapse a kernel, so the message names no Python call
    assert line == ("error: config field 'kernel': state 1 is absorbing; "
                    "exact-moments needs 0 to be the only absorbing state"), line


def test_cli_out_config_key(tmp_path):
    text = f"out = {tmp_path / 'o'}\n" + BASE
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(text)
    assert cli.main(["exact-moments", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "o" / "runs" / f"exact-moments-{C.config_digest(text)[:12]}.jsonl").exists()


def test_cli_simulate_limit_subcommand(tmp_path):
    rc = _run(tmp_path, "simulate-limit",
              BASE.replace("replicates = 200", "replicates = 4000"))
    assert rc == 0
