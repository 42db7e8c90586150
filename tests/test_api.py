"""The session-layer facade: parity between built-in names and
library objects, the built-in tables, request coercion, emitters, and
the CLI."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import (
    LIBRARIES,
    RegistryError,
    Session,
    SynthesisRequest,
    ascii_plot,
    parse_spec,
)
from repro.api.cli import main as cli_main
from repro.core.filters import ParetoFilter
from repro.core.report import figure3_report
from repro.core.specs import adder_spec, alu_spec, counter_spec, make_spec
from repro.legend import build_library
from repro.legend.stdlib_source import FIGURE_2_COUNTER_SOURCE
from repro.techlib import lsi_logic_library

REPO_SRC = Path(__file__).resolve().parent.parent / "src"


def _legacy_synthesize(target, library, **kwargs):
    """The object-based construction the pre-session entry points
    used: a library object instead of a built-in name."""
    return Session(library, **kwargs).synthesize(target).result


# ---------------------------------------------------------------------------
# parity between built-in names and library objects
# ---------------------------------------------------------------------------

def test_session_matches_legacy_on_alu64():
    spec = alu_spec(64)
    legacy = _legacy_synthesize(spec, lsi_logic_library())
    job = Session(library="lsi_logic").synthesize(spec)
    # Bit-identical alternatives: full Configuration equality (areas,
    # delay matrices, choice tuples), not just (area, delay) summaries.
    assert [alt.config for alt in job.alternatives] == \
        [alt.config for alt in legacy.alternatives]
    assert job.stats == legacy.stats


def test_session_matches_legacy_on_counter_legend_source():
    component = build_library(FIGURE_2_COUNTER_SOURCE).generate(
        "COUNTER", GC_INPUT_WIDTH=8)
    legacy = _legacy_synthesize(component.spec, lsi_logic_library())

    request = SynthesisRequest.from_legend(
        FIGURE_2_COUNTER_SOURCE, generator="COUNTER", GC_INPUT_WIDTH=8)
    job = Session(library="lsi_logic").synthesize(request)

    assert job.component.spec == component.spec
    assert [alt.config for alt in job.alternatives] == \
        [alt.config for alt in legacy.alternatives]


def test_batch_map_shares_the_design_space():
    session = Session(library="lsi_logic")
    jobs = session.map([adder_spec(8), adder_spec(16), "alu:16"])
    assert [len(j) > 0 for j in jobs] == [True, True, True]
    assert session.jobs_run == 3
    # The batch shares one space: the 8-bit adder expanded for the
    # first job is the same node the 16-bit decompositions reuse.
    assert adder_spec(8) in session.space.nodes
    # And per-job results equal fresh single-job sessions.
    fresh = Session(library="lsi_logic").synthesize(adder_spec(16))
    assert [a.config for a in jobs[1].alternatives] == \
        [a.config for a in fresh.alternatives]


@pytest.mark.xfail(strict=True, reason=(
    "DesignSpace.configs memoizes option lists computed under the "
    "_evaluating cycle guard: COMPARATOR<16> caches comparator lists "
    "with their cyclic decompositions dropped, and ALU<31> in the same "
    "session reuses them where a fresh session computes them in full"))
def test_shared_session_answer_matches_fresh_session():
    shared = Session(library="lsi_logic", perf_filter="tradeoff:0.05")
    shared.synthesize("comparator:16")
    after = shared.synthesize("alu:31").result
    fresh = Session(library="lsi_logic", perf_filter="tradeoff:0.05") \
        .synthesize("alu:31").result
    # measured: 1750.5 in the shared session, 1609.5 in a fresh one
    assert after.smallest().area == fresh.smallest().area
    assert [a.config for a in after.alternatives] == \
        [a.config for a in fresh.alternatives]


# ---------------------------------------------------------------------------
# the built-in tables
# ---------------------------------------------------------------------------

def test_registry_unknown_name_suggests():
    with pytest.raises(RegistryError) as err:
        LIBRARIES.create("lsi_logik")
    assert "lsi_logic" in str(err.value)


def _design_space_with_callable_order():
    from repro.core.design_space import DesignSpace

    session = Session()
    DesignSpace(session.rulebase, session.library, session.perf_filter,
                order=lambda options, limit: options)


#: Forms that are gone: every filter and order is a built-in name, and
#: the tables are fixed.  Each must fail loudly, not fall back.
REMOVED_FORMS = [
    ("session-filter-object",
     lambda: Session(perf_filter=ParetoFilter()), TypeError),
    ("design-space-callable-order", _design_space_with_callable_order,
     TypeError),
    ("registry-register",
     lambda: LIBRARIES.register("x", lsi_logic_library), AttributeError),
]


@pytest.mark.parametrize("build,error", [row[1:] for row in REMOVED_FORMS],
                         ids=[row[0] for row in REMOVED_FORMS])
def test_removed_forms_fail_loudly(build, error):
    with pytest.raises(error):
        build()


def test_parse_spec_shorthand():
    assert parse_spec("adder:16") == adder_spec(16)
    assert parse_spec("alu:64") == alu_spec(64)
    assert parse_spec("counter:8") == counter_spec(8)
    with pytest.raises(RegistryError):
        parse_spec("alu")  # no width
    with pytest.raises(RegistryError):
        parse_spec("alu:wide")
    with pytest.raises(RegistryError):
        parse_spec("frobnicator:8")


# ---------------------------------------------------------------------------
# request coercion and filters
# ---------------------------------------------------------------------------

def test_coerce_accepts_all_input_languages():
    assert SynthesisRequest.coerce(adder_spec(8)).kind == "spec"
    assert SynthesisRequest.coerce("adder:8").kind == "spec"
    assert SynthesisRequest.coerce(FIGURE_2_COUNTER_SOURCE).kind == "legend"
    from repro.hls import Program

    assert SynthesisRequest.coerce(Program("p", width=4)).kind == "hls"
    request = SynthesisRequest.from_spec(adder_spec(8))
    assert SynthesisRequest.coerce(request) is request
    with pytest.raises(TypeError):
        SynthesisRequest.coerce(42)


def test_coerce_single_line_generator_name_is_shorthand_not_legend():
    # A single-line name containing "generator" is a spec shorthand,
    # never LEGEND source: unknown, it is a RegistryError, not a
    # LegendError from the LEGEND parser.
    with pytest.raises(RegistryError, match="x_generator"):
        SynthesisRequest.coerce("x_generator:8")


def test_legend_default_generator_is_first_declared_and_no_mutation():
    # The standard library declares GATE first but sorts to ADDER
    # first: an unqualified LEGEND request must elaborate the first
    # *declared* generator, and must not mutate the caller's request
    # when upgrading the label.
    from repro.legend.stdlib_source import STANDARD_LIBRARY_SOURCE

    library = build_library(STANDARD_LIBRARY_SOURCE)
    declared = library.declared_generator_names()
    assert declared[0] == "GATE" != library.generator_names()[0]

    request = SynthesisRequest.from_legend(STANDARD_LIBRARY_SOURCE,
                                           GC_GATE_KIND="NAND")
    label_before = request.label
    job = Session(library="lsi_logic").synthesize(request)
    assert request.label == label_before  # caller's object untouched
    assert job.request.label == job.component.name
    assert job.component.generator_name == "GATE"  # first declared


def test_filter_designator_strings():
    assert len(Session(perf_filter="top_k:4").synthesize(alu_spec(16))) <= 4
    tradeoff = Session(perf_filter="tradeoff:0.5").synthesize(adder_spec(16))
    pareto = Session(perf_filter="pareto").synthesize(adder_spec(16))
    assert len(tradeoff) <= len(pareto)


def test_hls_request_carries_artifacts():
    from repro.hls import Assign, Program

    p = Program("adder", width=4)
    a_in = p.input("a_in")
    b_in = p.input("b_in")
    a = p.variable("a")
    p.output("result", a)
    p.body = [Assign(a, a_in + b_in)]

    job = Session().synthesize(SynthesisRequest.from_hls(p))
    assert job.hls is not None
    assert job.hls.state_table.n_states >= 1
    assert len(job) > 0
    assert "entity" in job.emit("vhdl")


# ---------------------------------------------------------------------------
# emitters
# ---------------------------------------------------------------------------

def test_ascii_plot_degenerate_inputs():
    assert "no design points" in ascii_plot([])
    single = ascii_plot([(100.0, 5.0)])
    assert "*" in single and "area (gates)" in single
    # 4-tuples (Figure-3 points) and 2-tuples both render.
    multi = ascii_plot([(100.0, 5.0, 0.0, 0.0), (200.0, 2.5, 100.0, -50.0)])
    assert multi.count("*") == 2


def test_report_emitter_is_figure3_report():
    job = Session().synthesize(adder_spec(8))
    assert job.emit("report") == figure3_report(job.result, job.title())


def test_json_emitter_round_trips():
    job = Session().synthesize(adder_spec(8))
    payload = json.loads(job.emit("json"))
    assert payload["alternatives"][0]["area"] == job.smallest().area
    assert payload["space"] == job.stats


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_synth_report_matches_figure3(capsys):
    assert cli_main(["synth", "--spec", "adder:8", "--library", "lsi_logic",
                     "--emit", "report"]) == 0
    out = capsys.readouterr().out

    job = Session(library="lsi_logic").synthesize(
        SynthesisRequest.from_spec(adder_spec(8), label="adder:8"))
    expected = figure3_report(job.result, job.title())

    # Identical up to the wall-clock line ("generated in X s").
    got_lines = [l for l in out.splitlines() if "generated in" not in l]
    want_lines = [l for l in expected.splitlines() if "generated in" not in l]
    assert got_lines[:len(want_lines)] == want_lines


def test_cli_batch_and_multi_emitters(capsys):
    assert cli_main(["synth", "--spec", "adder:8", "--spec", "counter:4",
                     "--emit", "report,plot,json"]) == 0
    out = capsys.readouterr().out
    assert out.count("DTAS alternatives") == 2
    assert "area (gates)" in out


def test_cli_legend_file(tmp_path, capsys):
    source_file = tmp_path / "counter.lgd"
    source_file.write_text(FIGURE_2_COUNTER_SOURCE)
    assert cli_main(["synth", "--legend", str(source_file),
                     "--generator", "COUNTER",
                     "--param", "GC_INPUT_WIDTH=8"]) == 0
    assert "alternatives" in capsys.readouterr().out


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    for section in ("libraries:", "rulebases:", "filters:", "emitters:",
                    "specs:"):
        assert section in out
    assert "lsi_logic" in out and "vendor2" in out

    assert cli_main(["list", "emitters"]) == 0
    assert "report" in capsys.readouterr().out


def test_cli_error_paths(capsys, tmp_path):
    assert cli_main(["synth"]) == 2  # nothing to do
    assert cli_main(["synth", "--spec", "bogus:8"]) == 2
    assert cli_main(["synth", "--spec", "adder:8", "--emit", "nope"]) == 2
    err = capsys.readouterr().err
    assert "bogus" in err and "nope" in err

    # Elaboration errors (bad --generator) report cleanly, no traceback.
    source_file = tmp_path / "counter.lgd"
    source_file.write_text(FIGURE_2_COUNTER_SOURCE)
    assert cli_main(["synth", "--legend", str(source_file),
                     "--generator", "NOPE"]) == 1
    assert "NOPE" in capsys.readouterr().err

    # Unwritable --output reports cleanly too.
    assert cli_main(["synth", "--spec", "adder:4",
                     "--output", str(tmp_path / "no" / "dir" / "o.txt")]) == 2
    assert "cannot write" in capsys.readouterr().err


def test_cli_unknown_backend_names_exit_2_listing_registered(capsys):
    """Unknown library/rulebase/filter/order names must exit 2 with the
    known names listed, and a filter that takes no argument must reject
    one -- never escape as a KeyError traceback."""
    cases = [
        (["synth", "--spec", "adder:8", "--library", "nope"],
         ("known", "lsi_logic", "vendor2")),
        (["synth", "--spec", "adder:8", "--rulebase", "nope"],
         ("known", "auto", "standard", "lola")),
        (["synth", "--spec", "adder:8", "--filter", "nope"],
         ("known", "pareto", "tradeoff")),
        (["synth", "--spec", "adder:8", "--order", "nope"],
         ("known", "lex", "frontier")),
        (["warm", "--spec", "adder:8", "--library", "nope"],
         ("known", "lsi_logic")),
        (["synth", "--spec", "adder:8", "--filter", "pareto:3"],
         ("pareto", "takes no argument")),
        (["synth", "--spec", "adder:8", "--filter", "keep_all:x"],
         ("keep_all", "takes no argument")),
    ]
    for argv, expected in cases:
        assert cli_main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        for text in expected:
            assert text in err, (argv, text)


@pytest.mark.parametrize("cap", ["0", "-3", "2.9"])
def test_cli_max_combinations_below_one_is_a_usage_error(cap, capsys):
    """A cap below 1 is rejected by argparse (exit 2, before any
    synthesis) on every command that takes engine flags."""
    for command in ("synth", "warm"):
        with pytest.raises(SystemExit) as exit_info:
            cli_main([command, "--spec", "adder:8",
                      "--max-combinations", cap])
        assert exit_info.value.code == 2
        assert "--max-combinations" in capsys.readouterr().err


def test_session_rejects_cap_below_one():
    for cap in (0, -3):
        with pytest.raises(ValueError, match="max_combinations"):
            Session(max_combinations=cap)


def test_python_dash_m_repro_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "synth", "--spec", "adder:4",
         "--emit", "report"],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "DTAS alternatives for adder:4" in proc.stdout


def test_import_and_synthesis_never_load_numpy():
    """Stdlib-first: the package and a full synthesis import no numpy
    (even where it is installed), which also keeps it out of peak
    RSS."""
    script = (
        "import sys, repro\n"
        "from repro.api import Session\n"
        "job = Session(library='lsi_logic').synthesize('adder:8')\n"
        "assert job.result.alternatives\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
