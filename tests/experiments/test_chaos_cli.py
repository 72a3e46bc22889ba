"""The ``repro chaos`` subcommand: end-to-end recovery and its error
contracts.

The smoke runs use a heavily scaled-down fig4a slice (4 points, 5% of
the quick preset): the clean run is serial, the faulted run goes
through a two-process pool under a ``FaultPlan.sampled`` plan that
afflicts points on their first attempt only, so one retry on the
point's own seed must reproduce the clean archive bit for bit.
"""

import json

from repro.experiments import cli, run_chaos

SMOKE_ARGS = [
    "chaos",
    "fig4a",
    "--preset",
    "quick",
    "--scale",
    "0.05",
    "--max-points",
    "4",
    "--crash",
    "0.9",
    "--retries",
    "1",
    "--deadline",
    "60",
]


class TestChaosSmoke:
    def test_crash_plan_recovers_bit_identically(self, tmp_path, capsys):
        out_dir = str(tmp_path / "chaos-out")
        rc = cli.main(SMOKE_ARGS + ["--out", out_dir])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: RECOVERED" in captured.out
        assert "archives: bit-identical" in captured.out
        # Both archives landed for post-mortem comparison.
        assert (tmp_path / "chaos-out" / "clean").is_dir()
        assert (tmp_path / "chaos-out" / "faulted").is_dir()

    def test_crash_and_hang_on_pool_recover_bit_identically(
        self, tmp_path, capsys
    ):
        # At the default salt, --crash 0.9 afflicts points 0-2 and
        # --hang 0.2 hangs point 2: the pool must kill that worker at
        # the deadline and the retries must replay each point's seed.
        out_dir = tmp_path / "chaos-out"
        rc = cli.main([
            "chaos", "fig4a", "--preset", "quick", "--scale", "0.05",
            "--max-points", "4", "--crash", "0.9", "--hang", "0.2",
            "--hang-seconds", "120", "--deadline", "5", "--retries", "1",
            "--out", str(out_dir),
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "verdict: RECOVERED" in captured.out
        assert "archives: bit-identical" in captured.out
        assert "1 hung worker(s) killed" in captured.out
        manifest = json.loads(
            (out_dir / "faulted" / "fig4a.manifest.json").read_text()
        )
        assert manifest["points"]["retries"] == 3
        assert manifest["points"]["failed"] == 0
        assert manifest["execution"]["executor"] == "pool"
        assert manifest["execution"]["timeouts"] == 1
        assert manifest["execution"]["attempts"] == {
            "0": 2, "1": 2, "2": 2, "3": 1,
        }


class TestChaosApi:
    def test_fault_free_plan_is_trivially_recovered(self):
        outcome = run_chaos(
            "fig4a", preset="quick", scale=0.05, max_points=2, crash=0.0,
        )
        assert outcome.recovered
        assert outcome.bit_identical
        assert not outcome.faults_fired
        assert outcome.retries == 0


class TestChaosErrors:
    def test_unknown_figure_exits_2(self, capsys):
        rc = cli.main(["chaos", "no-such-figure"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "choose from" in (captured.err + captured.out)

    def test_custom_figure_exits_2(self, capsys):
        rc = cli.main(["chaos", "fig3"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "sweep figure" in (captured.err + captured.out)

    def test_bad_scale_exits_2(self, capsys):
        rc = cli.main(["chaos", "fig4a", "--scale", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "scale" in (captured.err + captured.out).lower()
