"""CLI surface."""

from __future__ import annotations

import gc
import json

import pytest

from repro import obs
from repro.cli import PROFILE_DEFAULT_OUT, build_parser, main


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for argv in (
            ["run-all"],
            ["quickrun"],
            ["export", "--out", "x"],
            ["profile"],
            ["show-config"],
        ):
            args = parser.parse_args(argv)
            assert callable(args.func)

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_export_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_scale_flags(self):
        parser = build_parser()
        assert parser.parse_args(["quickrun", "--scale", "0.5"]).scale == 0.5
        assert parser.parse_args(["quickrun"]).scale == 1.0
        assert parser.parse_args(["export", "--out", "x", "--scale", "2"]).scale == 2.0

    def test_log_level_is_global(self):
        args = build_parser().parse_args(["--log-level", "DEBUG", "quickrun"])
        assert args.log_level == "DEBUG"
        assert args.log_format == "kv"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--log-level", "NOISY", "quickrun"])

    def test_profile_defaults(self):
        args = build_parser().parse_args(["profile"])
        assert args.out == PROFILE_DEFAULT_OUT
        assert args.seed == 11


class TestCommands:
    def test_show_config(self, capsys):
        assert main(["show-config"]) == 0
        out = capsys.readouterr().out
        assert "peering_parity" in out
        assert "[topology]" in out

    def test_quickrun(self, capsys):
        assert main(["quickrun", "--seed", "11"]) == 0
        out = capsys.readouterr().out
        assert "SP comparable" in out
        assert "Penn" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--out", str(tmp_path / "d"), "--seed", "11"]) == 0
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert len(manifest["vantage_points"]) == 6

    def test_export_reads_from_store_on_second_run(self, tmp_path, capsys):
        from repro.experiments import scenario

        store_before = scenario._STORE, scenario._STORE_CONFIGURED
        try:
            cache = str(tmp_path / "cache")
            args = [
                "export", "--seed", "11", "--scale", "0.6",
                "--cache-dir", cache,
            ]
            assert main([*args, "--out", str(tmp_path / "a")]) == 0
            first = capsys.readouterr().out
            assert "campaign store hit" not in first
            assert main([*args, "--out", str(tmp_path / "b")]) == 0
            second = capsys.readouterr().out
            assert "campaign store hit" in second
            digest_lines = [
                line
                for line in (first + second).splitlines()
                if line.startswith("repository digest:")
            ]
            assert len(set(digest_lines)) == 1  # stored export is identical
            assert (tmp_path / "a" / "manifest.json").read_bytes() == (
                tmp_path / "b" / "manifest.json"
            ).read_bytes()
        finally:
            scenario._STORE, scenario._STORE_CONFIGURED = store_before

    def test_export_with_explicit_backend_skips_store(self, tmp_path, capsys):
        from repro.experiments import scenario

        store_before = scenario._STORE, scenario._STORE_CONFIGURED
        try:
            cache = tmp_path / "cache"
            args = [
                "export", "--seed", "11", "--scale", "0.6",
                "--cache-dir", str(cache), "--backend", "serial",
            ]
            assert main([*args, "--out", str(tmp_path / "a")]) == 0
            # explicit backend: the campaign really ran; nothing stored
            assert not (cache / "campaigns").exists()
        finally:
            scenario._STORE, scenario._STORE_CONFIGURED = store_before

    def test_profile_writes_report_and_prints_breakdown(self, tmp_path, capsys):
        out = tmp_path / "BENCH_profile_small.json"
        try:
            assert main(["profile", "--seed", "11", "--out", str(out)]) == 0
        finally:
            obs.disable()
            obs.reset()
        text = capsys.readouterr().out
        for phase in ("world build", "routing", "rounds", "analysis"):
            assert phase in text
        report = json.loads(out.read_text())
        assert report["schema"] == obs.SCHEMA
        assert report["meta"]["seed"] == 11
        phases = {row["phase"] for row in report["phases"]}
        assert phases == {"world build", "routing", "rounds", "analysis"}
        assert report["metrics"]["campaign.rounds"]["value"] > 0


class TestTransitionFlag:
    def test_flag_parses_everywhere(self):
        parser = build_parser()
        for argv in (
            ["run-all", "--transition"],
            ["quickrun", "--transition"],
            ["export", "--out", "x", "--transition"],
            ["observe", "--transition"],
        ):
            assert parser.parse_args(argv).transition

    def test_flag_defaults_off(self):
        assert not build_parser().parse_args(["quickrun"]).transition

    def test_export_with_transition_writes_transitions_csv(
        self, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "export", "--out", str(tmp_path / "d"),
                    "--seed", "11", "--scale", "0.3",
                    "--transition", "--backend", "serial",
                ]
            )
            == 0
        )
        trees = list((tmp_path / "d").rglob("transitions.csv"))
        assert trees, "transition-enabled export must emit transitions.csv"


class TestCollectorPolicy:
    """Bounded commands run with the collector paused; serve keeps it."""

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "command, argv, paused",
        [
            ("_cmd_show_config", ["show-config"], True),
            ("_cmd_serve", ["serve", "--port", "0"], False),
        ],
    )
    def test_collector_state_during_and_after(
        self, monkeypatch, enabled, command, argv, paused
    ):
        from repro import cli

        seen = []
        monkeypatch.setattr(
            cli, command, lambda args: seen.append(gc.isenabled()) or 0
        )
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == 0
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert seen == [False if paused else enabled]
        assert after is enabled

    def test_restored_when_the_command_raises(self, monkeypatch):
        from repro import cli

        def boom(args):
            raise RuntimeError("command failed")

        monkeypatch.setattr(cli, "_cmd_show_config", boom)
        was_enabled = gc.isenabled()
        gc.enable()
        try:
            with pytest.raises(RuntimeError):
                main(["show-config"])
            after = gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert after is True
