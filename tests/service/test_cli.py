"""Tests for the ``yask`` CLI (:mod:`repro.service.cli`)."""

import json

import pytest

from repro.service.cli import build_parser, load_dataset, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_args(self):
        args = build_parser().parse_args(
            ["query", "--x", "1.0", "--y", "2.0", "--keywords", "a,b", "--k", "4"]
        )
        assert args.command == "query"
        assert args.k == 4

    def test_whynot_args(self):
        args = build_parser().parse_args(
            [
                "whynot", "--x", "1", "--y", "2", "--keywords", "a",
                "--missing", "Grand Victoria Harbour Hotel", "--lambda", "0.3",
            ]
        )
        assert args.lam == 0.3
        assert args.model == "both"


class TestDatasets:
    def test_builtin_names(self):
        assert len(load_dataset("hotels")) == 539
        assert len(load_dataset("coffee")) == 60

    def test_json_path(self, tmp_path, small_db):
        from repro.datasets.loaders import save_json

        path = tmp_path / "db.json"
        save_json(small_db, path)
        assert len(load_dataset(str(path))) == len(small_db)

    def test_malformed_dataset_exits_2_with_its_reason(self, tmp_path, capsys):
        path = tmp_path / "db.json"
        path.write_text(
            json.dumps(
                {"dataspace": [0, 0, 1, 1], "objects": [{"oid": 1, "x": 0, "y": 0}]}
            )
        )
        with pytest.raises(SystemExit) as exited:
            main(["stats", "--dataset", str(path)])
        assert exited.value.code == 2
        assert capsys.readouterr().err.strip() == (
            f"yask: malformed dataset {path}: "
            "objects[0]: missing required field 'keywords'"
        )

    @pytest.mark.parametrize(
        "name, reason",
        [("missing.json", "No such file or directory"), ("", "Is a directory")],
        ids=["missing", "directory"],
    )
    def test_unreadable_dataset_exits_2_with_its_reason(
        self, tmp_path, capsys, name, reason
    ):
        """Regression: a path that cannot be read ended in a bare
        ``FileNotFoundError`` traceback."""
        path = tmp_path / name
        with pytest.raises(SystemExit) as exited:
            main(["stats", "--dataset", str(path)])
        assert exited.value.code == 2
        assert capsys.readouterr().err.strip() == (
            f"yask: cannot read dataset {path}: {reason}"
        )


class TestCommands:
    def test_query_command_outputs_json(self, capsys):
        code = main(
            [
                "query", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
                "--keywords", "coffee", "--k", "3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["entries"]) == 3

    def test_whynot_command_both_models(self, capsys):
        code = main(
            [
                "whynot", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
                "--keywords", "coffee", "--k", "3", "--ws", "0.15",
                "--missing", "Starbucks Central",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "explanation" in payload
        assert "preference" in payload
        assert "keywords" in payload
        assert payload["preference"]["penalty"] <= 0.5 + 1e-12

    def test_whynot_not_missing_exits_2(self, capsys):
        # Ask why-not about an object that is already in the result.
        code = main(
            [
                "whynot", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
                "--keywords", "coffee", "--k", "60",
                "--missing", "Starbucks Central",
            ]
        )
        assert code == 2
        assert "why-not error" in capsys.readouterr().err

    def test_demo_command_renders_panels(self, capsys):
        assert main(["demo", "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "Panel 1: map" in out
        assert "Refined queries" in out

    def test_whynot_missing_by_id(self, capsys):
        code = main(
            [
                "whynot", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
                "--keywords", "coffee", "--k", "3", "--ws", "0.15",
                "--missing", "0", "--model", "preference",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert "preference" in payload and "keywords" not in payload

    def test_stats_command(self, capsys):
        assert main(["stats", "--dataset", "coffee"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dataset:\n")
        assert "objects = 60" in out
        assert "tree" not in out.lower()

    def test_stats_builds_no_engine_and_no_tree(self, monkeypatch, capsys):
        from repro.index.rtree import RTree

        monkeypatch.setattr(
            "repro.service.cli.YaskEngine",
            lambda *args, **kwargs: pytest.fail("stats built an engine"),
        )
        monkeypatch.setattr(
            RTree, "__init__", lambda *args, **kwargs: pytest.fail("stats built a tree")
        )
        assert main(["stats", "--dataset", "coffee"]) == 0
        assert "objects = 60" in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["32", "1", "x"])
    def test_stats_max_entries_is_a_usage_error(self, value, capsys):
        """``stats`` bulk-loads no tree, so it takes no fanout."""
        with pytest.raises(SystemExit) as excinfo:
            main(["stats", "--dataset", "coffee", "--max-entries", value])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-entries" in capsys.readouterr().err

    def test_audit_command_passes_on_clean_engine(self, capsys):
        code = main(
            [
                "audit", "--dataset", "coffee", "--x", "114.158", "--y", "22.282",
                "--keywords", "coffee", "--k", "5",
            ]
        )
        assert code == 0
        assert "audit ok" in capsys.readouterr().out


class TestBatchCommands:
    def test_batch_command_repeats_hit_the_cache(self, capsys, tmp_path):
        workload = [
            {"x": 114.158, "y": 22.282, "keywords": ["coffee"], "k": 3},
            {"x": 114.160, "y": 22.284, "keywords": ["espresso"], "k": 2},
        ]
        path = tmp_path / "queries.json"
        path.write_text(json.dumps(workload))
        code = main(
            [
                "batch", "--dataset", "coffee", "--file", str(path),
                "--repeat", "2",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["batches"]) == 2
        assert payload["cache"]["hits"] >= len(workload)

    def test_whynot_batch_command(self, capsys, tmp_path):
        workload = [
            {
                "x": 114.158, "y": 22.282, "keywords": ["coffee"], "k": 3,
                "missing": ["Cup & Co 26"],
            },
            {
                "x": 114.158, "y": 22.282, "keywords": ["coffee"], "k": 3,
                "missing": ["Cup & Co 26"], "model": "preference",
            },
        ]
        path = tmp_path / "questions.json"
        path.write_text(json.dumps(workload))
        code = main(
            [
                "whynot-batch", "--dataset", "coffee", "--file", str(path),
                "--repeat", "2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["batches"]) == 2
        first_batch = payload["batches"][0]["results"]
        assert first_batch[0]["model"] == "full"
        assert first_batch[1]["model"] == "preference"
        # The second repeat is served entirely from the why-not cache.
        assert all(
            entry["cached"] for entry in payload["batches"][1]["results"]
        )
        assert payload["whynot_cache"]["hits"] >= len(workload)

    def test_whynot_batch_rejects_bad_payload(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps([{"x": 1.0}]))
        with pytest.raises(SystemExit):
            main(["whynot-batch", "--dataset", "coffee", "--file", str(path)])


class TestDurabilityCommands:
    def mutations_file(self, tmp_path):
        path = tmp_path / "mutations.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "op": "insert",
                        "oid": 9000,
                        "x": 114.15,
                        "y": 22.28,
                        "keywords": ["espresso"],
                        "name": "logged cafe",
                    }
                ]
            )
        )
        return str(path)

    def test_serve_parses_wal_args(self):
        args = build_parser().parse_args(
            [
                "serve", "--wal-dir", "/tmp/wal", "--fsync", "never",
                "--snapshot-every", "16",
            ]
        )
        assert args.wal_dir == "/tmp/wal"
        assert args.fsync == "never"
        assert args.snapshot_every == 16

    def test_serve_snapshot_cadence_requires_wal(self):
        with pytest.raises(SystemExit, match="--wal-dir"):
            main(["serve", "--snapshot-every", "4"])

    def test_recover_and_follow_parse(self):
        args = build_parser().parse_args(
            ["recover", "--wal-dir", "/tmp/wal", "--snapshot"]
        )
        assert args.command == "recover"
        assert args.snapshot
        args = build_parser().parse_args(["follow", "--wal-dir", "/tmp/wal"])
        assert args.command == "follow"
        assert args.port == 8081

    def test_mutate_with_wal_dir_logs_and_recovers(self, capsys, tmp_path):
        wal_dir = str(tmp_path / "wal")
        code = main(
            [
                "mutate", "--dataset", "coffee",
                "--file", self.mutations_file(tmp_path),
                "--wal-dir", wal_dir, "--fsync", "never",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "recovered generation 0" in captured.err
        payload = json.loads(captured.out)
        assert payload["batches"][0]["generation"] == 1

        # The batch is durable: `yask recover` reports it without the
        # mutation file.
        code = main(
            ["recover", "--wal-dir", wal_dir, "--dataset", "coffee"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["generation"] == 1
        assert report["records_replayed"] == 1
        assert report["objects"] == 61  # 60 cafes + the logged insert

    def test_recover_with_snapshot_compacts(self, capsys, tmp_path):
        wal_dir = str(tmp_path / "wal")
        main(
            [
                "mutate", "--dataset", "coffee",
                "--file", self.mutations_file(tmp_path),
                "--wal-dir", wal_dir, "--fsync", "never",
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "recover", "--wal-dir", wal_dir, "--dataset", "coffee",
                "--snapshot",
            ]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["durability"]["snapshot_generation"] == 1
        # A snapshot now covers the log: recovery no longer needs the
        # seed dataset at all.
        code = main(["recover", "--wal-dir", wal_dir])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["generation"] == 1

    def test_recover_corrupt_log_exits_2(self, capsys, tmp_path):
        wal_dir = tmp_path / "wal"
        main(
            [
                "mutate", "--dataset", "coffee",
                "--file", self.mutations_file(tmp_path),
                "--wal-dir", str(wal_dir), "--fsync", "never",
            ]
        )
        capsys.readouterr()
        (wal_dir / "MANIFEST.json").write_text("{broken")
        code = main(["recover", "--wal-dir", str(wal_dir)])
        assert code == 2
        assert "recovery failed" in capsys.readouterr().err

    def test_recover_without_seed_or_snapshot_exits_2(self, capsys, tmp_path):
        wal_dir = str(tmp_path / "wal")
        main(
            [
                "mutate", "--dataset", "coffee",
                "--file", self.mutations_file(tmp_path),
                "--wal-dir", wal_dir, "--fsync", "never",
            ]
        )
        capsys.readouterr()
        code = main(["recover", "--wal-dir", wal_dir])
        assert code == 2
        assert "seed database" in capsys.readouterr().err

    def test_follow_missing_directory_exits_2(self, capsys, tmp_path):
        code = main(
            ["follow", "--wal-dir", str(tmp_path / "nope")]
        )
        assert code == 2
        assert "follower bootstrap failed" in capsys.readouterr().err
