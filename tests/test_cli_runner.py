"""Tests for the CLI entry point and the n_jobs trial parallelism."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data.generators import make_categorical_clusters
from repro.experiments.runner import draw_trial_seeds, map_trials, run_method_on_dataset


@pytest.fixture(scope="module")
def runner_dataset():
    return make_categorical_clusters(
        n_objects=150, n_features=5, n_clusters=3, purity=0.9, random_state=2,
        name="runner-test",
    )


class TestParallelRunner:
    def test_seed_sequence_is_deterministic(self):
        assert draw_trial_seeds(2024, 4) == draw_trial_seeds(2024, 4)

    def test_n_jobs_does_not_change_results(self, runner_dataset):
        serial = run_method_on_dataset("K-MODES", runner_dataset, 3, 2024, n_jobs=1)
        parallel = run_method_on_dataset("K-MODES", runner_dataset, 3, 2024, n_jobs=2)
        assert serial == parallel

    def test_map_trials_preserves_seed_order(self):
        def trial(seed):
            return seed * 2

        seeds = [5, 1, 9, 3]
        assert map_trials(trial, seeds, n_jobs=1) == [10, 2, 18, 6]

    def test_single_restart_stays_serial(self, runner_dataset):
        # n_jobs > 1 with one restart must not spin up a pool needlessly.
        result = run_method_on_dataset("K-MODES", runner_dataset, 1, 7, n_jobs=4)
        assert set(result) == {"ACC", "ARI", "AMI", "FM"}

    def test_fig4_trials_parallel_equals_serial(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig4 import run_fig4

        config = ExperimentConfig(n_restarts=2, random_state=3, datasets=("Vot",))
        serial = run_fig4(config=config, n_jobs=1)
        parallel = run_fig4(config=config, n_jobs=2)
        assert serial == parallel


class TestCLI:
    def test_parser_rejects_unknown_artefact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "table9"])

    def test_parser_accepts_options(self):
        args = build_parser().parse_args(
            ["run", "table3", "--n-jobs", "4", "--datasets", "Vot", "Bal", "--preset", "fast"]
        )
        assert args.artefact == "table3"
        assert args.n_jobs == 4
        assert args.datasets == ["Vot", "Bal"]

    def test_run_table2(self, capsys):
        assert main(["run", "table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out

    def test_run_fig5_subset(self, capsys):
        assert main(["run", "fig5", "--datasets", "Vot"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out and "Vot" in out

    def test_run_table3_subset(self, capsys):
        code = main(
            ["run", "table3", "--datasets", "Vot", "--methods", "K-MODES",
             "--n-restarts", "1", "--n-jobs", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "K-MODES" in out

    def test_invalid_n_jobs_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "table2", "--n-jobs", "0"])

    def test_run_table3_unknown_method_rejected_early(self):
        with pytest.raises(SystemExit, match="registered clusterers"):
            main(["run", "table3", "--datasets", "Vot", "--methods", "DBSCAN"])


class TestBackendCLI:
    """--backend / --workers and the `repro worker` subcommand."""

    def test_parser_accepts_worker_subcommand(self):
        args = build_parser().parse_args(["worker", "--listen", "0.0.0.0:9001", "--once"])
        assert args.command == "worker"
        assert args.listen == "0.0.0.0:9001" and args.once

    def test_unknown_backend_rejected_early(self, tmp_path):
        with pytest.raises(SystemExit, match="registered backends"):
            main(["fit", "Vot", "--method", "mcdc@sharded", "--backend", "thread",
                  "--out", str(tmp_path / "x.npz")])

    def test_tcp_backend_requires_workers(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers"):
            main(["fit", "Vot", "--method", "mcdc@sharded", "--backend", "tcp",
                  "--out", str(tmp_path / "x.npz")])

    def test_workers_without_backend_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="--workers requires"):
            main(["fit", "Vot", "--method", "mcdc@sharded",
                  "--workers", "127.0.0.1:9001", "--out", str(tmp_path / "x.npz")])

    def test_workers_with_hostless_backend_rejected_early(self, tmp_path):
        # must fail at argument validation, not mid-fit with a raw traceback
        with pytest.raises(SystemExit, match="does not take --workers"):
            main(["fit", "Vot", "--method", "mcdc@sharded", "--backend", "serial",
                  "--workers", "127.0.0.1:9001", "--out", str(tmp_path / "x.npz")])
        with pytest.raises(SystemExit, match="does not take --workers"):
            main(["run", "table3", "--datasets", "Vot", "--backend", "shm",
                  "--workers", "127.0.0.1:9001"])

    def test_backend_on_non_sharded_method_explains(self, tmp_path):
        with pytest.raises(SystemExit, match="does not take --backend"):
            main(["fit", "Vot", "--method", "kmodes", "--backend", "serial",
                  "--out", str(tmp_path / "x.npz")])

    def test_tcp_pinned_method_without_workers_is_a_usage_error(self, tmp_path):
        # mgcpl@tcp pins the backend without going through --backend, so the
        # missing-workers case must still surface cleanly, not as a traceback.
        with pytest.raises(SystemExit, match="--workers"):
            main(["fit", "Vot", "--method", "mgcpl@tcp",
                  "--out", str(tmp_path / "x.npz")])

    def test_fit_with_serial_backend(self, tmp_path, capsys):
        model_path = tmp_path / "sharded.npz"
        assert main(["fit", "Vot", "--method", "mgcpl@sharded",
                     "--backend", "serial", "--set", "n_shards=2",
                     "--out", str(model_path)]) == 0
        assert model_path.exists()
        assert "fitted ShardedMGCPL" in capsys.readouterr().out

    def test_fit_over_loopback_tcp_workers(self, tmp_path, capsys):
        from repro.distributed.rpc import local_worker_pool

        model_path = tmp_path / "tcp.npz"
        with local_worker_pool(2) as hosts:
            assert main(["fit", "Vot", "--method", "mgcpl@sharded",
                         "--backend", "tcp", "--workers", ",".join(hosts),
                         "--out", str(model_path)]) == 0
        capsys.readouterr()
        assert main(["predict", str(model_path), "Vot"]) == 0
        assert "assigned" in capsys.readouterr().out

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_run_with_backend_routes_mcdc_through_sharded_runtime(
        self, monkeypatch, capsys, backend
    ):
        # "process" names a folded backend: it runs on serial.
        created = self._spy_on_sharded_mcdc(monkeypatch)
        assert main(["run", "table3", "--datasets", "Vot", "--methods", "MCDC",
                     "--n-restarts", "1", "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out and "MCDC" in out
        assert created and all(name == "serial" for name in created)

    def test_run_backend_rejected_for_artefacts_that_ignore_it(self):
        # only table3/fig4/fig6 construct MCDC through route_through_backend;
        # accepting --backend elsewhere would silently run serial
        with pytest.raises(SystemExit, match="table3"):
            main(["run", "fig5", "--datasets", "Vot", "--backend", "serial"])
        with pytest.raises(SystemExit, match="table3"):
            main(["run", "table4", "--backend", "serial"])

    @staticmethod
    def _spy_on_sharded_mcdc(monkeypatch):
        """Record every ShardedMCDC constructed (the registry builds the class)."""
        from repro.distributed import runtime

        created = []
        original = runtime.ShardedMCDC.__init__

        def spy(self, *args, **kwargs):
            created.append(kwargs.get("backend"))
            original(self, *args, **kwargs)

        monkeypatch.setattr(runtime.ShardedMCDC, "__init__", spy)
        return created

    def test_config_naming_a_folded_backend_fits_on_serial(self, runner_dataset):
        from repro.distributed.transport import resolve_backend
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import make_paper_method

        labels = {}
        for backend in ("shm", "serial"):
            config = ExperimentConfig(backend=backend)
            model = make_paper_method("MCDC", n_clusters=3, seed=0, config=config)
            assert resolve_backend(model.backend) == "serial"
            labels[backend] = model.fit(runner_dataset).labels_
        np.testing.assert_array_equal(labels["shm"], labels["serial"])

    def test_run_fig4_with_backend_takes_the_sharded_path(self, monkeypatch, capsys):
        created = self._spy_on_sharded_mcdc(monkeypatch)
        assert main(["run", "fig4", "--datasets", "Vot", "--n-restarts", "1",
                     "--backend", "serial"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        # the full MCDC went through the sharded runtime; one construction
        # per restart, each pinned to the requested backend
        assert created and all(backend == "serial" for backend in created)

    def test_run_fig6_with_backend_takes_the_sharded_path(self, monkeypatch):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.fig6 import run_fig6

        created = self._spy_on_sharded_mcdc(monkeypatch)
        config = ExperimentConfig(
            backend="serial", fig6_n_values=(300,), fig6_k_values=(3,),
            fig6_d_values=(6,), fig6_base_n=300,
        )
        results = run_fig6(config=config, n_jobs=1)
        assert len(results["vs_n"]) == 1
        assert created and all(backend == "serial" for backend in created)

    def test_route_through_backend_only_touches_the_mcdc_family(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import route_through_backend

        config = ExperimentConfig(backend="shm", hosts=())
        assert route_through_backend("MCDC", config) == (
            "mcdc@sharded", {"backend": "shm"}
        )
        assert route_through_backend("MCDC+G.", config) == (
            "mcdc+gudmm", {"backend": "shm"}
        )
        # no backend configured -> canonical name, no extras
        assert route_through_backend("MCDC", None) == ("mcdc", {})
        # no sharded variant -> untouched even with a backend
        assert route_through_backend("K-MODES", config) == ("kmodes", {})
        assert route_through_backend("MCDC1", config) == ("mcdc1", {})
        # hosts travel with host-addressed backends
        tcp = ExperimentConfig(backend="tcp", hosts=("h:1", "h:2"))
        assert route_through_backend("mcdc", tcp) == (
            "mcdc@sharded", {"backend": "tcp", "hosts": ["h:1", "h:2"]}
        )

    def test_composite_with_hosts_but_no_backend_rejected(self):
        from repro.registry import make_clusterer

        with pytest.raises(ValueError, match="requires backend"):
            make_clusterer("mcdc+gudmm", n_clusters=2, hosts=["127.0.0.1:9001"])

    def test_make_paper_method_honours_config_backend(self):
        from repro.distributed.runtime import ShardedMCDC
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import make_paper_method

        config = ExperimentConfig(backend="serial")
        model = make_paper_method("MCDC", n_clusters=3, seed=0, config=config)
        assert isinstance(model, ShardedMCDC)
        assert model.backend == "serial"
        # the composites shard their MGCPL encoder too
        composite = make_paper_method("MCDC+G.", n_clusters=3, seed=0, config=config)
        assert isinstance(composite, ShardedMCDC)
        assert composite.backend == "serial"
        assert type(composite.final_clusterer).__name__ == "GUDMM"
        # methods without a sharded variant are untouched
        kmodes = make_paper_method("K-MODES", n_clusters=3, seed=0, config=config)
        assert type(kmodes).__name__ == "KModes"


class TestServingCLI:
    """repro fit / repro predict exercise the persistence path end to end."""

    def test_methods_lists_registry(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "mcdc" in out and "kmodes" in out and "mcdc@sharded" in out
        # the executor backends are listed too
        assert "executor backends" in out
        backends = out.split("executor backends")[1].split("frequency engines")[0]
        names = [line.split()[0] for line in backends.splitlines()[1:] if line.strip()]
        assert names == ["serial", "tcp"]
        serial = next(line for line in backends.splitlines() if line.startswith("serial"))
        assert "shm" in serial and "process" in serial
        # "chunked" is listed as an alias of the dense engine, not as an engine
        engines = out.split("frequency engines")[1].splitlines()
        assert not any(line.startswith("chunked") for line in engines)
        dense = next(line for line in engines if line.startswith("dense"))
        assert "(aliases: chunked)" in dense

    def test_fit_then_predict_uci(self, tmp_path, capsys):
        model_path = tmp_path / "vot.npz"
        labels_path = tmp_path / "labels.txt"

        assert main(["fit", "Vot", "--method", "mcdc", "--out", str(model_path),
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "fitted MCDC" in out and model_path.exists()

        assert main(["predict", str(model_path), "Vot",
                     "--out", str(labels_path)]) == 0
        out = capsys.readouterr().out
        assert "assigned" in out and "ACC=" in out
        labels = np.loadtxt(labels_path, dtype=np.int64)
        from repro.data.uci import load_vote

        assert labels.shape[0] == load_vote().n_objects

    def test_fit_then_predict_csv(self, tmp_path, runner_dataset, capsys):
        from repro.data.io import save_csv

        csv_path = tmp_path / "data.csv"
        save_csv(runner_dataset, csv_path)
        model_path = tmp_path / "model.npz"

        assert main(["fit", str(csv_path), "--method", "kmodes",
                     "--n-clusters", "3", "--out", str(model_path),
                     "--set", "n_init=2"]) == 0
        capsys.readouterr()
        assert main(["predict", str(model_path), str(csv_path)]) == 0
        assert "assigned" in capsys.readouterr().out

    def test_fit_k_free_method(self, tmp_path, capsys):
        # MGCPL takes no n_clusters; the CLI must drop the default cleanly.
        model_path = tmp_path / "mgcpl.npz"
        assert main(["fit", "Vot", "--method", "mgcpl", "--out", str(model_path)]) == 0
        assert model_path.exists()
        capsys.readouterr()

    def test_fit_explicit_k_on_k_free_method_rejected(self, tmp_path):
        # ... but an explicit --n-clusters must not be dropped silently.
        with pytest.raises(SystemExit, match="does not take --n-clusters"):
            main(["fit", "Vot", "--method", "mgcpl", "--n-clusters", "7",
                  "--out", str(tmp_path / "x.npz")])

    def test_fit_bad_set_param_surfaces_original_error(self, tmp_path):
        with pytest.raises(TypeError, match="bogus"):
            main(["fit", "Vot", "--method", "mcdc", "--n-clusters", "2",
                  "--set", "bogus=1", "--out", str(tmp_path / "x.npz")])

    def test_fit_unknown_data_token(self, tmp_path):
        with pytest.raises(SystemExit, match="neither"):
            main(["fit", "no-such-thing", "--method", "mcdc",
                  "--out", str(tmp_path / "x.npz")])
