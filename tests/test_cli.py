import hashlib
import json
import os
import resource
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from matgraph import appendix_data, cli, models
from matgraph.cli import main
from matgraph.graphcore import Graph

from .conftest import DATA_DIR, encode_graph6, permute_graph, random_adjacency

GRAPH8C = DATA_DIR / "graph8c.g6"


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "small.g6"
    graphs = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
    ]
    path.write_text("".join(encode_graph6(G) + "\n" for G in graphs))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestGolden:
    def test_exit_zero_and_output(self, capsys):
        code, out = run_cli(capsys, "golden")
        assert code == 0
        assert "passed" in out


@pytest.fixture()
def appendix_dataset(tmp_path):
    """The appendix graphs and a relabelled copy of each, as graph6: every
    census row counts some pairs."""
    rng = np.random.default_rng(0)
    graphs = list(appendix_data.GRAPHS.values())
    graphs += [permute_graph(G, rng.permutation(G.n)) for G in graphs]
    path = tmp_path / "appendix.g6"
    path.write_text("".join(encode_graph6(G) + "\n" for G in graphs))
    return str(path)


# output of the census commands on `appendix_dataset`, as the two
# hand-written census functions printed it before they became rungs of
# `harness.CENSUS`; a json report ends in a newline, as the others do
CENSUS_OUTPUT = {
    ("census", "text"): "wl-census: 12 graphs, 66 pairs\n  1-WL   18\n  2-FWL  10\n",
    ("census", "json"): '{\n  "counts": {\n    "1-WL": 18,\n    "2-FWL": 10\n  },\n'
                        '  "extras": {},\n  "graph_count": 12,\n  "kind": "wl-census",\n'
                        '  "pair_count": 66\n}\n',
    ("census", "csv"): "method,undistinguished_pairs\n1-WL,18\n2-FWL,10\n",
    ("lambda-census", "text"): "lambda-census: 12 graphs, 66 pairs\n  1-WL              18\n"
                               "  equal-lambda-max  14\n",
    ("lambda-census", "json"): '{\n  "counts": {\n    "1-WL": 18,\n    "equal-lambda-max": 14\n'
                               '  },\n  "extras": {},\n  "graph_count": 12,\n'
                               '  "kind": "lambda-census",\n  "pair_count": 66\n}\n',
    ("lambda-census", "csv"): "method,undistinguished_pairs\n1-WL,18\nequal-lambda-max,14\n",
}


class TestCensus:
    @pytest.mark.parametrize("command, format", list(CENSUS_OUTPUT))
    def test_output_is_pinned(self, capsys, appendix_dataset, command, format):
        code, out = run_cli(capsys, "--format", format, command, appendix_dataset)
        assert code == 0
        assert out == CENSUS_OUTPUT[command, format]

    @pytest.mark.parametrize("format", ["text", "json", "csv"])
    @pytest.mark.parametrize("command", ["census", "lambda-census", "distinguish", "golden"])
    def test_report_ends_in_one_newline(self, capsys, small_dataset, command, format):
        args = {"distinguish": [small_dataset, "--runs", "2"], "golden": []}
        code, out = run_cli(capsys, "--format", format, command,
                            *args.get(command, [small_dataset]))
        assert code == 0
        assert out.endswith("\n") and not out.endswith("\n\n")

    @pytest.mark.parametrize("command", ["census", "lambda-census", "distinguish"])
    @pytest.mark.parametrize("dataset_format, text", [("graph6", "\n \n"),
                                                      ("edgelist-json", "[]")],
                             ids=["graph6", "edgelist-json"])
    def test_dataset_without_graphs_says_so(self, capsys, tmp_path, command,
                                            dataset_format, text):
        path = tmp_path / "empty"
        path.write_text(text)
        code = main(["--dataset-format", dataset_format, command, str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path} has no graphs\n"

    def test_census_json(self, capsys, small_dataset):
        code, out = run_cli(capsys, "--format", "json", "census", small_dataset)
        assert code == 0
        payload = json.loads(out)
        assert payload["counts"]["1-WL"] == 0

    def test_lambda_census(self, capsys, small_dataset):
        code, out = run_cli(capsys, "lambda-census", small_dataset)
        assert code == 0


class TestEval:
    def test_sentence_value(self, capsys, small_dataset):
        code, out = run_cli(
            capsys,
            "eval", "--sentence", "tr(A^2)", "--graph", small_dataset + ":1",
        )
        assert code == 0
        assert "8" in out  # C4 has 4 edges, tr(A^2) = 8

    def test_usage_error(self, capsys, small_dataset):
        code = main(["eval", "--sentence", "tr(A", "--graph", small_dataset])
        assert code == 2

    @pytest.mark.parametrize("sentence", [
        "2^2", "tr(2)", "2 + A", "had(2, A)", "f:exp(2)", "ones' * (3)' * ones",
    ])
    def test_literal_outside_a_product_is_one_line_error(self, capsys, small_dataset, sentence):
        code = main(["eval", "--sentence", sentence, "--graph", small_dataset + ":0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "at position" in captured.err

    @pytest.mark.parametrize("sentence, message", [
        ("tr(A^2000)", "value inf is not"),
        ("tr(A^1e9)", "value nan is not"),
        ("f:rsqrt(-1 * (ones' A ones))", "value nan is not"),
        ("ones^2", "Power requires a square matrix, got 8x1"),
    ])
    def test_non_finite_or_non_square_is_one_line_error(self, capsys, sentence, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning fails the test
            code = main(["eval", "--sentence", sentence, "--graph", f"{GRAPH8C}:0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err


class TestWL:
    def test_pairwise(self, capsys, small_dataset):
        code, out = run_cli(
            capsys,
            "wl", "--graph", small_dataset + ":0", "--other", small_dataset + ":1",
        )
        assert code == 0
        assert "1-WL" in out


class TestGraphAddress:
    def test_only_the_addressed_graph_is_decoded(self, capsys, tmp_path, small_dataset):
        path = tmp_path / "damaged.g6"
        lines = open(small_dataset).read().splitlines()
        path.write_text("\n".join([lines[0], "", "C~~~", lines[1]]) + "\n")
        code, out = run_cli(capsys, "eval", "--sentence", "tr(A^2)", "--graph", f"{path}:2")
        assert code == 0 and json.loads(out)["value"] == 8.0
        code = main(["eval", "--sentence", "tr(A^2)", "--graph", f"{path}:1"])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:3: ")

    @pytest.mark.parametrize("index", ["3", "-1", "x", "1.0"])
    def test_bad_index_names_the_range(self, capsys, small_dataset, index):
        code = main(["wl", "--graph", f"{small_dataset}:0",
                     "--other", f"{small_dataset}:{index}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: graph index {index!r} is not in 0..2\n"

    def test_graph6_order_zero_names_file_and_line(self, capsys, tmp_path, small_dataset):
        path = tmp_path / "order0.g6"
        path.write_text(open(small_dataset).readline() + "?\n")
        code = main(["count", "--graph", f"{path}:1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}:2: ")
        assert captured.err.count("\n") == 1

    def test_graph6_non_ascii_names_file_line_and_offset(self, capsys, tmp_path):
        path = tmp_path / "x.g6"
        path.write_bytes("Gé????\n".encode())
        code = main(["count", "--graph", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}:1: character outside [63,126] at byte offset 1\n"

    @pytest.mark.parametrize("address", ["", ":0"])
    def test_file_without_graphs_says_so(self, capsys, tmp_path, address):
        path = tmp_path / "empty.g6"
        path.write_text("\n")
        code = main(["count", "--graph", f"{path}{address}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path} has no graphs\n"


class TestCount:
    def test_counts_with_oracle(self, capsys, small_dataset):
        code, out = run_cli(
            capsys,
            "count", "--graph", small_dataset + ":1",
            "--pattern", "4cycle", "--oracle",
        )
        assert code == 0
        assert "1" in out


class TestSupportsAndEmbed:
    def test_supports(self, capsys, small_dataset):
        code, out = run_cli(
            capsys, "supports", "--graph", small_dataset, "--count", "3"
        )
        assert code == 0
        payload = json.loads(out)
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).adjacency
        assert payload["mask_index"] == np.argwhere(A + np.eye(4)).tolist()
        assert len(payload["band_centers"]) == 3 - 1
        features = np.array(payload["features"])
        assert features.shape == (len(payload["mask_index"]), 3)
        diagonal = [float(r == c) for r, c in payload["mask_index"]]
        assert features[:, -1].tolist() == diagonal

    def test_supports_adjacency_basis(self, capsys, small_dataset):
        # masked U diag(exp(-b (lam - f)^2)) U^T over the adjacency spectrum
        code, out = run_cli(capsys, "supports", "--graph", small_dataset, "--basis", "adj")
        assert code == 0
        payload = json.loads(out)
        A = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).adjacency
        assert payload["mask_index"] == np.argwhere(A + np.eye(4)).tolist()
        rows, cols = np.array(payload["mask_index"]).T
        features = np.array(payload["features"])
        lam, U = np.linalg.eigh(A)
        centers = payload["band_centers"]
        assert len(centers) == 5 - 1 and centers[0] == pytest.approx(lam[0])
        for s, f in enumerate(centers):
            want = (U * np.exp(-5.0 * (lam - f) ** 2)) @ U.T
            np.testing.assert_allclose(features[:, s], want[rows, cols], atol=1e-12)
        assert features[:, -1].tolist() == (rows == cols).astype(float).tolist()

    # sha256 of each JSON output: a change to the support builder must not move it
    SUPPORT_PINS = {
        ("sr25.g6:3", "nlap", ""): "bb89ea9a7cbffdfcd68a4c5f83375fecc3324970baf553b5146f6459960be2a9",
        ("sr25.g6:3", "nlap", "--b 3.0 --count 4"):
            "9f9e9a6d08e8eb53a6204c894cd18b079e4b0a5104574cc9fd0c7f4a88fb7fe3",
        ("sr25.g6:3", "adj", ""): "143b44cda5d49a76bde2140105c995cee84ad448ea3d95bb3249559ccf41b2f1",
        ("sr25.g6:3", "adj", "--b 3.0 --count 4"):
            "c7cb9f08bb7baf922982275a088125d8f0a6cb7ef299dc7272000ba282bad584",
        ("graph8c.g6:100", "nlap", ""):
            "f8aa95a91214b94e491dd4d4df559303899d00f2721e2b5f73bd47be858a9480",
        ("graph8c.g6:100", "nlap", "--b 3.0 --count 4"):
            "5202a34f1419ee55dda4eb02c9c4992019e2a401de1cfa7c110bdcd10a8889ca",
        ("graph8c.g6:100", "adj", ""):
            "159c7909714b7a197bc46a4896687cd19310703c5060d8d8df6316b73d204baf",
        ("graph8c.g6:100", "adj", "--b 3.0 --count 4"):
            "63eb390a2018d4289ae80ec1ac7f36cf44b6fc1d645154ef111f1fa5ad3db50c",
        ("one.g6", "nlap", ""): "674968d62896014797a5d3a0b56f97a3caa674a642260357ab9527265af61318",
        ("one.g6", "nlap", "--b 3.0 --count 4"):
            "d575b38f85ef201573a8bc9cefc2777ddbf210b822ce09f9259bf0e638f7a072",
        ("one.g6", "adj", ""): "4a92a5918fa4ad279b798a59f271a1b7994e90b7ed875c6f2fd91dbedc655bae",
        ("one.g6", "adj", "--b 3.0 --count 4"):
            "d464b73abcbbc7d56ca5605feae6296b1e610f0344aaf86a73fe407bd512b933",
    }

    @pytest.mark.parametrize("graph, basis, extra", sorted(SUPPORT_PINS))
    def test_supports_output_is_pinned(self, capsys, tmp_path, graph, basis, extra):
        # sr25 and graph8c graphs and a 1-vertex graph, both bases, the
        # default and a non-default bandwidth and support count
        (tmp_path / "one.g6").write_text("@\n")
        path = tmp_path / graph if graph == "one.g6" else DATA_DIR / graph
        code, out = run_cli(capsys, "supports", "--graph", str(path), "--basis", basis,
                            *extra.split())
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.SUPPORT_PINS[graph, basis, extra]

    def test_gnnml3_embed_of_an_edgeless_graph_is_pinned(self, capsys, tmp_path):
        # an empty mask off the diagonal: every learned support is diagonal
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps([{"n": 5, "edges": []}]))
        code, out = run_cli(capsys, "--dataset-format", "edgelist-json", "embed", "--graph",
                            str(path), "--model", "gnnml3", "--seeds", "3")
        assert code == 0
        assert (hashlib.sha256(out.encode()).hexdigest()
                == "2546fef9ecb658215c70decb58bed595abb087270863a5cad2a0ca0fa4e57646")

    @pytest.mark.parametrize("b", ["nan", "inf"])
    def test_supports_bandwidth_must_be_finite(self, capsys, small_dataset, b):
        code = main(["supports", "--graph", small_dataset, "--b", b])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: b must be finite and > 0\n"

    @pytest.mark.parametrize("count", ["0", "1"])
    def test_supports_count_must_be_at_least_two(self, capsys, small_dataset, count):
        # the path's spectrum has distinct eigenvalues, which one support cannot band
        code = main(["supports", "--graph", small_dataset, "--count", count])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: S must be >= 2\n"

    def test_embed(self, capsys, small_dataset):
        code, out = run_cli(
            capsys,
            "embed", "--graph", small_dataset, "--model", "gcn", "--seeds", "2",
        )
        assert code == 0

    def test_embed_builds_one_batch_for_all_seeds(self, capsys, monkeypatch, small_dataset):
        built = []

        class CountingBatch(models.DatasetBatch):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(cli, "DatasetBatch", CountingBatch)
        G = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        for kind in models.MODEL_KINDS:
            built.clear()
            code, out = run_cli(capsys, "--seed", "4", "embed", "--graph", small_dataset + ":1",
                                "--model", kind, "--seeds", "3")
            assert code == 0 and len(built) == 1
            want = [models.embed(models.ModelSpec(kind), G, s).tolist()
                    for s in models.run_seeds(4, 3)]
            assert json.loads(out)["embeddings"] == want

    @pytest.mark.parametrize("seeds", [1, 5])
    @pytest.mark.parametrize("kind", models.MODEL_KINDS)
    def test_embed_output_is_one_embedding_per_seed(self, capsys, small_dataset, kind, seeds):
        # the bytes that embedding the graph once per seed gives
        G = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        spec = models.ModelSpec(kind)
        want = {"model": kind, "width": spec.resolved_width(),
                "embeddings": [models.embed(spec, G, s).tolist()
                               for s in models.run_seeds(9, seeds)]}
        code, out = run_cli(capsys, "--seed", "9", "embed", "--graph", small_dataset + ":2",
                            "--model", kind, "--seeds", str(seeds))
        assert code == 0
        assert out == json.dumps(want, indent=2) + "\n"

    @pytest.mark.parametrize("seeds", ["0", "-3"])
    def test_embed_needs_one_seed(self, capsys, small_dataset, seeds):
        code = main(["embed", "--graph", small_dataset, "--model", "gcn",
                     "--seeds", seeds])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: runs must be >= 1\n"


class TestDistinguish:
    def test_small_run(self, capsys, small_dataset):
        code, out = run_cli(
            capsys,
            "--format", "json",
            "distinguish", small_dataset, "--models", "gcn", "--runs", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert "gcn" in payload["counts"]

    def test_config_file_settings_apply(self, capsys, tmp_path, small_dataset):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\nthreshold = 0.5\nmodels = gcn\n")
        code, out = run_cli(
            capsys,
            "--format", "json", "--config", str(cfg), "distinguish", small_dataset,
        )
        assert code == 0
        extras = json.loads(out)["extras"]
        assert extras["runs"] == 1
        assert extras["threshold"] == 0.5

    def test_flag_overrides_config_file(self, capsys, tmp_path, small_dataset):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\nthreshold = 0.5\nmodels = gcn\n")
        code, out = run_cli(
            capsys, "--format", "json", "--config", str(cfg),
            "distinguish", small_dataset, "--runs", "2",
        )
        assert code == 0
        extras = json.loads(out)["extras"]
        assert extras["runs"] == 2
        assert extras["threshold"] == 0.5

    def test_unknown_config_key(self, capsys, tmp_path, small_dataset):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("bogus = 3\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1
        assert "bogus" in err

    def test_repeated_config_key(self, capsys, tmp_path, small_dataset):
        # a later line would otherwise override an earlier one silently
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\n# two runs\nruns = 2\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: config key 'runs' repeats line 1\n"

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_repeated_model_kind(self, capsys, tmp_path, small_dataset, source):
        # a repeated kind would be embedded twice and reported once
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("models = gin, gcn, gin\n")
        if source == "flag":
            argv, where = ["distinguish", small_dataset, "--models", "gin,gin"], ""
        else:
            argv, where = ["--config", str(cfg), "distinguish", small_dataset], f"{cfg}:1: "
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {where}model kind 'gin' is repeated\n"

    def test_config_dataset_key_is_unknown(self, capsys, tmp_path, small_dataset):
        # the positional DATASET is the only way to name the dataset
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\ndataset = data/sr25.g6\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:2: unknown config key 'dataset'\n"

    def test_bad_config_value_names_file_and_line(self, capsys, tmp_path, small_dataset):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("# runs below\nmodels = gcn\nruns = ten\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:3: invalid literal for int()")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text, line", [
        (b"\xff\xferuns = 3\n", 1),  # a UTF-16 byte-order mark
        (b"models = gcn\r\n# r\xe9sum\xe9\rruns = 3\n", 2),  # Latin-1, CR-ended
    ])
    def test_config_not_utf8_names_file_and_line(self, capsys, tmp_path, small_dataset,
                                                 text, line):
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(text)
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {cfg}:{line}: 'utf-8' codec can't decode byte")
        assert captured.err.count("\n") == 1

    def test_malformed_edgelist_json_names_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('[{"n": 2 "edges": [[0, 1]]}]')
        code = main(["--dataset-format", "edgelist-json", "census", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: Expecting ',' delimiter")
        assert captured.err.count("\n") == 1

    def test_non_integer_edge_endpoint_names_the_record(self, capsys, tmp_path):
        path = tmp_path / "float.json"
        path.write_text('[{"n": 3, "edges": [[0, 1]]}, {"n": 3, "edges": [[0.5, 1]]}]')
        code = main(["--dataset-format", "edgelist-json", "census", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: record 1: invalid edge (0.5,1) for n=3\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_threshold_must_be_finite_and_positive(
        self, capsys, small_dataset, threshold
    ):
        code = main(["--format", "json", "distinguish", small_dataset,
                     "--models", "gcn", "--runs", "1", "--threshold", threshold])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: threshold must be finite and > 0\n"

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_config_threshold_must_be_finite(
        self, capsys, tmp_path, small_dataset, threshold
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"runs = 1\nthreshold = {threshold}\nmodels = gcn\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:2: threshold must be finite and > 0\n"

    @pytest.mark.parametrize("line, message", [
        ("runs = 0", "runs must be >= 1"),
        ("threshold = -1", "threshold must be finite and > 0"),
        ("models = gcn,bogus", "unknown model kind 'bogus'"),
        ("output_format = xml", "unknown output format 'xml'"),
        ("format = xml", "unknown dataset format: 'xml'"),
    ])
    def test_invalid_config_value_names_file_and_line(
        self, capsys, tmp_path, small_dataset, line, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"# a bad value on line 3\nbase_seed = 2\n{line}\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: {message}\n"

    @pytest.mark.parametrize("line", ["runs", "models"])
    def test_config_line_without_equals_names_file_and_line(
        self, capsys, tmp_path, small_dataset, line
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"base_seed = 2\n{line}\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:2: expected 'key = value'\n"

    @pytest.mark.parametrize("flag, message", [
        (["--runs", "0"], "runs must be >= 1"),
        (["--threshold", "-1"], "threshold must be finite and > 0"),
        (["--models", "gcn,bogus"], "unknown model kind 'bogus'"),
    ])
    def test_invalid_flag_value_keeps_bare_message(
        self, capsys, tmp_path, small_dataset, flag, message
    ):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 1\nmodels = gcn\n")
        code = main(["--config", str(cfg), "distinguish", small_dataset, *flag])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["flag", "config", "embed"])
    def test_negative_base_seed_is_usage_error(self, capsys, tmp_path, small_dataset, where):
        # one line naming the setting, not numpy's SeedSequence error per model
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("runs = 2\nbase_seed = -5\n")
        argv = {"flag": ["--seed", "-1", "distinguish", small_dataset, "--models", "gcn,mlp",
                         "--runs", "2"],
                "config": ["--config", str(cfg), "distinguish", small_dataset],
                "embed": ["--seed", "-1", "embed", "--graph", small_dataset, "--model", "gcn"]}
        code = main(argv[where])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        prefix = f"{cfg}:2: " if where == "config" else ""
        assert captured.err == f"error: {prefix}base_seed must be >= 0\n"

    def test_unknown_model_is_usage_error(self, capsys, small_dataset):
        code = main(["distinguish", small_dataset, "--models", "gcn,bogus"])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_blank_model_entries_dropped(self, capsys, tmp_path, small_dataset, where):
        argv = ["--format", "json", "distinguish", small_dataset, "--runs", "1"]
        if where == "flag":
            argv += ["--models", " gcn, ,gin,"]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text("models =  gcn, ,gin,\n")
            argv = ["--config", str(cfg), *argv]
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert set(json.loads(out)["counts"]) == {"gcn", "gin"}

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("models_value", ["", ",", " , ,"])
    def test_empty_model_list_is_usage_error(
        self, capsys, tmp_path, small_dataset, where, models_value
    ):
        argv = ["distinguish", small_dataset, "--runs", "1"]
        prefix = ""
        if where == "flag":
            argv += ["--models", models_value]
        else:
            cfg = tmp_path / "exp.cfg"
            cfg.write_text(f"models = {models_value}\n")
            argv = ["--config", str(cfg), *argv]
            prefix = f"{cfg}:1: "
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {prefix}at least one model kind required\n"

    def test_model_failure_exits_one(self, capsys, monkeypatch, small_dataset):
        def broken(w, l, H, C):
            raise RuntimeError("boom")

        gin = replace(models.MODELS["gin"], update=broken)
        monkeypatch.setitem(models.MODELS, "gin", gin)
        code = main(["--format", "json", "distinguish", small_dataset,
                     "--models", "gcn,gin", "--runs", "2"])
        captured = capsys.readouterr()
        assert code == 1
        payload = json.loads(captured.out)
        assert "gcn" in payload["counts"]
        assert payload["extras"]["error:gin"] == "boom"
        assert captured.err == "error: gin: boom\n"


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("flag, command", [
        (["--config", "/nonexistent.cfg"], "census"),
        (["--seed", "3"], "wl"),
        (["--format", "csv"], "wl"),
        (["--dataset-format", "graph6"], "golden"),
    ])
    def test_global_flag_the_subcommand_does_not_read(self, capsys, small_dataset, flag,
                                                      command):
        argv = {"census": ["census", small_dataset],
                "wl": ["wl", "--graph", small_dataset + ":0", "--other", small_dataset + ":1"],
                "golden": ["golden"]}[command]
        code = main([*flag, *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {command} does not read {flag[0]}\n"

    def test_missing_dataset(self):
        assert main(["census", "/nonexistent.g6"]) in (1, 2)

    @pytest.mark.parametrize("where", ["dataset", "out"])
    def test_unreadable_path_is_one_line_error(self, capsys, tmp_path, small_dataset, where):
        argv = (["census", str(tmp_path)] if where == "dataset"
                else ["--out", str(tmp_path), "census", small_dataset])
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(tmp_path) in captured.err

    def test_unwritable_out_fails_before_the_work(self, capsys, monkeypatch, tmp_path,
                                                  small_dataset):
        calls = []
        monkeypatch.setattr(cli, "distinguishability_run", calls.append)
        code = main(["--out", str(tmp_path), "distinguish", small_dataset,
                     "--models", "gcn", "--runs", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert calls == []
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(tmp_path) in captured.err

    def test_out_file_gets_the_output(self, capsys, tmp_path, small_dataset):
        path = tmp_path / "eval.json"
        code = main(["--out", str(path), "eval", "--sentence", "tr(A^2)",
                     "--graph", small_dataset + ":1"])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(path.read_text())["value"] == 8.0


class TestOutOfMemory:
    """Out of memory exits 2 with one line. Each command runs in a child
    process whose address space is capped at 512 MiB, so an allocation past
    the cap fails at once, whatever the host's overcommit setting."""

    CAP = 512 << 20

    def run_capped(self, tmp_path, *argv):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-m", "matgraph.cli", *argv], cwd=tmp_path,
                              env=env, preexec_fn=cap, capture_output=True, text=True,
                              timeout=120)

    def test_allocation_during_the_work(self, tmp_path):
        # a random graph of order 402 has many 2-FWL colors after round 1,
        # so round 2 sorts: a (2, 402, 402, 403) int64 buffer, 994 MiB,
        # past the cap by itself
        G = Graph(random_adjacency(np.random.default_rng(0), 402))
        (tmp_path / "rand.g6").write_text(encode_graph6(G) + "\n")
        proc = self.run_capped(tmp_path, "wl", "--graph", "rand.g6", "--other", "rand.g6")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: Unable to allocate ")
        assert proc.stderr.count("\n") == 1

    def test_few_colors_count_walks_under_the_cap(self, tmp_path):
        # 134 disjoint triangles keep 2-FWL's 3 initial colors, 3**2 <= 402,
        # so each round counts walks in (2, 402, 402, 10) int64 rows (25 MiB),
        # where the sorted codes would need 994 MiB
        G = Graph.from_edges(402, [(t + a, t + b) for t in range(0, 402, 3)
                                   for a, b in ((0, 1), (1, 2), (0, 2))])
        (tmp_path / "tri.g6").write_text(encode_graph6(G) + "\n")
        proc = self.run_capped(tmp_path, "wl", "--graph", "tri.g6", "--other", "tri.g6")
        assert proc.returncode == 0, proc.stderr
        assert all(v["equivalent"] for v in json.loads(proc.stdout).values())

    def test_edgelist_record_too_large_names_file_and_record(self, tmp_path):
        (tmp_path / "big.json").write_text('[{"n": 3, "edges": []}, {"n": 200000, "edges": []}]')
        proc = self.run_capped(tmp_path, "--dataset-format", "edgelist-json", "count",
                               "--graph", "big.json:1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: big.json: record 1: Unable to allocate ")
        assert proc.stderr.count("\n") == 1
