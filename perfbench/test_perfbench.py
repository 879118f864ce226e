"""Tests of the benchmark itself: ``python -m pytest perfbench`` from the
repository root."""

from __future__ import annotations

import importlib.util
import io
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from run import EXACT, Runner, layer_values  # noqa: E402

from lettercorr import normalize, normalize_stream, tokenize  # noqa: E402

SMALL_TOKENS = 48_000  # long enough for two segments of 100000 symbols


def test_seed_zero_is_the_integration_novel():
    spec = importlib.util.spec_from_file_location("integration", ROOT / "tests" / "test_integration.py")
    integration = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(integration)
    novel = corpus.synthetic_corpus(0)
    text = normalize(novel.raw)
    assert len(text) == 1_154_457
    assert len(tokenize(text)) == 219_840
    assert text.to_bytes() == novel.normalized
    assert text == integration.synthetic_novel()


def test_other_seeds_change_the_words_not_the_size():
    a, b = corpus.synthetic_corpus(1), corpus.synthetic_corpus(2)
    assert a.words != b.words
    assert abs(len(a.normalized) - len(b.normalized)) < 0.005 * len(a.normalized)


def test_stream_digest_matches_normalize(tmp_path):
    small = corpus.synthetic_corpus(3, n_tokens=2400)
    path = tmp_path / "stream.txt"
    digest = corpus.write_stream(path, small, copies=3)
    raw = path.read_bytes()
    out = io.BytesIO()
    normalize_stream(io.BytesIO(raw), out, chunk_size=4096)
    check = workloads.check_sha(digest)
    for body in (normalize(raw).to_bytes(), out.getvalue()):
        result = tmp_path / "norm.txt"
        result.write_bytes(b"# lettercorr normalize\n" + body)
        check(result)


def test_self_times_add_up_to_the_root_span():
    rec = spans.Recorder()
    with rec.span("root"):
        time.sleep(0.002)
        with rec.span("a"):
            with rec.span("b"):
                time.sleep(0.002)
            time.sleep(0.001)
        with rec.span("c"):
            time.sleep(0.001)
    own = spans.self_times(rec.spans)
    _, start, end, _ = rec.spans[0]
    assert all(t > 0 for t in own)
    assert sum(own) == pytest.approx(end - start, abs=1e-12)


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """Two traced runs of every workload on a small corpus of one seed."""
    small = lambda seed: corpus.synthetic_corpus(seed, n_tokens=SMALL_TOKENS)  # noqa: E731
    patch = pytest.MonkeyPatch()
    patch.setattr(workloads, "synthetic_corpus", small)
    out = {}
    try:
        for name, prepare in workloads.WORKLOADS.items():
            runner = Runner(ROOT, prepare(tmp_path_factory.mktemp(name), 5))
            out[name] = (runner, [runner.run(trace=True)[1] for _ in range(2)])
    finally:
        patch.undo()
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counters_repeat_and_self_times_add_up(traced_runs, name):
    runner, results = traced_runs[name]
    assert runner.failed == 0 and runner.attempted == 2 * len(runner.prepared.ops)
    values = [layer_values(res["layers"], res) for res in results]
    exact = {k for k in values[0] if k.endswith(EXACT)}
    assert exact and all({k: v[k] for k in exact} == {k: values[0][k] for k in exact} for v in values)
    for res in results:
        layers = res["layers"]
        own = sum(v for k, v in layers.items() if k.endswith(".s"))
        roots = sum(v for k, v in layers.items() if k.endswith(".total_s"))
        assert own == pytest.approx(roots, rel=1e-9)


def test_layer_counters_are_exact(traced_runs):
    _, results = traced_runs["words"]
    layers = results[0]["layers"]
    assert layers["textnorm.tokenize.calls"] == 6
    assert layers["textnorm.tokenize.distinct"] == 1
    assert layers["textnorm.tokenize.tokens"] == 6 * (SMALL_TOKENS // 240 * 240)
    _, results = traced_runs["letters"]
    layers = results[0]["layers"]
    assert layers["walk.displacement.calls"] == 5


def _edit_row(data: bytes, row: int, col: int, edit) -> bytes:
    """Apply ``edit`` to one cell of a TSV; ``row`` counts from the end
    when negative, else from the column-header line of the last table."""
    lines = data.rstrip(b"\n").split(b"\n")
    if row >= 0:
        row += max(i for i, ln in enumerate(lines) if ln.startswith(b"#")) + 2
    cells = lines[row].split(b"\t")
    cells[col] = edit(cells[col])
    lines[row] = b"\t".join(cells)
    return b"\n".join(lines) + b"\n"


def _scale(cell: bytes) -> bytes:
    return repr(float(cell) * 1.001).encode()


def _plus_one(cell: bytes) -> bytes:
    return str(int(cell) + 1).encode()


def _swap_ends(data: bytes) -> bytes:
    """Swap the first symbol with the last one that differs from it: the
    global histogram stays, those of the first and last blocks change."""
    body = data.index(b"\n", data.rindex(b"\n#") + 1) + 1
    last = next(i for i in range(len(data) - 1, body, -1) if data[i] != data[body])
    out = bytearray(data)
    out[body], out[last] = data[last], data[body]
    return bytes(out)


MUTATIONS = [
    ("letters", "norm.txt", lambda d: d + b"x"),
    ("letters", "walk4.tsv", lambda d: _edit_row(d, -1, 1, _scale)),
    ("letters", "profile-1000.tsv", lambda d: _edit_row(d, 0, 1, _scale)),
    ("letters", "letter.txt", lambda d: d[:-1] + (b"b" if d[-1:] == b"a" else b"a")),
    ("letters", "window-permute.txt", _swap_ends),
    ("words", "word.txt", lambda d: d.rsplit(b" ", 1)[0]),
    ("words", "zipf.tsv", lambda d: _edit_row(d, -1, 2, _plus_one)),
    ("words", "halves.tsv", lambda d: _edit_row(d, -1, 1, _plus_one)),
]


@pytest.mark.parametrize("name, output, mutate", MUTATIONS)
def test_oracles_reject_corrupted_output(traced_runs, name, output, mutate):
    runner, _ = traced_runs[name]
    op = next(op for op in runner.prepared.ops if op.output.name == output)
    op.check(op.output)
    saved = op.output.read_bytes()
    try:
        op.output.write_bytes(mutate(saved))
        with pytest.raises(workloads.OracleError):
            op.check(op.output)
    finally:
        op.output.write_bytes(saved)
