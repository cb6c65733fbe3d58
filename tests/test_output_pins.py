"""Byte pins: the sha256 of every file and output line the CLI writes on fixed inputs.

The inputs are the seed-7 mock corpora of 20 and 200 samples, small reward
and log-prob files written here from a fixed seed, and `tree` selections:
every non-empty one of 1 to 5 clips, and three seeded ones of 37.
`build-sft` and `estimate-demand` run at parallelism 1 and 4, and both runs
must match one pin.  A deliberate change to an output edits DIGESTS, and the change log
names each digest changed and why.

`segment` normalises embeddings through BLAS, so its pins may differ in a
last bit on another CPU; such a mismatch is a finding, not a pin to refresh.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from toc.cli import main
from toc.cue_tree import backtrack, build_tree, layer_compilations
from toc.gateway import ChatRequest, MockBackend, request_digest
from toc.mockgen import synthesize_corpus
from toc.records import load_qa_tasks, write_records
from toc.sft_pipeline import (
    caption_request,
    filter_request,
    load_clips,
    rationale_request,
    selection_request,
)

# The journals that a cold build-sft run writes on the 20-sample corpus at
# parallelism 1: one outcome line per sample, as written today, and an older
# one with a line for each of five stages.
JOURNAL_20 = Path(__file__).parent / "golden" / "build_sft_20_outcomes.journal"
JOURNAL_20_FIVE_STAGES = Path(__file__).parent / "golden" / "build_sft_20_five_stages.journal"

CORPUS_FILES = ("clips.records", "qa.records", "mock_table.records", "shots.records", "config.json")

DIGESTS = {
    "20/build-rl --target 50": "d36311bd0d9a7735911a69bb84290d927d1d0c49a07a03f935cbf6162b2aa842",
    "20/build-rl --target 50.report": "29016263db148fc46a19d06c4a2099ba6973340c664a610df77c320e54ce72bb",
    "20/build-sft": "d7c1156edcd073429f0aaee939071ebc766844d8bfef3037876c4db11ac98292",
    "20/build-sft.rejected": "ea5612c1502b593be6bc8c1f8964b0adbcfcbdb739fde64ff86d3f1fd914c5fd",
    "20/build-sft.report": "07f17d09004c015787cc5f3131b5202ec41758683c72dd43af562c2959bb2127",
    "20/clips.records": "0283f07df854fb674a68c056e27d22dc45504659e0e3a0ab7c349cd6af613485",
    "20/config.json": "0f9e977850717253289c8562ec30010016192323848a1587514e0ee78d0e5d68",
    "20/estimate-demand": "4c5dec79948ef85e0b96e4ddcf0fa59b0fe5504e488d4d92f9d04444577a42d9",
    "20/estimate-demand.report": "75201423627d5a0cd91ddeaaecac1027b1c8edf51ae6f8afb8c2c2a323f87470",
    "20/mock_table.records": "0cde9341810d86a266be1d8ce3c92b2011cbd5c6503e513d2cef5d5764b0ddcf",
    "20/qa.records": "1bf42ca2ff49ee6b66130544ed068a7d37b3e465290c29789bc5827e788b2f40",
    "20/segment": "b0d61e8e3803010fe5d62dfba443ba8c39f03e9f557bb09075cd101fb2929b3f",
    "20/segment.report": "c37ab3d5364cae98fce275b4a9b52592612116ab21b3ccc1287cf6fb0f5111a9",
    "20/shots.records": "5365c6adb84f100f703ebb6689c31a60d55592722824e883d3f7c63d52ee219c",
    "200/build-rl --target 50": "c435cd220c8768a31047d16c9c8098c70428115095d2826d267cc52d3022703f",
    "200/build-rl --target 50.report": "a260f09a5dddc5b2deefd0c77c1c2f640f313116c9600e22527f7338cb5a01ed",
    "200/build-sft": "b6510157de936c02baef3e1f309288a560d7a4854ffb227c2ce18a0cedf72078",
    "200/build-sft.rejected": "56b0e2277ae510ad28843b2a9293fdb45458875724ccf14739e988c9c9ff8a63",
    "200/build-sft.report": "d59d1e353cf77a6b94f7efe8af606c3ca9e81f61d70670c8bb720381a9584f78",
    "200/clips.records": "80d53144338a929f0c9cd719c8a7c763c903bbb947b461b49a3dd73c5edd720a",
    "200/config.json": "0f9e977850717253289c8562ec30010016192323848a1587514e0ee78d0e5d68",
    "200/estimate-demand": "610cd64a6fcc963fdc99f98a93922e6c27e44688a9fa42efe0a8d492656c4f66",
    "200/estimate-demand.report": "ad086a942767d04841a64cba4736a92fa4cc4c3100dc1e8597e6f091f961b51e",
    "200/mock_table.records": "5267ba41dc2c598bfa7f0f193e8f1e6d57ca092b603ebe6924714b47f31ad4df",
    "200/qa.records": "738d6edf8d9129ec1ec4cb70d83bcc2b4de0daf808564237fbd7646f15cecd27",
    "200/segment": "359a941635456999c02ab5b3d79d9d04668458eefd804868ef5c14f4ba14a439",
    "200/segment.report": "c37ab3d5364cae98fce275b4a9b52592612116ab21b3ccc1287cf6fb0f5111a9",
    "200/shots.records": "1fc1cfde98ec2ab19194ae275ee9dfd331444dc4d1c32172fd646499ff7ce097",
    "grpo-eval stdout": "969143504e7f8e57f0c887cd17b97b24e0dbc4c37c3be41de0e59659a7585584",
    "grpo-eval.report": "f31fc0c916dfd27499d6b4d98cb06e5343d4b6fcf8f4d5c72b1920947f8f1598",
    "reward stdout": "1f3b3da464067c68371b8715ac70ca66ef70109d5ecc079122e8abb591c8f99d",
    "reward.report": "73231ba3b4e78609712794c62d097b07ab480a35b4861f0a7efb07ee3b4923c4",
    "tree --n 1 stdout": "08a885acda8d70ab61de62a256edf9b6b2b036bc81a32b3c6b41c94d9b6fc054",
    "tree --n 1.report": "0c9a9fdc931feabbf8f3c03e358f6962808f772ef9b78a7d4095cf8c0cb73783",
    "tree --n 2 stdout": "565c20561ec8f3d4a773589f6ac54da04351a14b331d414f3d0e2984c37876d4",
    "tree --n 2.report": "014d20d0a5e3aad5218380ce6aa58c09bf982a14dfdba7b3ea0eeb62ad827719",
    "tree --n 3 stdout": "5ed1e1254d6dea89a08f305fd23ea76fa5c98802663c367ed55f208351aa4d6a",
    "tree --n 3.report": "655ebb8711cde1246b6c6caef9cc630334e6d8b3affb7cd64abd7b8a910ff28f",
    "tree --n 37 stdout": "2a9d67d067bc5255715919e1a72ce8470ead8445724ea0dbea74a7afb0ce8de5",
    "tree --n 37.report": "2e49df0e6a381aca5ba90ce8d959f77d27213690b2fff21c710f330e27caa76e",
    "tree --n 4 stdout": "ed84153f9c939113524027d4c7169fa7086ce8f8ef1380acfb86ce0b1f829e09",
    "tree --n 4.report": "8c551271f0b9ccfde1646434a073f7b500c5bb19366ffdc5f6075bfa9f0b4560",
    "tree --n 5 stdout": "af6ce6b2887ece3a4ca1fa00d1b569849d7058f02ca51b31eeff997b5c283322",
    "tree --n 5.report": "f754d2eb07dd6b0efe1ff8e2215e8be67da5abf2ff9ac17a70981c776a87b28b",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_pin(name: str, data: bytes) -> None:
    assert sha256(data) == DIGESTS[name], f"{name} no longer matches its pin"


def run(*args: str) -> bytes:
    """Run one subcommand, which must exit 0; its stdout as bytes."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(list(args)) == 0
    return stdout.getvalue().encode("utf-8")


def files(out: Path, name: str, suffixes: tuple[str, ...]) -> dict[str, bytes]:
    return {f"{name}{suffix}": Path(f"{out}{suffix}").read_bytes() for suffix in suffixes}


def build_sft(corpus: Path, out: Path, parallelism: int) -> dict[str, bytes]:
    run("build-sft", "--videos", str(corpus / "clips.records"), "--qa", str(corpus / "qa.records"),
        "--config", str(corpus / "config.json"), "--parallelism", str(parallelism), "-o", str(out))
    return files(out, "build-sft", ("", ".rejected", ".report"))


def corpus_outputs(corpus: Path, work: Path) -> dict[str, list[bytes]]:
    """Each output of the corpus's pipeline, once per run that must give it."""
    found: dict[str, list[bytes]] = {}

    def add(outputs: dict[str, bytes]) -> None:
        for name, data in outputs.items():
            found.setdefault(name, []).append(data)

    add({name: (corpus / name).read_bytes() for name in CORPUS_FILES})
    run("segment", "--shots", str(corpus / "shots.records"), "-o", str(work / "segment"))
    add(files(work / "segment", "segment", ("", ".report")))
    for parallelism in (1, 4):
        add(build_sft(corpus, work / f"sft{parallelism}", parallelism))
        demand = work / f"demand{parallelism}"
        run("estimate-demand", "--qa", str(corpus / "qa.records"), "--config",
            str(corpus / "config.json"), "--parallelism", str(parallelism), "-o", str(demand))
        add(files(demand, "estimate-demand", ("", ".report")))
        rl = work / f"rl{parallelism}"
        run("build-rl", "--in", str(demand), "--target", "50", "-o", str(rl))
        add(files(rl, "build-rl --target 50", ("", ".report")))
    return found


def write_groups(path: Path, rng: random.Random) -> None:
    write_records(path, [
        {"gamma": rng.choice((0.25, 0.5, 1.0, round(rng.uniform(0.01, 1.0), 6))),
         "correct": [rng.random() < 0.5 for _ in range(rng.randint(2, 8))]}
        for _ in range(12)
    ])


def write_logprobs(path: Path, rng: random.Random) -> None:
    def group() -> dict:
        lengths = [rng.randint(0, 6) for _ in range(rng.randint(1, 4))]
        rows = {name: [[-3 * rng.random() for _ in range(n)] for n in lengths]
                for name in ("current", "old", "ref")}
        return {**rows, "scaled_advantages": [rng.uniform(-1.0, 1.0) for _ in lengths]}

    write_records(path, [group() for _ in range(6)])


def reward_outputs(work: Path) -> dict[str, list[bytes]]:
    rng = random.Random(11)
    groups, logprobs = work / "groups.records", work / "logprobs.records"
    write_groups(groups, rng)
    write_logprobs(logprobs, rng)
    reward = run("reward", "--group", str(groups), "--report", str(work / "reward.report"))
    grpo = run("grpo-eval", "--logprobs", str(logprobs), "--epsilon", "0.2", "--beta", "0.04",
               "--report", str(work / "grpo.report"))
    return {
        "reward stdout": [reward],
        "reward.report": [(work / "reward.report").read_bytes()],
        "grpo-eval stdout": [grpo],
        "grpo-eval.report": [(work / "grpo.report").read_bytes()],
    }


def tree_selections(n: int) -> list[list[int]]:
    """Every non-empty selection of up to 5 clips; above that, three seeded ones.

    A seeded selection is unsorted and may repeat an index.
    """
    if n <= 5:
        return [list(sel) for k in range(1, n + 1) for sel in combinations(range(n), k)]
    rng = random.Random(n)
    return [[rng.randrange(n) for _ in range(size)] for size in (1, 6, 30)]


def tree_outputs(work: Path) -> dict[str, list[bytes]]:
    """Per clip count, the stdouts and the reports of its selections, joined in order."""
    found: dict[str, list[bytes]] = {}
    for n in (1, 2, 3, 4, 5, 37):
        stdouts, reports = [], []
        for selected in tree_selections(n):
            report = work / f"tree{n}.report"
            stdouts.append(run("tree", "--n", str(n), "--select", ",".join(map(str, selected)),
                               "--report", str(report)))
            reports.append(report.read_bytes())
        found[f"tree --n {n} stdout"] = [b"".join(stdouts)]
        found[f"tree --n {n}.report"] = [b"".join(reports)]
    return found


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> dict[int, Path]:
    """Per corpus size, the directory its command runs write to."""
    return {size: tmp_path_factory.mktemp(f"work{size}") for size in (20, 200)}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory, work) -> dict[str, list[bytes]]:
    """Every pinned output by pin name, once per run that must reproduce it."""
    found = reward_outputs(tmp_path_factory.mktemp("reward"))
    found.update(tree_outputs(tmp_path_factory.mktemp("tree")))
    for size, work_dir in work.items():
        corpus = tmp_path_factory.mktemp(f"corpus{size}")
        synthesize_corpus(corpus, num_samples=size, seed=7, m_trials=8)
        found.update({f"{size}/{name}": data
                      for name, data in corpus_outputs(corpus, work_dir).items()})
    return found


def test_every_output_is_pinned(outputs):
    assert sorted(outputs) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_its_pin(outputs, name):
    for data in outputs[name]:
        check_pin(name, data)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_one_changed_byte_fails_the_pin(outputs, name):
    data = bytearray(outputs[name][0])
    middle = len(data) // 2
    data[middle] ^= 0x01
    with pytest.raises(AssertionError, match="no longer matches its pin"):
        check_pin(name, bytes(data))


def resume_golden(tmp_path: Path, monkeypatch, journal: bytes) -> list[ChatRequest]:
    """Resume build-sft on the 20-sample corpus from `journal`; the requests it sent.

    The outputs must match their pins.
    """
    calls: list[ChatRequest] = []
    complete = MockBackend.complete
    monkeypatch.setattr(
        MockBackend, "complete", lambda self, request: calls.append(request) or complete(self, request)
    )
    corpus = tmp_path / "corpus"
    synthesize_corpus(corpus, num_samples=20, seed=7, m_trials=8)
    out = tmp_path / "sft"
    Path(f"{out}.journal").write_bytes(journal)
    for name, data in build_sft(corpus, out, 1).items():
        check_pin(f"20/{name}", data)
    return calls


def test_pinned_journal_resumes_without_calls(tmp_path, monkeypatch):
    assert resume_golden(tmp_path, monkeypatch, JOURNAL_20.read_bytes()) == []


def test_five_stage_journal_resumes_without_calls(tmp_path, monkeypatch):
    assert resume_golden(tmp_path, monkeypatch, JOURNAL_20_FIVE_STAGES.read_bytes()) == []


def test_cold_run_writes_the_pinned_journal(outputs, work):
    one, four = ((work[20] / f"sft{parallelism}.journal").read_bytes() for parallelism in (1, 4))
    assert one == JOURNAL_20.read_bytes()
    assert sorted(four.splitlines()) == sorted(one.splitlines())


@pytest.mark.parametrize("parallelism", [1, 4])
def test_cold_run_journals_one_line_per_sample(outputs, work, parallelism):
    lines = (work[200] / f"sft{parallelism}.journal").read_bytes().splitlines()
    assert len({json.loads(line)["sample_id"] for line in lines}) == len(lines) == 200


# A crash after some of v10#0's checkpoints were written, before its outcome
# was, leaves the five-stage journal without v10#0's lines after `last`.  Its
# checkpoint lines are skipped, so v10#0 starts over: the resume sends each
# distinct request of its sequence once, and only those.  Its last
# compilation is clip 4 alone, the request clip 4's caption made, so that
# caption is its cue.
@pytest.mark.parametrize("last", ["selected", "filtered"])
def test_journal_cut_before_the_outcome_reruns_the_sample(tmp_path, monkeypatch, last):
    lines = JOURNAL_20_FIVE_STAGES.read_bytes().splitlines(keepends=True)
    entries = [json.loads(line) for line in lines]
    sample = {e["stage"]: e["payload"] for e in entries if e["sample_id"] == "v10#0"}
    stages = list(sample)
    assert stages == ["captioned", "selected", "cue_captioned", "filtered", "emitted"]
    dropped = set(stages[stages.index(last) + 1:])
    journal = b"".join(
        line for line, e in zip(lines, entries) if e["sample_id"] != "v10#0" or e["stage"] not in dropped
    )

    calls = resume_golden(tmp_path, monkeypatch, journal)
    corpus = tmp_path / "corpus"
    (task,) = [t for t in load_qa_tasks(corpus / "qa.records") if t.sample_id == "v10#0"]
    clips = load_clips(corpus / "clips.records")["v10"]
    captioned = [replace(c, caption=cap) for c, cap in zip(clips, sample["captioned"]["captions"])]
    chain = layer_compilations(backtrack(build_tree(len(clips)), sample["selected"]["selected"]))
    assert len(chain) == len(sample["cue_captioned"]["cues"]) == 4
    sent: dict[str, str] = {}  # the reply to each request digest sent so far
    requests = []

    def send(request: ChatRequest, reply: str = "") -> str:
        digest = request_digest(request)
        if digest not in sent:
            sent[digest] = reply
            requests.append(request)
        return sent[digest]

    for clip in captioned:
        send(caption_request(task.video_ref, [clip]), clip.caption)
    send(selection_request(captioned, task.qa))
    cues = [send(caption_request(task.video_ref, [clips[i] for i in compilation.clip_indices]), cue)
            for compilation, cue in zip(chain, sample["cue_captioned"]["cues"])]
    assert cues[-1] == captioned[4].caption
    send(filter_request(cues[-1], task.qa))
    send(rationale_request(cues, task.qa))
    assert calls == requests
