"""Synthesize a fully offline test corpus.

Walks the exact request sequence both pipelines will issue for a seeded
synthetic video set and scripts one reply for each distinct request digest,
so build-sft, estimate-demand, and build-rl run end to end with zero network.
A few samples are deliberately scripted to fail specific stages so the
rejection paths stay exercised.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

from .cue_tree import backtrack, layer_compilations
from .gateway import ChatRequest, request_digest
from .records import Clip, QaPair, default_video_ref, write_records
from .rl_pipeline import trial_request
from .sft_pipeline import (
    caption_request,
    filter_request,
    rationale_request,
    selection_request,
)

_SCENES = (
    "a chef plating a layered dessert",
    "a cyclist crossing a fog-covered bridge",
    "a dog chasing a frisbee across a lawn",
    "a crowd drifting through a night market",
    "a technician soldering a circuit board",
    "a child stacking wooden blocks",
    "rain sweeping over a small harbor",
    "a barista pouring latte art",
)

_DETAILS = (
    "the camera pans slowly left",
    "the lighting shifts warmer",
    "background chatter rises",
    "a close-up lingers on the hands",
    "the focus racks to the foreground",
)

_MOVES = (
    "scan the entire video to get the overall context",
    "narrow my attention to the segment where the action develops",
    "focus on the clips that directly show the decisive moment",
    "re-watch the most relevant clip to confirm the detail",
    "zoom in on the final clip to verify the answer",
)


def _caption(rng: random.Random, video_id: str, index: int) -> str:
    return (
        f"Clip {index} of {video_id} shows {rng.choice(_SCENES)}; "
        f"{rng.choice(_DETAILS)}."
    )


def _cue_caption(rng: random.Random, video_id: str, indices: tuple[int, ...]) -> str:
    joined = ",".join(map(str, indices))
    return (
        f"Clips {joined} of {video_id} viewed together show {rng.choice(_SCENES)}; "
        f"{rng.choice(_DETAILS)}."
    )


def _rationale(steps: int) -> str:
    parts = []
    for k in range(1, steps + 1):
        move = _MOVES[min(k - 1, len(_MOVES) - 1)]
        parts.append(f"Step {k}: I {move}.")
    return " ".join(parts)


def synthesize_corpus(
    out_dir: str | Path,
    num_samples: int,
    seed: int,
    m_trials: int,
) -> dict:
    """Write clips, QA, shots, mock table, and config files; return a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    trial_temperature = 1.0
    clip_rows: list[dict] = []
    qa_rows: list[dict] = []
    expected_rejections: Counter[str] = Counter()
    expected_alphas: list[int] = []

    scripted: dict[str, dict] = {}  # mock table lines by digest, in table order

    def script(request: ChatRequest, reply: str, note: str) -> str:
        """Script reply unless the request's digest has one already; the reply it gets."""
        digest = request_digest(request)
        line = scripted.setdefault(digest, {"digest": digest, "reply": reply, "note": note})
        return line["reply"]

    for i in range(num_samples):
        video_id = f"v{i:02d}"
        n_clips = 1 if i == 0 else rng.randint(2, 6)
        clips = []
        t = 0.0
        for index in range(n_clips):
            duration = round(rng.uniform(3.0, 10.0), 2)
            clips.append(
                Clip(video_id=video_id, index=index, start_s=round(t, 2), end_s=round(t + duration, 2))
            )
            t += duration
        clip_rows.extend(c.to_record() for c in clips)

        options = tuple(rng.sample(_SCENES, 4))
        answer = "ABCD"[rng.randrange(4)]
        qa = QaPair(
            question=f"Which activity is central to video {video_id}?",
            answer=answer,
            qa_type="multiple_choice",
            options=options,
        )
        video_ref = default_video_ref(video_id)
        qa_rows.append(
            {**qa.to_record(), "video_id": video_id, "qa_index": 0, "video_ref": video_ref}
        )

        # The SFT leg: captions, selection, cue captions, filter, rationale.
        captioned = [
            replace(clip, caption=script(
                caption_request(video_ref, [clip]),
                _caption(rng, video_id, clip.index),
                f"{video_id} clip {clip.index} caption",
            ))
            for clip in clips
        ]

        selected = sorted(rng.sample(range(n_clips), min(n_clips, rng.randint(1, 2))))
        if i == num_samples - 3:
            script(
                selection_request(captioned, qa),
                f"I think clips {selected} matter most.",
                f"{video_id} selection (unparseable on purpose)",
            )
            expected_rejections["selection_unparseable"] += 1
        else:
            script(
                selection_request(captioned, qa),
                json.dumps(selected),
                f"{video_id} selection",
            )
            chain = layer_compilations(backtrack(n_clips, selected))
            # A one-clip compilation is its clip's caption request and keeps
            # that reply; its cue is still drawn, so that every later draw
            # stays where it was.
            cues = [
                script(
                    caption_request(video_ref, [clips[i] for i in compilation.clip_indices]),
                    _cue_caption(rng, video_id, compilation.clip_indices),
                    f"{video_id} compilation {compilation.clip_indices} caption",
                )
                for compilation in chain
            ]
            if i == num_samples - 2:
                script(filter_request(cues[-1], qa), "No", f"{video_id} filter (reject)")
                expected_rejections["insufficient_cues"] += 1
            else:
                script(filter_request(cues[-1], qa), "Yes", f"{video_id} filter")
                steps = len(cues) + 1 if i == num_samples - 1 else len(cues)
                script(
                    rationale_request(cues, qa),
                    _rationale(steps),
                    f"{video_id} rationale",
                )
                if i == num_samples - 1:
                    expected_rejections["step_count_mismatch"] += 1

        # The RL leg: M direct-answer trials hitting a spread of alpha values.
        alpha = i % (m_trials + 1)
        expected_alphas.append(alpha)
        wrong = next(letter for letter in "ABCD" if letter != answer)
        for trial_index in range(m_trials):
            if trial_index < alpha:
                reply = f"<answer>{answer}</answer>"
            elif trial_index == m_trials - 1 and i == 7:
                reply = "It is hard to say without sound."
            else:
                reply = f"<answer>{wrong}</answer>"
            script(
                trial_request(qa, video_ref, trial_index, trial_temperature),
                reply,
                f"{video_id} trial {trial_index}",
            )

    # A small standalone shots file for the segment subcommand walkthrough.
    shot_rows = []
    for video_id, cosines in (("s00", (0.99, 0.2, 0.95)), ("s01", (0.1, 0.1))):
        boundaries = [0.0]
        for _ in range(len(cosines) + 1):
            boundaries.append(round(boundaries[-1] + rng.uniform(2.0, 6.0), 2))
        embeddings = [(1.0, 0.0)]
        for cosine in cosines:
            x, y = embeddings[-1]
            # Rotate the previous direction so the pairwise cosine is exact.
            angle = math.acos(cosine)
            embeddings.append(
                (
                    round(x * math.cos(angle) - y * math.sin(angle), 6),
                    round(x * math.sin(angle) + y * math.cos(angle), 6),
                )
            )
        shot_rows.append(
            {
                "video_id": video_id,
                "boundaries_s": boundaries,
                "embeddings": [list(e) for e in embeddings],
            }
        )

    write_records(out / "clips.records", clip_rows)
    write_records(out / "qa.records", qa_rows)
    write_records(out / "mock_table.records", scripted.values())
    write_records(out / "shots.records", shot_rows)
    config = {
        "backends": {"mllm": {"kind": "mock"}, "llm": {"kind": "mock"}},
        "mock_table_path": "mock_table.records",
        "m_trials": m_trials,
        "parallelism": 1,
        "retry_base_delay_s": 0.0,
        "trial_temperature": trial_temperature,
    }
    (out / "config.json").write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")

    return {
        "num_samples": num_samples,
        "expected_emitted": num_samples - expected_rejections.total(),
        "expected_rejections": expected_rejections,
        "expected_alphas": expected_alphas,
        "paths": {
            "clips": str(out / "clips.records"),
            "qa": str(out / "qa.records"),
            "mock_table": str(out / "mock_table.records"),
            "shots": str(out / "shots.records"),
            "config": str(out / "config.json"),
        },
    }
