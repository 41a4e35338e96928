"""Drive scripted shop episodes through ``ShopEnv(catalog, goal).respond``.

    python3 perfbench/shop_batch.py CATALOG.jsonl EPISODES.jsonl RESULT.json

Runs in a fresh process, like every other command the benchmark times. Each
episode line holds a goal text and the actions to send; the result file holds
each episode's final reward and the duration of every respond() call, keyed
by action kind (search, next, click on an item, panel, buy). Shop episodes
cannot run through ``memroll rollout`` yet: ``ShopEnv.bind`` reads
``task.question``, which a ``CompositeTask`` does not have.
"""

from __future__ import annotations

import json
import sys
import time


def action_kind(action: str) -> str:
    if action.startswith("search["):
        return "search"
    arg = action[len("click[") : -1].lower()
    if arg == "next >":
        return "next"
    if arg == "buy now":
        return "buy"
    if arg in ("description", "features", "color", "size"):
        return "panel"
    return "click"


def main(argv: list[str]) -> int:
    catalog_path, episodes_path, result_path = argv
    from memroll.envs import ShopEnv, ShopGoal, load_catalog

    start = time.perf_counter()
    catalog = load_catalog(catalog_path)
    load_s = time.perf_counter() - start
    with open(episodes_path, encoding="utf-8") as fh:
        episodes = [json.loads(line) for line in fh if line.strip()]

    steps: dict[str, list[float]] = {}
    rewards: dict[str, float | None] = {}
    for episode in episodes:
        env = ShopEnv(catalog, ShopGoal.from_text(episode["goal"], catalog))
        obs = None
        for action in episode["actions"]:
            t0 = time.perf_counter()
            obs = env.respond(action)
            steps.setdefault(action_kind(action), []).append(time.perf_counter() - t0)
        rewards[episode["id"]] = obs.reward if obs is not None and obs.done else None
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"load_s": load_s, "steps": steps, "rewards": rewards}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
