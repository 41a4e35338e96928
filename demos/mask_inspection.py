"""
Stitched sequences and attention masks
======================================

A finished episode is flattened into one token sequence for training. Each
token carries a segment label, the turn it belongs to, a context-local
position, and a visibility row: exactly the tokens it could attend to when it
was sampled. The loss mask keeps gradients off everything the policy did not
generate.
"""

import numpy as np

from memroll import (
    RolloutConfig,
    ScriptedEnv,
    ScriptedPolicy,
    SEGMENT_NAMES,
    Task,
    WordTokenizer,
    build_masks,
    export_masks,
    import_masks,
    run_rollout,
    stitch,
    visible_tokens,
)
from memroll.compose import composite_from_tasks

config = RolloutConfig(max_turns=4, mode="consolidate")
task = composite_from_tasks(
    [Task("q1", "Which port ships the most amber?", ["Kaliningrad"])], config.preset
)
script = [
    "<IS>Need the top amber port.</IS><query>largest amber port</query>",
    "<IS>Sources point to the Baltic coast.</IS><query>Kaliningrad amber exports</query>",
    "<IS>Kaliningrad dominates amber shipping.</IS><answer>Kaliningrad</answer>",
]
env = ScriptedEnv(
    ["Amber is mined near the Baltic Sea.", "Kaliningrad handles most amber exports."]
)
record = run_rollout(task, ScriptedPolicy(script), env, config)

counter = WordTokenizer()
st = stitch(record, counter)
mask2d, mask1d = build_masks(st)

print(f"{st.n} tokens across {len(record.turns)} turns")
for name in SEGMENT_NAMES:
    count = int((st.segments == SEGMENT_NAMES.index(name)).sum())
    print(f"  {name:>6}: {count}")

# The loss mask is the generated flag: info, hints, and the prompt head are
# excluded from the gradient.
print("loss-bearing tokens:", int(mask1d.loss.sum()), "of", st.n)

# Pick the first generated token of the last turn and decode what it saw.
last_turn = len(record.turns)
first = int(np.nonzero((st.turn_of == last_turn) & st.generated)[0][0])
seen = visible_tokens(mask2d, first)
print()
print(f"token {first} (turn {last_turn}) attends to {seen.size} tokens, decoding to:")
decoded = counter.decode([int(st.tokens[i]) for i in seen])
print(decoded[-200:])
assert decoded == record.turns[-1].context_snapshot

# Turn 1's tag blocks were consolidated away: nothing from that turn is
# visible by the final turn.
turn1 = set(np.nonzero(st.turn_of == 1)[0].tolist())
assert not turn1 & set(seen.tolist())
print()
print("turn 1 tokens visible from the final turn: none")

# The container round-trips bit-exactly and carries a payload hash. The
# default format stores each turn's base ranges and the sequence's own string
# table, so it decodes with no tokenizer at hand; dense_bitpack stores one bit
# per pair of tokens.
blob = export_masks(st, mask2d, mask1d, counter.name)
st2, mask2, loss2, header = import_masks(blob)
dense = export_masks(st, mask2d, mask1d, counter.name, fmt="dense_bitpack")
print()
print(f"{header['format']} container: {len(blob)} bytes ({len(blob) / st.n:.1f} B/token), "
      f"sha256 {header['sha256'][:12]}..., n={header['n']}")
print(f"dense_bitpack container: {len(dense)} bytes ({len(dense) / st.n:.1f} B/token)")
assert "".join(st2.strings[t] for t in st2.tokens[seen]) == decoded
assert np.array_equal(mask2.words, mask2d.words)
