"""Fixed reference program the benchmark times to gauge the host's speed.

    python3 perfbench/reference.py

It does the kind of work memroll's commands do — start an interpreter, import
numpy and requests, tokenize text with a regex, count terms, compute TF-IDF
norms, round-trip JSON — on fixed inputs, and never imports memroll, so no
change to memroll can change its running time. run.py times it next to the
pipeline and reports times at the speed where this program takes
REFERENCE_S seconds.
"""

import json
import math
import random
import re
from collections import Counter

import numpy  # noqa: F401  (every memroll command pays this import)
import requests  # noqa: F401

WORD = re.compile(r"\w+")

rng = random.Random(0)
vocab = [f"w{i}" for i in range(3000)]
docs = [" ".join(rng.choices(vocab, k=40)) for _ in range(3000)]
tfs = [Counter(WORD.findall(doc.lower())) for doc in docs]
df: Counter = Counter()
for tf in tfs:
    df.update(tf.keys())
idf = {t: math.log(len(docs) / c) for t, c in df.items()}
norms = [math.sqrt(math.fsum((math.log(1 + c) * idf[t]) ** 2 for t, c in tf.items())) for tf in tfs]
json.loads(json.dumps({"docs": docs, "norms": norms}))
