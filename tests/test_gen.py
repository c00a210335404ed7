"""Seeded-generator tests: deterministic, valid, bounded, varied."""

import hashlib

import pytest

from bsgate import gen
from bsgate.gen import random_complex
from bsgate.parser import print_complex
from bsgate.surface import BranchedSurfaceComplex, validate


@pytest.mark.parametrize("seed", [0, 1, 17, 99])
def test_same_seed_same_complex(seed):
    assert print_complex(random_complex(seed)) == \
        print_complex(random_complex(seed))


def test_every_seed_validates_and_respects_the_budget():
    for seed in range(120):
        cx = random_complex(seed)
        assert validate(cx).ok(), (seed, validate(cx).violations)
        assert 1 <= len(cx.sectors) <= 6
        assert len(cx.dps) <= 4


def test_custom_budget_is_respected():
    for seed in range(30):
        cx = random_complex(seed, max_sectors=2, max_dps=0)
        assert len(cx.sectors) <= 2
        assert len(cx.dps) == 0


def test_seeds_cover_many_distinct_structures():
    bodies = set()
    for seed in range(40):
        # drop the name line: distinctness should come from structure
        bodies.add("\n".join(print_complex(random_complex(seed))
                             .splitlines()[1:]))
    assert len(bodies) >= 25


def test_identifiers_never_collide():
    for seed in range(40):
        cx = random_complex(seed)
        ids = ([s.id for s in cx.sectors] + [g.id for g in cx.segments]
               + [d.id for d in cx.dps])
        assert len(ids) == len(set(ids))


def test_blocks_are_parsed_once_at_import(monkeypatch):
    before = random_complex(0)

    def refuse(text):
        raise AssertionError("random_complex parsed a block template")

    monkeypatch.setattr(gen, "parse_complex", refuse)
    assert random_complex(0) == before


def test_each_seed_builds_one_complex_and_its_merge_candidates(monkeypatch):
    # blocks and moves rewrite parts; each seed builds its complex once,
    # unless its last kept merge built it, and each merge of two or more
    # sectors builds the candidate it validates: 768 final complexes and
    # 411 candidates over seeds 0-999
    built = []
    init = BranchedSurfaceComplex.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(BranchedSurfaceComplex, "__init__", counting_init)
    gen._block.cache_clear()
    for seed in range(1000):
        random_complex(seed)
    assert len(built) == 1179


def _digest(seeds, **budget):
    h = hashlib.sha256()
    for seed in seeds:
        h.update(print_complex(random_complex(seed, **budget)).encode())
    return h.hexdigest()


def test_generated_complexes_are_pinned():
    # every seed's printed complex, byte for byte; the second budget
    # reaches a seventh block, past any position the default reaches
    assert _digest(range(1000)) == (
        "1cc86d7a35d7927bf2454aa3ee6f6a1cb5cdd4dc37f005c1ed5b0cf864d869f3")
    assert _digest(range(200), max_sectors=12, max_dps=8) == (
        "5d43b98241a92daef03793186904159e88f72d0aeebc72d917f38a8b0f510a29")
