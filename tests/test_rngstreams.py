"""The RNG-stream registry: bit-identity with the pre-registry call
sites, derivation disjointness invariants, and the Link fallback.

Every stream in :mod:`repro.netsim.rngstreams` replaced an inline
``np.random.default_rng(...)`` expression; these tests pin that the
registry feeds ``default_rng`` exactly the same entropy, so the
migration cannot have moved a single bit (golden traces check the
end-to-end consequence, this checks the mechanism).
"""

import numpy as np
import pytest

from repro.netsim.link import Link
from repro.netsim.rngstreams import (INDEX_SALT_FLOOR, STREAMS, derive_seed,
                                     stream_rng)


def _same_stream(a, b, n=16):
    return np.array_equal(a.random(n), b.random(n))


class TestBitIdentity:
    """Each stream reproduces its pre-registry inline expression."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    def test_sim_pacing_is_raw_seed(self, seed):
        # network.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("sim.pacing", seed),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [0, 3, 99])
    def test_sim_hop_dither_is_salted(self, seed):
        # network.py formerly: np.random.default_rng((seed, 0x517CC1B7))
        assert _same_stream(stream_rng("sim.hop-dither", seed),
                            np.random.default_rng((seed, 0x517CC1B7)))

    @pytest.mark.parametrize("seed,i", [(0, 0), (0, 3), (42, 1)])
    def test_link_loss_is_indexed(self, seed, i):
        # topology.py formerly: np.random.default_rng((seed, i))
        assert _same_stream(stream_rng("link.loss", seed, index=i),
                            np.random.default_rng((seed, i)))

    @pytest.mark.parametrize("seed", [0, 5, 1000])
    def test_env_params_is_raw_seed(self, seed):
        # env.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("env.params", seed),
                            np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [1, 6, 77])
    def test_env_episode_link_is_affine(self, seed):
        # env.py formerly: np.random.default_rng(seed * 7919 + 1)
        assert _same_stream(stream_rng("env.episode-link", seed),
                            np.random.default_rng(seed * 7919 + 1))

    @pytest.mark.parametrize("seed", [0, 23])
    def test_trace_synth_is_raw_seed(self, seed):
        # traces.py formerly: np.random.default_rng(seed)
        assert _same_stream(stream_rng("trace.synth", seed),
                            np.random.default_rng(seed))


class TestDerivationContract:
    def test_unknown_stream_rejected(self):
        with pytest.raises(KeyError, match="unknown RNG stream"):
            stream_rng("no.such.stream", 0)

    def test_missing_seed_material_rejected(self):
        with pytest.raises(ValueError):
            stream_rng("sim.pacing")          # raw needs a seed
        with pytest.raises(ValueError):
            stream_rng("link.loss", 0)        # indexed needs an index
        with pytest.raises(ValueError):
            stream_rng("link.default")        # named needs a key

    def test_tuple_kinds_disjoint_from_int_kinds(self):
        # SeedSequence treats an int and a tuple as different entropy:
        # salted/indexed streams can never collide with raw/affine ones
        # even at the same seed value.
        seed = 11
        assert not _same_stream(stream_rng("sim.pacing", seed),
                                stream_rng("sim.hop-dither", seed))
        assert not _same_stream(stream_rng("sim.pacing", seed),
                                stream_rng("link.loss", seed, index=seed))

    def test_salts_clear_index_floor(self):
        # A salted stream sharing a domain with an indexed stream must
        # use a salt no plausible link/flow index can reach.
        indexed_domains = {s.domain for s in STREAMS if s.derive == "indexed"}
        for s in STREAMS:
            if s.derive == "salted" and s.domain in indexed_domains:
                assert s.salt >= INDEX_SALT_FLOOR, s.name

    def test_int_valued_overlaps_carry_collision_notes(self):
        # Within one domain, any two int-valued derivations (raw/affine)
        # can overlap; the registry must document every such pair.
        by_domain = {}
        for s in STREAMS:
            if s.derive in ("raw", "affine"):
                by_domain.setdefault(s.domain, []).append(s)
        for domain, streams in by_domain.items():
            if len(streams) > 1:
                for s in streams:
                    assert s.collision_note, (
                        f"{s.name} shares int-valued domain {domain!r} "
                        f"without a collision_note")

    def test_salts_are_pairwise_distinct(self):
        # Two streams sharing a salt fold two logically distinct
        # streams into one wherever their other entropy coincides.
        salts = [s.salt for s in STREAMS if s.salt is not None]
        assert len(salts) == len(set(salts))

    def test_fault_streams_derive_salted_indexed(self):
        # Fault draws are disjoint from sibling per-link streams by salt
        # and keyed by link position: entropy (seed, salt, link index).
        fault_streams = [s for s in STREAMS
                         if s.name.startswith("link.fault-")]
        assert fault_streams
        for s in fault_streams:
            assert s.derive == "salted-indexed", s.name
            assert s.salt is not None, s.name

    def test_stream_names_unique(self):
        names = [s.name for s in STREAMS]
        assert len(names) == len(set(names))

    def test_derive_seed_exposes_entropy(self):
        assert derive_seed("sim.pacing", 9) == 9
        assert derive_seed("sim.hop-dither", 9) == (9, 0x517CC1B7)
        assert derive_seed("link.loss", 9, index=2) == (9, 2)
        assert derive_seed("env.episode-link", 9) == 9 * 7919 + 1


class TestLinkDefaultFallback:
    """Satellite: Link() without rng gets a name-derived stream, not a
    process-wide shared ``default_rng(0)``."""

    def test_same_name_same_stream(self):
        a = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="bottleneck")
        b = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="bottleneck")
        assert _same_stream(a.rng, b.rng)

    def test_different_names_different_streams(self):
        a = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="uplink")
        b = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5,
                 name="downlink")
        assert not _same_stream(a.rng, b.rng)

    def test_fallback_disjoint_from_legacy_shared_stream(self):
        # The hazard being removed: every anonymous link used to drain
        # one default_rng(0).
        link = Link(trace=100.0, delay=0.01, queue_size=10, loss_rate=0.5)
        assert not _same_stream(link.rng, np.random.default_rng(0))

    def test_explicit_rng_still_wins(self):
        rng = np.random.default_rng(77)
        link = Link(trace=100.0, delay=0.01, queue_size=10, rng=rng)
        assert link.rng is rng
