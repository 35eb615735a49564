"""The ping-pong drivers and adapter uniformity."""

import pytest

from repro.cluster import mpiexec
from repro.workloads.adapters import ADAPTERS, make_adapter
from repro.workloads.pingpong import (
    FIG9_SIZES,
    FIG10_OBJECT_COUNTS,
    _check_payload,
    _pattern,
    sweep_buffer_pingpong,
    sweep_tree_pingpong,
)

QUICK = {"iterations": 4, "timed": 2, "runs": 1}


class TestAxes:
    def test_fig9_sizes(self):
        assert FIG9_SIZES[0] == 4
        assert FIG9_SIZES[-1] == 262144
        assert len(FIG9_SIZES) == 17  # the paper's 17 powers of two

    def test_fig10_counts(self):
        assert FIG10_OBJECT_COUNTS[0] == 2
        assert FIG10_OBJECT_COUNTS[-1] == 8192


class TestPattern:
    @pytest.mark.parametrize("nbytes", [0, 1, 255, 256, 257, 65539])
    def test_matches_the_bytewise_generator(self, nbytes):
        assert _pattern(nbytes) == bytes((i * 37 + 11) % 256 for i in range(nbytes))

    def test_check_payload(self):
        _check_payload(_pattern(513), 513, "cpp:")
        bad = bytearray(_pattern(513))
        bad[256] ^= 0xFF
        with pytest.raises(AssertionError, match="^cpp: ping payload corrupted at size 513$"):
            _check_payload(bytes(bad), 513, "cpp: ping")


class TestAdapters:
    def test_registry_complete(self):
        assert {
            "cpp",
            "motor",
            "motor-hashed",
            "motor-pin-always",
            "indiana-sscli",
            "indiana-sscli-fastchecked",
            "indiana-dotnet",
            "mpijava",
            "jmpi",
        } <= set(ADAPTERS)

    def test_unknown_adapter(self):
        from repro.cluster import World

        ctx = World(2).context_for(0)
        with pytest.raises(ValueError, match="unknown adapter"):
            make_adapter("openmpi", ctx)

    @pytest.mark.parametrize("flavor", sorted(ADAPTERS))
    def test_buffer_verbs_uniform(self, flavor):
        """Every adapter satisfies the five-verb contract for fig9."""

        def main(ctx):
            ad = make_adapter(flavor, ctx)
            buf = ad.alloc(16)
            if ctx.rank == 0:
                ad.fill(buf, bytes(range(16)))
                ad.send(buf, 1, 1)
                ad.recv(buf, 1, 2)
                return ad.read(buf)
            ad.recv(buf, 0, 1)
            ad.send(buf, 0, 2)
            ad.barrier() if False else None
            return None

        assert mpiexec(2, main)[0] == bytes(range(16))

    @pytest.mark.parametrize(
        "flavor", ["motor", "motor-hashed", "indiana-sscli", "indiana-dotnet", "mpijava", "jmpi"]
    )
    def test_tree_verbs_uniform(self, flavor):
        def main(ctx):
            ad = make_adapter(flavor, ctx)
            if ctx.rank == 0:
                tree = ad.build_tree(4, 160)
                ad.send_tree(tree, 1, 1)
                return None
            got = ad.recv_tree(0, 1)
            ad.verify_tree(got, 4, 160)
            return True

        assert mpiexec(2, main)[1] is True

    def test_native_has_no_trees(self):
        assert not ADAPTERS["cpp"].supports_trees

    def test_overflow_prediction_only_for_mpijava(self):
        def main(ctx):
            ad = make_adapter("mpijava", ctx)
            limit = ad.comm.runtime.costs.java_recursion_limit
            return (
                ad.tree_will_overflow(limit + 1),
                ad.tree_will_overflow(limit - 1),
            )

        assert mpiexec(2, main)[0] == (True, False)


class TestSweeps:
    def test_buffer_sweep_returns_means(self):
        res = sweep_buffer_pingpong("cpp", sizes=[4, 64], **QUICK)
        assert set(res) == {4, 64}
        assert all(v > 0 for v in res.values())

    def test_buffer_sweep_monotone_in_size(self):
        res = sweep_buffer_pingpong("cpp", sizes=[4, 4096, 65536], **QUICK)
        assert res[4] < res[4096] < res[65536]

    def test_buffer_sweep_deterministic_virtual(self):
        a = sweep_buffer_pingpong("motor", sizes=[4, 1024], **QUICK)
        b = sweep_buffer_pingpong("motor", sizes=[4, 1024], **QUICK)
        assert a == pytest.approx(b)

    def test_tree_sweep_basic(self):
        res = sweep_tree_pingpong("motor", object_counts=[2, 8], **QUICK)
        assert res[2] > 0 and res[8] > res[2] * 0.5

    def test_tree_sweep_marks_overflow_gap(self):
        res = sweep_tree_pingpong("mpijava", object_counts=[4, 2048], **QUICK)
        assert res[4] is not None
        assert res[2048] is None  # the paper's stack-overflow gap

    def test_wall_clock_mode_runs(self):
        res = sweep_buffer_pingpong(
            "cpp", sizes=[64], clock_mode="wall", **QUICK
        )
        assert res[64] > 0
