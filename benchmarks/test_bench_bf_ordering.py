"""Experiment F8 — breadth-first lookup ordering (paper Figure 8).

The paper measures three quantities on a 3M-row Org relation while
varying the database buffer size (32/64/128 MB): buffer hit ratio
(BHR), processor usage (PU), and lookup throughput (pt), for the
breadth-first (bf) vs. random (rnd) lookup orders.

Our substitution (see DESIGN.md): an Org relation at laptop scale, a
paged q-gram inverted index over a real LRU buffer pool, and a swept
buffer capacity in pages.  Costs are simulated deterministically:
one unit per candidate verification (CPU) and ``IO_WEIGHT`` units per
physical page read (I/O stall), giving

- ``BHR`` = buffer hits / accesses,
- ``PU``  = cpu / (cpu + io),
- ``pt``  = lookups / (cpu + io).

Expected shape (asserted): bf beats rnd on BHR and pt at every buffer
size, and the relative gap shrinks as the buffer grows.
"""

from repro.core.formulation import DEParams
from repro.core.nn_phase import Phase1Stats, prepare_nn_lists
from repro.data.loaders import load_dataset
from repro.distances.base import CachedDistance
from repro.distances.edit import EditDistance
from repro.eval.report import format_table
from repro.index.inverted import QgramInvertedIndex
from repro.storage.buffer import BufferPool
from repro.storage.pages import DiskManager

from conftest import write_report

#: Simulated cost of a physical page read, in candidate-verification
#: units (a disk page read is orders of magnitude above one string
#: comparison; 20 keeps the two terms comparable at these sizes).
IO_WEIGHT = 20.0
#: The paper's 32 / 64 / 128 MB analogue: the index occupies ~3300
#: pages, so these capacities cache roughly 15% / 30% / 60% of it.
BUFFER_PAGES = (512, 1024, 2048)
PAGE_CAPACITY = 16


def run_order(order: str, buffer_pages: int):
    dataset = load_dataset("org", n_entities=600, duplicate_fraction=0.3, seed=5)
    disk = DiskManager(page_capacity=PAGE_CAPACITY)
    pool = BufferPool(disk, capacity=buffer_pages)
    index = QgramInvertedIndex(
        candidate_factor=3,
        min_candidates=12,
        max_df=96,
        within_budget=48,
        exhaustive_fallback=False,
        buffer_pool=pool,
    )
    index.build(dataset.relation, CachedDistance(EditDistance()))
    pool.reset_stats()
    disk.reset_stats()
    index.totals.evaluations = 0
    stats = Phase1Stats()
    prepare_nn_lists(
        dataset.relation,
        index,
        DEParams.size(5),
        order=order,  # type: ignore[arg-type]
        stats=stats,
    )
    cpu = float(index.totals.evaluations)
    io = IO_WEIGHT * pool.stats.misses
    return {
        "lookups": stats.lookups,
        "bhr": pool.stats.hit_ratio,
        "pu": cpu / (cpu + io) if cpu + io else 0.0,
        "pt": stats.lookups / (cpu + io) if cpu + io else 0.0,
        "pages": disk.n_pages,
    }


def run_all():
    results = {}
    for pages in BUFFER_PAGES:
        for order in ("bf", "random"):
            results[(pages, order)] = run_order(order, pages)
    return results


def test_bf_ordering(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    rows = []
    for pages in BUFFER_PAGES:
        for order in ("bf", "random"):
            r = results[(pages, order)]
            rows.append(
                (
                    pages,
                    order,
                    f"{r['bhr']:.3f}",
                    f"{r['pu']:.3f}",
                    f"{r['pt'] * 1000:.2f}",
                )
            )
    write_report(
        "F8_bf_ordering",
        format_table(
            ("buffer_pages", "order", "BHR", "PU", "pt (per 1k cost)"),
            rows,
            title="F8: BF vs random lookup order (paged q-gram index)",
        ),
    )

    gaps = []
    for pages in BUFFER_PAGES:
        bf = results[(pages, "bf")]
        rnd = results[(pages, "random")]
        # bf wins on every metric the paper reports.
        assert bf["bhr"] > rnd["bhr"], f"BHR at {pages} pages"
        assert bf["pu"] >= rnd["pu"], f"PU at {pages} pages"
        assert bf["pt"] > rnd["pt"], f"pt at {pages} pages"
        gaps.append(bf["bhr"] - rnd["bhr"])

    # The paper reports ~100% throughput improvement from BF ordering
    # at its buffer sizes; we require at least ~40% at the smallest.
    small_bf = results[(BUFFER_PAGES[0], "bf")]
    small_rnd = results[(BUFFER_PAGES[0], "random")]
    assert small_bf["pt"] >= 1.4 * small_rnd["pt"]

    # The benefit of ordering shrinks once the buffer holds most of the
    # index (paper: the three memory sizes converge).
    assert gaps[0] >= gaps[-1] - 0.02
