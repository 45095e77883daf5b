"""<<-chains of generalized partitions, the test suite's reference route to [w_lambda],
with formalization and a breadth-first merge closure as references."""

from disczeta.partitions import GenPartition, Part, elementary_merges, merge_closure


def formalize(lam: GenPartition) -> GenPartition:
    """Replace each distinct part value by a fresh generator, keeping multiplicities.

    Fresh generators are named a1, a2, ... in canonical order of the distinct
    values (the prefix grows if the input already uses such names), so the
    result is reproducible.  Any two sub-multisets of the result with equal
    sums are equal.
    """
    existing = lam.generators()
    prefix = "a"
    distinct = sorted(set(lam.parts), key=lambda p: p.coeffs)
    while any(f"{prefix}{i}" in existing for i in range(1, len(distinct) + 1)):
        prefix += "a"
    rename = {p: Part.gen(f"{prefix}{i}") for i, p in enumerate(distinct, start=1)}
    return GenPartition.of(rename[p] for p in lam.parts)


def merge_closure_bfs(lam: GenPartition) -> frozenset[GenPartition]:
    """{mu : lam <= mu} by breadth-first search over elementary merges, without memos."""
    seen = frontier = {lam}
    while frontier:
        frontier = {mu for nu in frontier for mu in elementary_merges(nu)} - seen
        seen = seen | frontier
    return frozenset(seen)


def ll_chains(lam: GenPartition, max_len: int | None = None) -> list[tuple[GenPartition, ...]]:
    """All chains lam = mu_0 << mu_1 << ... << mu_k with k <= max_len.

    mu << mu' means formalize(mu) < mu'.  Each step strictly reduces the part
    count, so max_len = |lam| always suffices (and is the default).
    """
    if max_len is None:
        max_len = len(lam)
    chains: list[tuple[GenPartition, ...]] = []

    def extend(chain: list[GenPartition]) -> None:
        chains.append(tuple(chain))
        if len(chain) - 1 >= max_len:
            return
        f = formalize(chain[-1])
        for nxt in sorted(merge_closure(f) - {f}):
            extend(chain + [nxt])

    extend([lam])
    return chains
