"""<<-chains of generalized partitions, the test suite's reference route to [w_lambda]."""

from disczeta.partitions import GenPartition, formalize, merge_closure


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
