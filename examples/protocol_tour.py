"""The grand tour: every protocol in the tutorial, one run each.

Prints the comparison table the tutorial builds up protocol by protocol
— each row measured live from the protocol's scenario (the same table
row ``repro run`` and ``repro check`` execute), side by side with the
paper's property box.

Run:  python examples/protocol_tour.py
"""

from repro.analysis import render_table
from repro.core import Cluster
from repro.scenarios import SCENARIOS


def main():
    rows = []
    for name, scenario in SCENARIOS.items():
        cluster = Cluster(seed=1)
        outcome = scenario.run(cluster)
        claim = scenario.claim()
        rows.append({
            "protocol": name,
            "paper nodes": claim.nodes,
            "paper phases": claim.phases,
            "paper msgs": claim.complexity,
            "measured msgs": cluster.metrics.messages_total,
            "outcome": outcome,
        })
    print(render_table(
        rows, title="40 years of consensus — every protocol, one live run"
    ))


if __name__ == "__main__":
    main()
