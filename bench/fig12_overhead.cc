/**
 * @file
 * Fig. 12: QUEST's one-time circuit-building cost and its breakdown
 * across the partitioning, synthesis and dual-annealing stages, plus
 * the Full-mode certify that measures every sample's true distance.
 *
 * Absolute numbers differ from the paper (single laptop core vs a
 * ten-node cluster); the breakdown shape — synthesis-dominated here,
 * since our partitioner is O(gates) — is what the harness reports.
 */

#include "bench_common.hh"

int
main()
{
    using namespace quest;
    using namespace quest::bench;

    banner("Figure 12: QUEST build-time overhead per stage");

    Table table({"benchmark", "total_s", "partition%", "synthesis%",
                 "annealing%", "certify%"});
    QuestPipeline pipeline(benchConfig());

    for (const auto &spec : suite()) {
        QuestResult r = pipeline.run(spec.build());
        double total = r.partitionSeconds + r.synthesisSeconds +
                       r.annealSeconds + r.certifySeconds;
        auto pct = [&](double s) {
            return Table::pct(total > 0 ? s / total : 0.0);
        };
        table.addRow({spec.name, Table::num(total, 2),
                      pct(r.partitionSeconds),
                      pct(r.synthesisSeconds),
                      pct(r.annealSeconds),
                      pct(r.certifySeconds)});
    }
    finishBench("fig12_overhead", table);
    std::cout << "\nExpected shape (paper): a one-time cost of minutes "
                 "to hours per circuit, dominated by one stage "
                 "(partitioning in the paper's Python stack, synthesis "
                 "in this C++ stack); annealing is never dominant.\n";
    return 0;
}
