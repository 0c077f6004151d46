#include "sim/unitary_builder.hh"

#include <vector>

#include "ir/unitary_kernel.hh"
#include "obs/metrics.hh"
#include "resilience/thread_pool.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

Matrix
buildUnitary(const Circuit &circuit)
{
    return buildUnitary(circuit, nullptr);
}

Matrix
buildUnitary(const Circuit &circuit, ThreadPool *pool)
{
    QUEST_ASSERT(circuit.numQubits() <= 14,
                 "buildUnitary limited to 14 qubits");
    // Counted once per matrix, so large-circuit (BlockBound) runs can
    // prove they never built a full unitary (the counter must stay
    // flat).
    static auto &builds = obs::MetricsRegistry::global().counter(
        names::kMetricSimUnitaryBuilds);
    builds.increment();

    // The gate coefficients are computed once, here, for every slab.
    const UnitaryPlan plan(circuit);
    const size_t slabs = plan.slabCount();
    // Below 6 qubits a unitary has fewer than two slabs: it is not
    // worth waking a thread for, and builds serially.
    if (!pool || pool->size() == 0 || slabs < 2)
        return plan.unitary();
    Matrix u(plan.dim(), plan.dim());
    pool->parallelFor(slabs, [&](size_t s) {
        // Private planes per slab keep each thread's rows contiguous
        // and off the cache lines of its neighbours' columns.
        std::vector<double> planes;
        plan.buildSlab(s, u, planes);
    });
    return u;
}

} // namespace quest
