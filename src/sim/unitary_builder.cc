#include "sim/unitary_builder.hh"

#include <algorithm>
#include <vector>

#include "ir/unitary_kernel.hh"
#include "obs/metrics.hh"
#include "resilience/thread_pool.hh"
#include "util/logging.hh"
#include "util/names.hh"

namespace quest {

namespace {

/**
 * Columns per slab of the pooled build. An 8-qubit slab is then
 * 128 KiB and stays in one core's L2 while every gate passes over
 * it. Below 6 qubits a unitary has fewer than two slabs: it is not
 * worth waking a thread for, and builds serially.
 */
constexpr size_t kSlabColumns = 32;

} // namespace

Matrix
buildUnitary(const Circuit &circuit)
{
    return buildUnitary(circuit, nullptr);
}

Matrix
buildUnitary(const Circuit &circuit, ThreadPool *pool)
{
    const int n = circuit.numQubits();
    QUEST_ASSERT(n <= 14, "buildUnitary limited to 14 qubits");
    // Counted once per matrix, so large-circuit (BlockBound) runs can
    // prove they never built a full unitary (the counter must stay
    // flat).
    static auto &builds = obs::MetricsRegistry::global().counter(
        names::kMetricSimUnitaryBuilds);
    builds.increment();

    const size_t dim = size_t{1} << n;
    Matrix u(dim, dim);
    const size_t slabs = dim / kSlabColumns;
    if (!pool || pool->size() == 0 || slabs < 2) {
        unitaryColumns(circuit, 0, dim, u.data().data());
        return u;
    }
    // A private buffer per slab keeps each thread's rows contiguous
    // and off the cache lines of its neighbours' columns.
    pool->parallelFor(slabs, [&](size_t s) {
        const size_t col0 = s * kSlabColumns;
        std::vector<Complex> slab(dim * kSlabColumns);
        unitaryColumns(circuit, col0, kSlabColumns, slab.data());
        for (size_t r = 0; r < dim; ++r) {
            std::copy_n(slab.data() + r * kSlabColumns, kSlabColumns,
                        u.data().data() + r * dim + col0);
        }
    });
    return u;
}

} // namespace quest
