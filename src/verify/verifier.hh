/**
 * @file
 * Structural IR verification passes.
 *
 * QUEST's correctness argument (the Sec. 3.8 bound) silently assumes
 * a set of IR invariants: gate wires stay in range, arities match the
 * gate type, rotation angles are finite, lowered circuits contain
 * only native {U3, CX} gates, and a partition covers the original
 * gate sequence exactly once with consistent wire mappings. The
 * verifiers here lint those invariants so pipeline stages (and the
 * quest_lint tool) can check their inputs and outputs instead of
 * assuming them.
 */

#ifndef QUEST_VERIFY_VERIFIER_HH
#define QUEST_VERIFY_VERIFIER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "ir/circuit.hh"
#include "partition/scan_partitioner.hh"

namespace quest {

/** One structural defect found by a verifier. */
struct VerifyIssue
{
    /** gateIndex value for circuit- or block-level issues. */
    static constexpr size_t noIndex = static_cast<size_t>(-1);

    size_t gateIndex = noIndex; //!< offending gate, or noIndex
    std::string message;

    /** "gate 12: <message>" or just "<message>". */
    std::string toString() const;
};

/** The outcome of a verification pass. */
struct VerifyReport
{
    std::vector<VerifyIssue> issues;

    bool ok() const { return issues.empty(); }

    /** One line per issue; empty string when ok. */
    std::string toString() const;
};

/** CircuitVerifier settings. */
struct CircuitVerifyOptions
{
    /** Require the native {U3, CX} gate set (Measure still allowed,
     *  matching isNative()). */
    bool requireNative = false;

    /** Permit Barrier/Measure pseudo-ops at all. Partition blocks
     *  and synthesis candidates must be pseudo-op free. */
    bool allowPseudoOps = true;

    /** Stop collecting after this many issues. */
    size_t maxIssues = 64;
};

/**
 * Structural circuit linter. Checks, per gate: wire indices in
 * [0, numQubits), arity matching the GateType (Barrier: >= 1),
 * distinct wires (CX control != target), parameter count matching
 * the GateType, finite parameter values; and, per circuit: a
 * positive wire count, measurements only as a trailing suffix, at
 * most one measurement per wire, and (optionally) native-gate-set
 * conformance. It runs on every synthesis-cache hit, so a clean
 * circuit costs no text: a gate is rendered only into the message of
 * an issue the report records.
 */
class CircuitVerifier
{
  public:
    explicit CircuitVerifier(CircuitVerifyOptions options = {});

    VerifyReport verify(const Circuit &circuit) const;

  private:
    CircuitVerifyOptions opts;
};

/**
 * Checks that a block list is a faithful partition of a circuit:
 * every block's wire mapping is sorted, duplicate-free and in range
 * with a matching block width; every block circuit is structurally
 * valid and pseudo-op free; and the blocks, replayed in order
 * through their wire maps, cover the original's non-barrier gate
 * sequence exactly once, preserving the per-wire gate order (the
 * partitioner may interleave commuting gates across blocks, so the
 * global order is compared wire by wire).
 */
class PartitionVerifier
{
  public:
    /** @param max_block_size width limit to enforce (0: unlimited). */
    explicit PartitionVerifier(int max_block_size = 0);

    VerifyReport verify(const Circuit &original,
                        const std::vector<Block> &blocks) const;

  private:
    int maxBlockSize;
};

/**
 * Verify a circuit and panic with the full report on failure;
 * @p context names the producing stage in the panic message.
 */
void verifyOrPanic(const Circuit &circuit,
                   const CircuitVerifyOptions &options,
                   const std::string &context);

/** Partition-checking variant of verifyOrPanic. */
void verifyOrPanic(const Circuit &original,
                   const std::vector<Block> &blocks, int max_block_size,
                   const std::string &context);

} // namespace quest

#endif // QUEST_VERIFY_VERIFIER_HH
