#include "verify/verifier.hh"

#include <cmath>
#include <sstream>

#include "util/logging.hh"

namespace quest {

namespace {

/** Append an issue unless the report is already at its cap. */
void
pushIssue(VerifyReport &report, size_t cap, size_t gate_index,
          std::string message)
{
    if (report.issues.size() >= cap)
        return;
    report.issues.push_back({gate_index, std::move(message)});
}

bool
isPseudoOp(GateType type)
{
    return type == GateType::Barrier || type == GateType::Measure;
}

/** A gate of the original circuit with its partition-mapped twin. */
struct MappedGate
{
    GateType type;
    GateWires qubits;  //!< global circuit wires
    GateParams params;
    size_t blockIndex; //!< producing block (noIndex: original)

    bool
    sameOperation(const MappedGate &other) const
    {
        return type == other.type && qubits == other.qubits &&
               params == other.params;
    }

    /** Renders without constructing a Gate (whose constructor
     *  asserts well-formedness this pass cannot assume). */
    std::string
    toString() const
    {
        std::ostringstream os;
        os << gateName(type);
        if (!params.empty()) {
            os << "(";
            for (size_t i = 0; i < params.size(); ++i)
                os << (i ? "," : "") << params[i];
            os << ")";
        }
        os << " ";
        for (size_t i = 0; i < qubits.size(); ++i)
            os << (i ? "," : "") << "q[" << qubits[i] << "]";
        os << ";";
        return os.str();
    }
};

} // namespace

std::string
VerifyIssue::toString() const
{
    if (gateIndex == noIndex)
        return message;
    std::ostringstream os;
    os << "gate " << gateIndex << ": " << message;
    return os.str();
}

std::string
VerifyReport::toString() const
{
    std::ostringstream os;
    for (size_t i = 0; i < issues.size(); ++i) {
        if (i)
            os << "\n";
        os << issues[i].toString();
    }
    return os.str();
}

CircuitVerifier::CircuitVerifier(CircuitVerifyOptions options)
    : opts(options)
{
    QUEST_ASSERT(opts.maxIssues >= 1, "issue cap must be positive");
}

VerifyReport
CircuitVerifier::verify(const Circuit &circuit) const
{
    VerifyReport report;
    const size_t cap = opts.maxIssues;
    const int n = circuit.numQubits();

    if (n <= 0) {
        pushIssue(report, cap, VerifyIssue::noIndex,
                  "circuit has no wires (default-constructed?)");
        return report;
    }

    std::vector<bool> measured(static_cast<size_t>(n), false);
    bool in_measurement_suffix = false;

    // A full report records nothing more, so stop checking there.
    for (size_t i = 0; i < circuit.size() && report.issues.size() < cap;
         ++i) {
        const Gate &g = circuit[i];
        // Rendered only into the message of an issue that is pushed:
        // a clean gate costs no text.
        const auto rendered = [&g] { return g.toString(); };

        // Arity: Barrier is variadic (>= 1 wire); everything else
        // must match its GateType exactly.
        const int arity = g.arity();
        if (g.type == GateType::Barrier) {
            if (arity < 1) {
                pushIssue(report, cap, i, "barrier with no wires");
            }
        } else if (arity != gateArity(g.type)) {
            pushIssue(report, cap, i,
                      detail::concat(rendered(), " — arity ", arity,
                                     " does not match ",
                                     gateName(g.type), "'s arity of ",
                                     gateArity(g.type)));
        }

        // Wires: in range and pairwise distinct (a CX whose control
        // equals its target is the canonical corruption).
        bool wires_in_range = true;
        for (int q : g.qubits) {
            if (q < 0 || q >= n) {
                wires_in_range = false;
                pushIssue(report, cap, i,
                          detail::concat(rendered(), " — wire ", q,
                                         " outside circuit of ", n,
                                         " qubits"));
            }
        }
        for (size_t a = 0; a < g.qubits.size(); ++a) {
            for (size_t b = a + 1; b < g.qubits.size(); ++b) {
                if (g.qubits[a] == g.qubits[b]) {
                    pushIssue(report, cap, i,
                              detail::concat(rendered(),
                                             " — duplicate wire ",
                                             g.qubits[a]));
                }
            }
        }

        // Parameters: correct count, all finite.
        if (static_cast<int>(g.params.size()) !=
            gateParamCount(g.type)) {
            pushIssue(report, cap, i,
                      detail::concat(rendered(), " — ", g.params.size(),
                                     " parameters; ", gateName(g.type),
                                     " takes ",
                                     gateParamCount(g.type)));
        }
        for (double p : g.params) {
            if (!std::isfinite(p)) {
                pushIssue(report, cap, i,
                          detail::concat(rendered(),
                                         " — non-finite parameter"));
                break;
            }
        }

        // Gate-set restrictions.
        if (!opts.allowPseudoOps && isPseudoOp(g.type)) {
            pushIssue(report, cap, i,
                      detail::concat(rendered(),
                                     " — pseudo-op not allowed here"));
        }
        if (opts.requireNative && g.type != GateType::U3 &&
            g.type != GateType::CX && g.type != GateType::Measure) {
            pushIssue(report, cap, i,
                      detail::concat(rendered(), " — ", gateName(g.type),
                                     " outside the native {u3, cx} "
                                     "set"));
        }

        // Measurement discipline: measurements form a trailing
        // suffix (unitary construction ignores them, so a gate after
        // a measurement would silently reorder), and each wire is
        // measured at most once.
        if (g.type == GateType::Measure) {
            in_measurement_suffix = true;
            const int q = g.qubits.empty() ? -1 : g.qubits[0];
            if (wires_in_range && q >= 0) {
                if (measured[static_cast<size_t>(q)]) {
                    pushIssue(report, cap, i,
                              detail::concat(rendered(),
                                             " — wire ", q,
                                             " measured twice"));
                }
                measured[static_cast<size_t>(q)] = true;
            }
        } else if (in_measurement_suffix &&
                   g.type != GateType::Barrier) {
            pushIssue(report, cap, i,
                      detail::concat(rendered(),
                                     " — gate after a measurement "
                                     "(measurements must be a "
                                     "trailing suffix)"));
        }
    }

    return report;
}

PartitionVerifier::PartitionVerifier(int max_block_size)
    : maxBlockSize(max_block_size)
{
    QUEST_ASSERT(max_block_size >= 0, "negative block-size limit");
}

VerifyReport
PartitionVerifier::verify(const Circuit &original,
                          const std::vector<Block> &blocks) const
{
    VerifyReport report;
    constexpr size_t cap = 64;
    const int n = original.numQubits();

    if (n <= 0) {
        pushIssue(report, cap, VerifyIssue::noIndex,
                  "original circuit has no wires");
        return report;
    }
    if (original.hasMeasurements()) {
        pushIssue(report, cap, VerifyIssue::noIndex,
                  "partition input contains measurements");
        return report;
    }

    // Pass 1: each block's wire mapping and local circuit.
    CircuitVerifier block_verifier({.requireNative = false,
                                    .allowPseudoOps = false,
                                    .maxIssues = cap});
    bool mappings_ok = true;
    for (size_t b = 0; b < blocks.size(); ++b) {
        const Block &block = blocks[b];
        const auto prefix = [b](const std::string &msg) {
            return detail::concat("block ", b, ": ", msg);
        };

        bool this_ok = true;
        if (block.qubits.empty()) {
            pushIssue(report, cap, VerifyIssue::noIndex,
                      prefix("empty wire mapping"));
            this_ok = false;
        }
        for (size_t i = 0; i < block.qubits.size(); ++i) {
            const int q = block.qubits[i];
            if (q < 0 || q >= n) {
                pushIssue(report, cap, VerifyIssue::noIndex,
                          prefix(detail::concat(
                              "mapped wire ", q,
                              " outside circuit of ", n, " qubits")));
                this_ok = false;
            }
            if (i > 0 && block.qubits[i - 1] >= q) {
                pushIssue(report, cap, VerifyIssue::noIndex,
                          prefix("wire mapping not strictly "
                                 "ascending"));
                this_ok = false;
            }
        }
        if (block.circuit.numQubits() != block.width()) {
            pushIssue(report, cap, VerifyIssue::noIndex,
                      prefix(detail::concat(
                          "circuit spans ",
                          block.circuit.numQubits(),
                          " wires but the mapping lists ",
                          block.width())));
            this_ok = false;
        }
        if (maxBlockSize > 0 && block.width() > maxBlockSize) {
            pushIssue(report, cap, VerifyIssue::noIndex,
                      prefix(detail::concat("width ", block.width(),
                                            " exceeds the limit of ",
                                            maxBlockSize)));
        }

        VerifyReport local = block_verifier.verify(block.circuit);
        for (const VerifyIssue &issue : local.issues) {
            pushIssue(report, cap, issue.gateIndex,
                      prefix(issue.message));
            this_ok = false;
        }
        mappings_ok &= this_ok;
    }

    // Coverage needs trustworthy mappings; bail out if any is broken.
    if (!mappings_ok)
        return report;

    // Pass 2: the blocks, replayed in order, must cover the
    // original's non-barrier gates exactly once. The partitioner is
    // free to interleave commuting gates across blocks, so compare
    // the gate sequence seen by each wire rather than the global
    // order (identical per-wire sequences pin down the circuit DAG).
    std::vector<MappedGate> original_gates, partition_gates;
    for (const Gate &g : original) {
        if (g.type == GateType::Barrier)
            continue;
        original_gates.push_back(
            {g.type, g.qubits, g.params, VerifyIssue::noIndex});
    }
    for (size_t b = 0; b < blocks.size(); ++b) {
        for (const Gate &g : blocks[b].circuit) {
            GateWires mapped = g.qubits;
            for (int &q : mapped)
                q = blocks[b].qubits[static_cast<size_t>(q)];
            partition_gates.push_back(
                {g.type, std::move(mapped), g.params, b});
        }
    }

    if (original_gates.size() != partition_gates.size()) {
        pushIssue(report, cap, VerifyIssue::noIndex,
                  detail::concat("blocks hold ", partition_gates.size(),
                                 " gates; the original has ",
                                 original_gates.size()));
    }

    std::vector<std::vector<const MappedGate *>> original_by_wire(
        static_cast<size_t>(n));
    std::vector<std::vector<const MappedGate *>> partition_by_wire(
        static_cast<size_t>(n));
    for (const MappedGate &g : original_gates)
        for (int q : g.qubits)
            original_by_wire[static_cast<size_t>(q)].push_back(&g);
    for (const MappedGate &g : partition_gates)
        for (int q : g.qubits)
            partition_by_wire[static_cast<size_t>(q)].push_back(&g);

    for (int q = 0; q < n; ++q) {
        const auto &orig = original_by_wire[static_cast<size_t>(q)];
        const auto &part = partition_by_wire[static_cast<size_t>(q)];
        const size_t common = std::min(orig.size(), part.size());
        for (size_t i = 0; i < common; ++i) {
            if (!orig[i]->sameOperation(*part[i])) {
                pushIssue(report, cap, VerifyIssue::noIndex,
                          detail::concat(
                              "wire ", q, ", position ", i,
                              ": original has ", orig[i]->toString(),
                              " but block ", part[i]->blockIndex,
                              " contributes ", part[i]->toString()));
                break;
            }
        }
        if (orig.size() != part.size()) {
            pushIssue(report, cap, VerifyIssue::noIndex,
                      detail::concat("wire ", q, ": original has ",
                                     orig.size(),
                                     " gates but the blocks "
                                     "contribute ",
                                     part.size()));
        }
    }

    return report;
}

void
verifyOrPanic(const Circuit &circuit,
              const CircuitVerifyOptions &options,
              const std::string &context)
{
    VerifyReport report = CircuitVerifier(options).verify(circuit);
    if (!report.ok()) {
        QUEST_PANIC("circuit verification failed (", context, "):\n",
                    report.toString());
    }
}

void
verifyOrPanic(const Circuit &original, const std::vector<Block> &blocks,
              int max_block_size, const std::string &context)
{
    VerifyReport report =
        PartitionVerifier(max_block_size).verify(original, blocks);
    if (!report.ok()) {
        QUEST_PANIC("partition verification failed (", context, "):\n",
                    report.toString());
    }
}

} // namespace quest
