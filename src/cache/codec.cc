#include "cache/codec.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>

namespace quest::cache {

namespace {

/**
 * The wire-format gate table. Codes are frozen: new gate types get
 * new codes appended at the end; existing codes never change meaning
 * (docs/FORMATS.md is the normative list).
 */
constexpr GateType kCodeToType[] = {
    GateType::U1,      // 0
    GateType::U2,      // 1
    GateType::U3,      // 2
    GateType::RX,      // 3
    GateType::RY,      // 4
    GateType::RZ,      // 5
    GateType::X,       // 6
    GateType::Y,       // 7
    GateType::Z,       // 8
    GateType::H,       // 9
    GateType::S,       // 10
    GateType::Sdg,     // 11
    GateType::T,       // 12
    GateType::Tdg,     // 13
    GateType::SX,      // 14
    GateType::CX,      // 15
    GateType::CZ,      // 16
    GateType::SWAP,    // 17
    GateType::RZZ,     // 18
    GateType::RXX,     // 19
    GateType::RYY,     // 20
    GateType::CRZ,     // 21
    GateType::CP,      // 22
    GateType::CCX,     // 23
    GateType::Barrier, // 24
    GateType::Measure, // 25
};

constexpr size_t kGateCodeCount =
    sizeof(kCodeToType) / sizeof(kCodeToType[0]);

/** Decoded circuits wider than this are rejected as corrupt: nothing
 *  in the pipeline synthesizes (or could even represent as a dense
 *  unitary) blocks anywhere near this wide. */
constexpr uint32_t kMaxQubits = 64;

} // namespace

uint8_t
gateTypeCode(GateType type)
{
    for (size_t i = 0; i < kGateCodeCount; ++i) {
        if (kCodeToType[i] == type)
            return static_cast<uint8_t>(i);
    }
    // Unreachable while the table covers every enumerator; the
    // codec test iterates all GateType values to keep it that way.
    throw SerializeError("gate type without a wire-format code");
}

GateType
gateTypeFromCode(uint8_t code)
{
    if (code >= kGateCodeCount)
        throw SerializeError("unknown gate code " +
                             std::to_string(code));
    return kCodeToType[code];
}

void
encodeCircuit(ByteWriter &w, const Circuit &circuit)
{
    w.u32(static_cast<uint32_t>(circuit.numQubits()));
    w.u32(static_cast<uint32_t>(circuit.size()));
    for (const Gate &g : circuit) {
        w.u8(gateTypeCode(g.type));
        w.u8(static_cast<uint8_t>(g.qubits.size()));
        w.u8(static_cast<uint8_t>(g.params.size()));
        for (int q : g.qubits)
            w.i32(q);
        for (double p : g.params)
            w.f64(p);
    }
}

Circuit
decodeCircuit(ByteReader &r)
{
    const uint32_t n_qubits = r.u32();
    if (n_qubits == 0 || n_qubits > kMaxQubits)
        throw SerializeError("bad circuit wire count " +
                             std::to_string(n_qubits));
    const uint32_t n_gates = r.u32();

    // `n_gates` is untrusted, but every gate takes at least seven bytes
    // (three counts and a wire), so the input's length bounds the
    // reservation.
    Circuit circuit(static_cast<int>(n_qubits));
    circuit.reserve(std::min<size_t>(n_gates, r.remaining() / 7));
    std::array<int, UINT8_MAX> wires{};
    std::array<double, 3> params{};
    for (uint32_t i = 0; i < n_gates; ++i) {
        const GateType type = gateTypeFromCode(r.u8());
        const uint8_t n_wires = r.u8();
        const uint8_t n_params = r.u8();

        // Validate counts against the gate table before constructing
        // the Gate (whose constructor asserts rather than throws).
        if (type == GateType::Barrier) {
            if (n_wires == 0)
                throw SerializeError("barrier with no wires");
        } else if (n_wires != gateArity(type)) {
            throw SerializeError(
                std::string("gate ") + gateName(type) +
                " arity mismatch: " + std::to_string(n_wires));
        }
        if (n_params != gateParamCount(type))
            throw SerializeError(
                std::string("gate ") + gateName(type) +
                " param-count mismatch: " + std::to_string(n_params));

        for (uint8_t q = 0; q < n_wires; ++q) {
            const int32_t wire = r.i32();
            if (wire < 0 || wire >= static_cast<int32_t>(n_qubits))
                throw SerializeError("wire " + std::to_string(wire) +
                                     " out of range on gate " +
                                     std::to_string(i));
            for (uint8_t prev = 0; prev < q; ++prev) {
                if (wires[prev] == wire)
                    throw SerializeError("duplicate wire on gate " +
                                         std::to_string(i));
            }
            wires[q] = wire;
        }
        for (uint8_t p = 0; p < n_params; ++p)
            params[p] = r.f64();

        circuit.append(Gate(type, std::span(wires.data(), n_wires),
                            std::span(params.data(), n_params)));
    }
    return circuit;
}

void
encodeSynthCandidate(ByteWriter &w, const SynthCandidate &c)
{
    encodeCircuit(w, c.circuit);
    w.f64(c.distance);
    w.i32(c.cnotCount);
}

SynthCandidate
decodeSynthCandidate(ByteReader &r)
{
    SynthCandidate c;
    c.circuit = decodeCircuit(r);
    c.distance = r.f64();
    c.cnotCount = r.i32();
    if (c.cnotCount < 0 ||
        static_cast<size_t>(c.cnotCount) != c.circuit.cnotCount()) {
        throw SerializeError(
            "candidate CNOT count " + std::to_string(c.cnotCount) +
            " contradicts its circuit (" +
            std::to_string(c.circuit.cnotCount()) + ")");
    }
    return c;
}

void
encodeSynthOutput(ByteWriter &w, const SynthOutput &out)
{
    w.u32(static_cast<uint32_t>(out.candidates.size()));
    for (const SynthCandidate &c : out.candidates)
        encodeSynthCandidate(w, c);
    w.u64(out.bestIndex);
}

SynthOutput
decodeSynthOutput(ByteReader &r)
{
    const uint32_t count = r.u32();
    if (count == 0)
        throw SerializeError("empty candidate set");

    // `count` is untrusted: reserve no more candidates than the input
    // could hold, at 20 bytes for the smallest (an empty circuit).
    SynthOutput out;
    out.candidates.reserve(std::min<size_t>(count, r.remaining() / 20));
    for (uint32_t i = 0; i < count; ++i)
        out.candidates.push_back(decodeSynthCandidate(r));
    out.bestIndex = r.u64();
    if (out.bestIndex >= out.candidates.size())
        throw SerializeError("best index " +
                             std::to_string(out.bestIndex) +
                             " out of range");
    if (!r.atEnd())
        throw SerializeError("trailing bytes after synthesis output");
    return out;
}

} // namespace quest::cache
