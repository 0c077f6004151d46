/**
 * @file
 * Quantum gate representation.
 *
 * The gate set covers everything the Table-1 benchmark generators
 * emit plus the {U3, CX} native set that partitioning and synthesis
 * operate on (see ir/lower.hh for the lowering).
 */

#ifndef QUEST_IR_GATE_HH
#define QUEST_IR_GATE_HH

#include <algorithm>
#include <compare>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "linalg/matrix.hh"

namespace quest {

/** Supported gate kinds. */
enum class GateType
{
    // One-qubit parameterized.
    U1, U2, U3, RX, RY, RZ,
    // One-qubit fixed.
    X, Y, Z, H, S, Sdg, T, Tdg, SX,
    // Two-qubit.
    CX, CZ, SWAP, RZZ, RXX, RYY, CRZ, CP,
    // Three-qubit.
    CCX,
    // Pseudo-operations.
    Barrier, Measure,
};

/** Lower-case OpenQASM mnemonic for a gate type. */
const char *gateName(GateType type);

/** Number of qubits the gate type acts on (Barrier/Measure: 1). */
int gateArity(GateType type);

/** Number of rotation-angle parameters the gate type takes. */
int gateParamCount(GateType type);

/** True for multi-qubit entangling gates (not Barrier/Measure). */
bool isEntangling(GateType type);

/**
 * Number of CNOT gates in the textbook decomposition of the gate
 * (CX: 1, SWAP: 3, RZZ/RXX/RYY/CRZ/CP/CZ: 2 or 1, CCX: 6, 1q: 0).
 * Used to compare CNOT budgets of un-lowered circuits.
 */
int cnotEquivalents(GateType type);

/**
 * A gate's wires or its angles, held inside the Gate. Every gate type
 * but a barrier acts on at most three wires and none takes more than
 * three angles, so up to kInline values live in the object itself; a
 * longer list (a barrier across more than three wires) moves to one
 * heap array. Copying or moving a list of kInline or fewer values
 * never allocates, and moves never throw.
 *
 * It reads like a std::vector (size, empty, operator[], data,
 * begin/end, front/back, ==, <) and converts to std::span. It edits
 * only through element access, assignment, pop_back and clear. It
 * does not convert to std::vector: that would hide an allocation at
 * each call site.
 */
template <typename T>
class InlineList
{
    static_assert(std::is_trivially_copyable_v<T>);

  public:
    static constexpr size_t kInline = 3;

    using value_type = T;
    using size_type = size_t;
    using iterator = T *;
    using const_iterator = const T *;

    InlineList() = default;
    explicit InlineList(std::span<const T> values) { assign(values); }

    InlineList(const InlineList &other) : count(other.count)
    {
        if (other.onHeap())
            setHeap(heapCopy(other.heap(), count));
        else
            std::memcpy(slots, other.slots, sizeof slots);
    }

    /** Takes the values, or the heap array, and leaves @p other empty. */
    InlineList(InlineList &&other) noexcept : count(other.count)
    {
        std::memcpy(slots, other.slots, sizeof slots);
        other.count = 0;
    }

    InlineList &
    operator=(const InlineList &other)
    {
        if (this != &other)
            assign(std::span<const T>(other.data(), other.size()));
        return *this;
    }

    InlineList &
    operator=(InlineList &&other) noexcept
    {
        if (this != &other) {
            release();
            count = other.count;
            std::memcpy(slots, other.slots, sizeof slots);
            other.count = 0;
        }
        return *this;
    }

    InlineList &
    operator=(std::initializer_list<T> values)
    {
        assign(std::span<const T>(values));
        return *this;
    }

    ~InlineList() { release(); }

    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    T *data() { return onHeap() ? heap() : slots; }
    const T *data() const { return onHeap() ? heap() : slots; }
    T *begin() { return data(); }
    T *end() { return data() + count; }
    const T *begin() const { return data(); }
    const T *end() const { return data() + count; }

    T &operator[](size_t i) { return data()[i]; }
    const T &operator[](size_t i) const { return data()[i]; }
    T &front() { return data()[0]; }
    const T &front() const { return data()[0]; }
    T &back() { return data()[count - 1]; }
    const T &back() const { return data()[count - 1]; }

    void
    pop_back()
    {
        if (count == kInline + 1) {
            // The list fits inline again: move it back from the heap.
            T *spilled = heap();
            std::memcpy(slots, spilled, sizeof slots);
            delete[] spilled;
        }
        --count;
    }

    void clear() { release(); }

    friend bool
    operator==(const InlineList &a, const InlineList &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

    friend auto
    operator<=>(const InlineList &a, const InlineList &b)
    {
        return std::lexicographical_compare_three_way(a.begin(), a.end(),
                                                      b.begin(), b.end());
    }

  private:
    static_assert(sizeof(T) * kInline >= sizeof(T *));

    bool onHeap() const { return count > kInline; }

    T *
    heap() const
    {
        T *p;
        std::memcpy(&p, slots, sizeof p);
        return p;
    }

    void setHeap(T *p) { std::memcpy(slots, &p, sizeof p); }

    static T *
    heapCopy(const T *values, size_t n)
    {
        T *p = new T[n];
        std::copy_n(values, n, p);
        return p;
    }

    void
    assign(std::span<const T> values)
    {
        T *spilled = values.size() > kInline
                         ? heapCopy(values.data(), values.size())
                         : nullptr;
        release();
        count = static_cast<uint32_t>(values.size());
        if (spilled)
            setHeap(spilled);
        else
            std::copy(values.begin(), values.end(), slots);
    }

    void
    release() noexcept
    {
        if (onHeap())
            delete[] heap();
        count = 0;
    }

    uint32_t count = 0;
    /** The values; while count > kInline, the bytes of the heap array's
     *  pointer instead. */
    T slots[kInline] = {};
};

using GateWires = InlineList<int>;
using GateParams = InlineList<double>;

/**
 * A gate instance: a type, the circuit wires it acts on (most
 * significant first), and its parameters.
 */
struct Gate
{
    GateType type;
    GateWires qubits;
    GateParams params;

    Gate() : type(GateType::Barrier) {}
    Gate(GateType type, std::span<const int> qubits,
         std::span<const double> params = {});
    Gate(GateType type, std::initializer_list<int> qubits,
         std::initializer_list<double> params = {})
        : Gate(type, std::span<const int>(qubits),
               std::span<const double>(params))
    {}

    /** @name Factory helpers for common gates. */
    /// @{
    static Gate u1(int q, double lambda);
    static Gate u2(int q, double phi, double lambda);
    static Gate u3(int q, double theta, double phi, double lambda);
    static Gate rx(int q, double theta);
    static Gate ry(int q, double theta);
    static Gate rz(int q, double theta);
    static Gate x(int q);
    static Gate y(int q);
    static Gate z(int q);
    static Gate h(int q);
    static Gate s(int q);
    static Gate sdg(int q);
    static Gate t(int q);
    static Gate tdg(int q);
    static Gate sx(int q);
    static Gate cx(int control, int target);
    static Gate cz(int a, int b);
    static Gate swap(int a, int b);
    static Gate rzz(int a, int b, double theta);
    static Gate rxx(int a, int b, double theta);
    static Gate ryy(int a, int b, double theta);
    static Gate crz(int control, int target, double theta);
    static Gate cp(int control, int target, double theta);
    static Gate ccx(int c1, int c2, int target);
    static Gate barrier(std::span<const int> qubits);
    static Gate barrier(std::initializer_list<int> qubits);
    static Gate measure(int q);
    /// @}

    /** Arity of this instance. */
    int arity() const { return static_cast<int>(qubits.size()); }

    /** True if this gate touches circuit wire q. */
    bool actsOn(int q) const;

    /** The inverse gate (panics for Measure). */
    Gate inverse() const;

    /** OpenQASM-style rendering, e.g. "cx q[0],q[1];". */
    std::string toString() const;
};

static_assert(sizeof(Gate) <= 64);
static_assert(std::is_nothrow_move_constructible_v<Gate> &&
              std::is_nothrow_move_assignable_v<Gate>);

/**
 * The unitary of a gate on its own wires (dimension 2^arity), with
 * qubits[0] as the most significant qubit. Panics for Barrier and
 * Measure.
 */
Matrix gateMatrix(const Gate &gate);

/**
 * gateMatrix(@p gate)'s entries, row-major, written to @p out without
 * a heap Matrix. @p out holds at least 4^arity entries; the first
 * 4^arity are all written.
 */
void gateUnitary(const Gate &gate, std::span<Complex> out);

} // namespace quest

#endif // QUEST_IR_GATE_HH
