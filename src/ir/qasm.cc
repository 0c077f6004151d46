#include "ir/qasm.hh"

#include <array>
#include <cctype>
#include <charconv>
#include <map>
#include <numbers>
#include <span>
#include <string_view>
#include <system_error>

#include "util/logging.hh"

namespace quest {

namespace {

/** Append an integer in decimal. */
void
appendInt(std::string &out, int value)
{
    char buf[16];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    out.append(buf, res.ptr);
}

/** Append a parameter as printf's "%.17g" in the C locale, whatever
 *  the global locale: enough digits to round-trip. */
void
appendParam(std::string &out, double value)
{
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, value,
                                   std::chars_format::general, 17);
    out.append(buf, res.ptr);
}

/**
 * Parse all of @p token as a T. from_chars rounds like strtod but,
 * unlike std::stod/stoi, accepts subnormals and never drops an
 * unparsed tail; a malformed or out-of-range token is a QasmError
 * naming it.
 */
template <typename T>
T
parseNumber(std::string_view token, const char *what)
{
    T value{};
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (ec == std::errc::result_out_of_range) {
        throw QasmError(
            detail::concat(what, " out of range: '", token, "'"));
    }
    if (ec != std::errc() || ptr != end)
        throw QasmError(detail::concat("malformed ", what, ": '", token,
                                       "'"));
    return value;
}

// ---------------------------------------------------------------
// Constant-expression parser for gate parameters: numbers, pi,
// + - * /, unary minus, parentheses.
// ---------------------------------------------------------------

class ExprParser
{
  public:
    explicit ExprParser(const std::string &text) : text(text), pos(0) {}

    double
    parse()
    {
        double value = parseExpr();
        skipWs();
        if (pos != text.size())
            throw QasmError("trailing characters in expression: " + text);
        return value;
    }

  private:
    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos]))) {
            ++pos;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    double
    parseExpr()
    {
        double value = parseTerm();
        for (;;) {
            if (consume('+'))
                value += parseTerm();
            else if (consume('-'))
                value -= parseTerm();
            else
                return value;
        }
    }

    double
    parseTerm()
    {
        double value = parseUnary();
        for (;;) {
            if (consume('*')) {
                value *= parseUnary();
            } else if (consume('/')) {
                double denom = parseUnary();
                if (denom == 0.0)
                    throw QasmError("division by zero in expression");
                value /= denom;
            } else {
                return value;
            }
        }
    }

    double
    parseUnary()
    {
        if (consume('-'))
            return -parseUnary();
        if (consume('+'))
            return parseUnary();
        return parseAtom();
    }

    double
    parseAtom()
    {
        skipWs();
        if (consume('(')) {
            double value = parseExpr();
            if (!consume(')'))
                throw QasmError("missing ')' in expression");
            return value;
        }
        if (pos + 1 < text.size() && text.compare(pos, 2, "pi") == 0) {
            pos += 2;
            return std::numbers::pi;
        }
        size_t start = pos;
        while (pos < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
                ((text[pos] == '+' || text[pos] == '-') && pos > start &&
                 (text[pos - 1] == 'e' || text[pos - 1] == 'E')))) {
            ++pos;
        }
        if (pos == start)
            throw QasmError("expected number in expression: " + text);
        return parseNumber<double>(
            std::string_view(text).substr(start, pos - start), "number");
    }

    const std::string &text;
    size_t pos;
};

GateType
gateTypeFromName(const std::string &name)
{
    static const std::map<std::string, GateType> table = {
        {"u1", GateType::U1},   {"u2", GateType::U2},
        {"u3", GateType::U3},   {"u", GateType::U3},
        {"rx", GateType::RX},   {"ry", GateType::RY},
        {"rz", GateType::RZ},   {"x", GateType::X},
        {"y", GateType::Y},     {"z", GateType::Z},
        {"h", GateType::H},     {"s", GateType::S},
        {"sdg", GateType::Sdg}, {"t", GateType::T},
        {"tdg", GateType::Tdg}, {"sx", GateType::SX},
        {"cx", GateType::CX},   {"CX", GateType::CX},
        {"cz", GateType::CZ},   {"swap", GateType::SWAP},
        {"rzz", GateType::RZZ}, {"rxx", GateType::RXX},
        {"ryy", GateType::RYY}, {"crz", GateType::CRZ},
        {"cp", GateType::CP},   {"cu1", GateType::CP},
        {"ccx", GateType::CCX},
    };
    auto it = table.find(name);
    if (it == table.end())
        throw QasmError("unsupported gate: " + name);
    return it->second;
}

std::string
trim(const std::string &s)
{
    size_t begin = s.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos)
        return "";
    size_t end = s.find_last_not_of(" \t\r\n");
    return s.substr(begin, end - begin + 1);
}

/** Split a comma-separated list, respecting parentheses depth. */
std::vector<std::string>
splitArgs(const std::string &s)
{
    std::vector<std::string> parts;
    int depth = 0;
    std::string current;
    for (char c : s) {
        if (c == '(')
            ++depth;
        else if (c == ')')
            --depth;
        if (c == ',' && depth == 0) {
            parts.push_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    if (!trim(current).empty())
        parts.push_back(trim(current));
    return parts;
}

/** Extract the index from "name[k]". */
int
parseIndex(const std::string &ref, const std::string &reg_name)
{
    size_t open = ref.find('[');
    size_t close = ref.find(']');
    if (open == std::string::npos || close == std::string::npos ||
        close < open) {
        throw QasmError("malformed register reference: " + ref);
    }
    std::string name = trim(ref.substr(0, open));
    if (!reg_name.empty() && name != reg_name)
        throw QasmError("unknown register '" + name + "' in: " + ref);
    return parseNumber<int>(trim(ref.substr(open + 1, close - open - 1)),
                            "register index");
}

/** Throw rather than trip Gate's duplicate-wire assertion: malformed
 *  input is a user error, not a bug. */
void
requireDistinct(std::span<const int> wires, const std::string &stmt)
{
    for (size_t i = 0; i < wires.size(); ++i)
        for (size_t j = i + 1; j < wires.size(); ++j)
            if (wires[i] == wires[j])
                throw QasmError("duplicate wire in gate: " + stmt);
}

} // namespace

std::string
toQasm(const Circuit &circuit)
{
    std::string out = "OPENQASM 2.0;\n";
    out += "include \"qelib1.inc\";\n";
    out += "qreg q[";
    appendInt(out, circuit.numQubits());
    out += "];\n";
    if (circuit.hasMeasurements()) {
        out += "creg c[";
        appendInt(out, circuit.numQubits());
        out += "];\n";
    }

    for (const Gate &g : circuit) {
        if (g.type == GateType::Measure) {
            out += "measure q[";
            appendInt(out, g.qubits[0]);
            out += "] -> c[";
            appendInt(out, g.qubits[0]);
            out += "];\n";
            continue;
        }
        out += gateName(g.type);
        if (!g.params.empty()) {
            out += '(';
            for (size_t i = 0; i < g.params.size(); ++i) {
                if (i)
                    out += ',';
                appendParam(out, g.params[i]);
            }
            out += ')';
        }
        out += ' ';
        for (size_t i = 0; i < g.qubits.size(); ++i) {
            if (i)
                out += ',';
            out += "q[";
            appendInt(out, g.qubits[i]);
            out += ']';
        }
        out += ";\n";
    }
    // Callers keep the text (the service stores every sample's QASM
    // with its job), so hand it back without spare capacity.
    out.shrink_to_fit();
    return out;
}

Circuit
parseQasm(const std::string &text)
{
    // Strip comments, then split into ';'-terminated statements.
    std::string clean;
    clean.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '/' && i + 1 < text.size() && text[i + 1] == '/') {
            while (i < text.size() && text[i] != '\n')
                ++i;
        }
        if (i < text.size())
            clean += text[i];
    }

    std::vector<std::string> statements;
    std::string current;
    for (char c : clean) {
        if (c == ';') {
            statements.push_back(trim(current));
            current.clear();
        } else {
            current += c;
        }
    }
    if (!trim(current).empty())
        throw QasmError("missing ';' after: " + trim(current));

    std::string qreg_name;
    int n_qubits = -1;
    Circuit circuit;
    auto wire = [&](const std::string &ref) {
        const int q = parseIndex(ref, qreg_name);
        if (q < 0 || q >= n_qubits)
            throw QasmError("wire out of range: " + ref);
        return q;
    };

    for (const std::string &stmt : statements) {
        if (stmt.empty())
            continue;
        if (stmt.rfind("OPENQASM", 0) == 0 ||
            stmt.rfind("include", 0) == 0 ||
            stmt.rfind("creg", 0) == 0) {
            continue;
        }
        if (stmt.rfind("qreg", 0) == 0) {
            if (n_qubits >= 0)
                throw QasmError("multiple qreg declarations");
            std::string decl = trim(stmt.substr(4));
            size_t open = decl.find('[');
            if (open == std::string::npos)
                throw QasmError("malformed qreg: " + stmt);
            qreg_name = trim(decl.substr(0, open));
            n_qubits = parseIndex(decl, qreg_name);
            if (n_qubits <= 0)
                throw QasmError("qreg must have positive size");
            circuit = Circuit(n_qubits);
            continue;
        }
        if (n_qubits < 0)
            throw QasmError("gate before qreg declaration: " + stmt);

        if (stmt.rfind("barrier", 0) == 0) {
            std::vector<int> wires;
            for (const auto &ref : splitArgs(trim(stmt.substr(7))))
                wires.push_back(wire(ref));
            requireDistinct(wires, stmt);
            if (!wires.empty())
                circuit.append(Gate::barrier(wires));
            continue;
        }
        if (stmt.rfind("measure", 0) == 0) {
            std::string rest = trim(stmt.substr(7));
            size_t arrow = rest.find("->");
            std::string src =
                arrow == std::string::npos ? rest : trim(rest.substr(0,
                                                                     arrow));
            circuit.append(Gate::measure(wire(src)));
            continue;
        }

        // Gate application: name[(params)] ref[,ref...]
        size_t name_end = 0;
        while (name_end < stmt.size() &&
               (std::isalnum(static_cast<unsigned char>(stmt[name_end])))) {
            ++name_end;
        }
        std::string name = stmt.substr(0, name_end);
        GateType type = gateTypeFromName(name);
        std::string rest = trim(stmt.substr(name_end));

        // Wires and angles are read into fixed arrays, counting any
        // past the three a gate can take for the error message.
        std::array<double, 3> params{};
        size_t n_params = 0;
        if (!rest.empty() && rest[0] == '(') {
            int depth = 0;
            size_t close = 0;
            for (size_t i = 0; i < rest.size(); ++i) {
                if (rest[i] == '(')
                    ++depth;
                else if (rest[i] == ')' && --depth == 0) {
                    close = i;
                    break;
                }
            }
            if (close == 0)
                throw QasmError("unbalanced parens: " + stmt);
            for (const auto &expr :
                 splitArgs(rest.substr(1, close - 1))) {
                const double value = ExprParser(expr).parse();
                if (n_params < params.size())
                    params[n_params] = value;
                ++n_params;
            }
            rest = trim(rest.substr(close + 1));
        }
        // "u" is a three-parameter alias of u3; "cu1"/"cp" share CP.
        if (static_cast<int>(n_params) != gateParamCount(type)) {
            throw QasmError("gate " + name + " expects " +
                            std::to_string(gateParamCount(type)) +
                            " params, got " + std::to_string(n_params));
        }

        std::array<int, 3> wires{};
        size_t n_wires = 0;
        for (const auto &ref : splitArgs(rest)) {
            const int q = wire(ref);
            if (n_wires < wires.size())
                wires[n_wires] = q;
            ++n_wires;
        }
        if (static_cast<int>(n_wires) != gateArity(type))
            throw QasmError("gate " + name + " wire-count mismatch");
        requireDistinct(std::span(wires.data(), n_wires), stmt);
        circuit.append(Gate(type, std::span(wires.data(), n_wires),
                            std::span(params.data(), n_params)));
    }

    if (n_qubits < 0)
        throw QasmError("no qreg declaration found");
    return circuit;
}

} // namespace quest
