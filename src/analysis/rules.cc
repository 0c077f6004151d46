#include "analysis/rules.hh"

#include <algorithm>
#include <array>
#include <string_view>

namespace quest::analysis {

namespace {

using sv = std::string_view;

/** Emit unless suppressed by a QUEST_ANALYZE_OK comment. */
void
emit(SourceFile &f, std::vector<Finding> &out, const char *rule,
     int line, std::string message)
{
    if (f.suppressed(rule, line))
        return;
    out.push_back(
        {rule, Severity::Error, f.relPath, line, std::move(message)});
}

bool
isIdent(const Token &t, sv text)
{
    return t.kind == TokenKind::Identifier && t.text == text;
}

bool
isPunct(const Token &t, char c)
{
    return t.kind == TokenKind::Punct && t.text.size() == 1 &&
           t.text[0] == c;
}

template <size_t N>
bool
oneOf(sv text, const std::array<sv, N> &set)
{
    return std::find(set.begin(), set.end(), text) != set.end();
}

/** sig[i] is an identifier directly followed by '('. */
bool
calledAt(const SourceFile &f, size_t i)
{
    return i + 1 < f.sig.size() && isPunct(f.sig[i + 1], '(');
}

// ---- determinism --------------------------------------------------

constexpr std::array<sv, 3> kClockTypes = {
    "steady_clock", "system_clock", "high_resolution_clock"};
constexpr std::array<sv, 2> kEnvReads = {"getenv", "secure_getenv"};
constexpr std::array<sv, 5> kPrngCalls = {"rand", "srand", "random",
                                          "drand48", "lrand48"};
constexpr std::array<sv, 4> kUnorderedTypes = {
    "unordered_map", "unordered_set", "unordered_multimap",
    "unordered_multiset"};
constexpr std::array<sv, 4> kFsOrderIdents = {
    "directory_iterator", "recursive_directory_iterator",
    "last_write_time", "file_time_type"};

/** `now` reached through some clock type: X::now with X ending in
 *  clock/Clock (covers Clock aliases and file_time_type::clock). */
bool
isClockNow(const SourceFile &f, size_t i)
{
    if (!isIdent(f.sig[i], "now") || i < 3)
        return false;
    if (!isPunct(f.sig[i - 1], ':') || !isPunct(f.sig[i - 2], ':'))
        return false;
    const Token &owner = f.sig[i - 3];
    if (owner.kind != TokenKind::Identifier)
        return false;
    return owner.text.ends_with("lock") || owner.text.ends_with("Clock");
}

} // namespace

void
runDeterminismRule(SourceFile &f, std::vector<Finding> &out)
{
    for (size_t i = 0; i < f.sig.size(); ++i) {
        const Token &t = f.sig[i];
        if (t.kind != TokenKind::Identifier)
            continue;
        if (f.resultNeutralAt(static_cast<int>(i)))
            continue;

        if (oneOf(t.text, kClockTypes) || isClockNow(f, i)) {
            emit(f, out, "determinism.clock", t.line,
                 std::string("wall-clock read '") + std::string(t.text) +
                     "' on a result-affecting path (allow-listed dirs: "
                     "src/resilience, src/obs, src/service, tools, "
                     "bench; or declare QUEST_RESULT_NEUTRAL)");
        } else if (isIdent(t, "time") && calledAt(f, i) &&
                   (i == 0 || !isPunct(f.sig[i - 1], '.'))) {
            emit(f, out, "determinism.clock", t.line,
                 "time() read on a result-affecting path");
        } else if (oneOf(t.text, kEnvReads)) {
            emit(f, out, "determinism.env", t.line,
                 std::string("environment read '") +
                     std::string(t.text) +
                     "' on a result-affecting path");
        } else if (oneOf(t.text, kPrngCalls) && calledAt(f, i) &&
                   (i == 0 || !isPunct(f.sig[i - 1], '.'))) {
            emit(f, out, "determinism.rand", t.line,
                 std::string("non-seeded PRNG '") + std::string(t.text) +
                     "()' — use util::Rng with an explicit seed");
        } else if (oneOf(t.text, kUnorderedTypes)) {
            emit(f, out, "determinism.unordered", t.line,
                 std::string("'") + std::string(t.text) +
                     "' iteration order is unspecified — use the "
                     "ordered container or declare "
                     "QUEST_RESULT_NEUTRAL");
        } else if (oneOf(t.text, kFsOrderIdents)) {
            emit(f, out, "determinism.fs-order", t.line,
                 std::string("'") + std::string(t.text) +
                     "' depends on directory order / mtimes — sort "
                     "explicitly or declare QUEST_RESULT_NEUTRAL");
        }
    }
}

// ---- cancellation -------------------------------------------------

namespace {

/** Calls that mark a loop as "does kernel work per iteration". */
constexpr std::array<sv, 15> kKernelCalls = {
    "instantiate",     "instantiateParallel", "evaluate",
    "evaluateWithGradient", "synthesize",     "synthesizeBlock",
    "synthesizeExact", "applyCircuit",        "applyGate",
    "buildUnitary",    "simulate",            "minimize",
    "dualAnnealing",   "outputDistance",      "unitary"};

/** Budget polls (as calls). */
constexpr std::array<sv, 6> kPollCalls = {
    "exhausted", "stop", "cancelled", "expired", "poll",
    "checkRunBudget"};

/** Budget forwarding: the loop at least threads a budget through. */
constexpr std::array<sv, 4> kBudgetIdents = {"budget", "runBudget",
                                             "Budget", "QUEST_BOUNDED_LOOP"};

struct LoopBody
{
    int headBegin; //!< '(' of the condition (-1 for do)
    int headEnd;
    int bodyBegin;
    int bodyEnd;
    int line;
};

bool
rangeHasKernelCall(const SourceFile &f, int begin, int end)
{
    for (int i = begin; i < end && i < static_cast<int>(f.sig.size());
         ++i) {
        if (f.sig[i].kind == TokenKind::Identifier &&
            oneOf(f.sig[i].text, kKernelCalls) &&
            calledAt(f, static_cast<size_t>(i)))
            return true;
    }
    return false;
}

bool
rangeHasPoll(const SourceFile &f, int begin, int end)
{
    for (int i = begin; i < end && i < static_cast<int>(f.sig.size());
         ++i) {
        if (f.sig[i].kind != TokenKind::Identifier)
            continue;
        if (oneOf(f.sig[i].text, kPollCalls) &&
            calledAt(f, static_cast<size_t>(i)))
            return true;
        if (oneOf(f.sig[i].text, kBudgetIdents))
            return true;
    }
    return false;
}

/** Find the statement/block after sig index @p at (body of a loop
 *  whose closing header paren is at @p at). */
bool
bodyAfter(const SourceFile &f, int at, int &begin, int &end)
{
    const int n = static_cast<int>(f.sig.size());
    if (at + 1 >= n)
        return false;
    if (isPunct(f.sig[at + 1], '{')) {
        if (f.match[at + 1] < 0)
            return false;
        begin = at + 2;
        end = f.match[at + 1];
        return true;
    }
    if (isPunct(f.sig[at + 1], ';')) // do-while tail / empty body
        return false;
    // Single-statement body: scan to the ';' at depth zero.
    int depth = 0;
    for (int i = at + 1; i < n; ++i) {
        if (f.sig[i].kind != TokenKind::Punct)
            continue;
        const char c = f.sig[i].text[0];
        if (c == '(' || c == '{' || c == '[')
            ++depth;
        else if (c == ')' || c == '}' || c == ']')
            --depth;
        else if (c == ';' && depth == 0) {
            begin = at + 1;
            end = i;
            return true;
        }
    }
    return false;
}

} // namespace

void
runCancellationRule(SourceFile &f, std::vector<Finding> &out)
{
    const int n = static_cast<int>(f.sig.size());
    for (int i = 0; i < n; ++i) {
        const Token &t = f.sig[i];
        if (t.kind != TokenKind::Identifier)
            continue;

        LoopBody loop{-1, -1, -1, -1, t.line};
        if ((t.text == "for" || t.text == "while") && i + 1 < n &&
            isPunct(f.sig[i + 1], '(')) {
            const int close = f.match[i + 1];
            if (close < 0)
                continue;
            // The `while` of a do-while was handled at the `do`.
            if (close + 1 < n && isPunct(f.sig[close + 1], ';'))
                continue;
            loop.headBegin = i + 2;
            loop.headEnd = close;
            if (!bodyAfter(f, close, loop.bodyBegin, loop.bodyEnd))
                continue;
        } else if (t.text == "do" && i + 1 < n &&
                   isPunct(f.sig[i + 1], '{')) {
            const int close = f.match[i + 1];
            if (close < 0)
                continue;
            loop.bodyBegin = i + 2;
            loop.bodyEnd = close;
            if (close + 2 < n && isIdent(f.sig[close + 1], "while") &&
                isPunct(f.sig[close + 2], '(') &&
                f.match[close + 2] >= 0) {
                loop.headBegin = close + 3;
                loop.headEnd = f.match[close + 2];
            }
        } else {
            continue;
        }

        if (!rangeHasKernelCall(f, loop.bodyBegin, loop.bodyEnd))
            continue;
        const bool polled =
            rangeHasPoll(f, loop.bodyBegin, loop.bodyEnd) ||
            (loop.headBegin >= 0 &&
             rangeHasPoll(f, loop.headBegin, loop.headEnd));
        if (polled)
            continue;
        emit(f, out, "cancellation.unpolled-loop", loop.line,
             "loop calls an instantiation/simulation kernel but "
             "neither polls nor forwards a Budget/CancelToken "
             "(annotate QUEST_BOUNDED_LOOP if the trip count is "
             "provably small)");
    }
}

// ---- errors -------------------------------------------------------

void
runErrorsRule(SourceFile &f, bool allowRuntimeError,
              std::vector<Finding> &out)
{
    const int n = static_cast<int>(f.sig.size());
    for (int i = 0; i < n; ++i) {
        const Token &t = f.sig[i];
        if (t.kind != TokenKind::Identifier)
            continue;

        if (!allowRuntimeError && t.text == "throw") {
            for (int j = i + 1; j < n && j <= i + 4; ++j) {
                if (isIdent(f.sig[j], "runtime_error")) {
                    emit(f, out, "errors.runtime-error", t.line,
                         "throw a typed QuestError (or a decoder "
                         "error) instead of std::runtime_error "
                         "outside src/util");
                    break;
                }
            }
        }

        // catch (...) { ... } must rethrow or forward the exception.
        if (t.text == "catch" && i + 1 < n &&
            isPunct(f.sig[i + 1], '(')) {
            const int close = f.match[i + 1];
            if (close != i + 5 || !isPunct(f.sig[i + 2], '.') ||
                !isPunct(f.sig[i + 3], '.') ||
                !isPunct(f.sig[i + 4], '.'))
                continue;
            if (close + 1 >= n || !isPunct(f.sig[close + 1], '{') ||
                f.match[close + 1] < 0)
                continue;
            const int bodyBegin = close + 2;
            const int bodyEnd = f.match[close + 1];
            bool handled = false;
            for (int j = bodyBegin; j < bodyEnd; ++j) {
                const Token &b = f.sig[j];
                if (b.kind != TokenKind::Identifier)
                    continue;
                if (b.text == "throw" || b.text == "current_exception" ||
                    b.text == "rethrow_exception" ||
                    b.text == "QUEST_INTENTIONAL_SWALLOW") {
                    handled = true;
                    break;
                }
            }
            if (!handled) {
                emit(f, out, "errors.swallowed-exception", t.line,
                     "catch (...) neither rethrows nor forwards the "
                     "exception (annotate QUEST_INTENTIONAL_SWALLOW "
                     "if dropping it is the contract)");
            }
        }
    }
}

// ---- registry extraction ------------------------------------------

namespace {

constexpr std::array<sv, 3> kMetricMethods = {"counter", "gauge",
                                              "histogram"};

/**
 * Classify the argument token range (argBegin, argEnd) of a metric
 * or fault-point call. Returns false for dynamic arguments the
 * analyzer cannot resolve (a plain variable).
 */
bool
resolveNameArg(SourceFile &f, int argBegin, int argEnd,
               const NamesHeader &names, bool requireConstants,
               const char *what, std::vector<Finding> &out,
               std::string &name, bool &literal, bool &prefix)
{
    literal = false;
    prefix = false;
    name.clear();
    bool sawPlus = false;
    int stringAt = -1;
    int constAt = -1;
    std::string constValue;
    for (int i = argBegin; i < argEnd; ++i) {
        const Token &t = f.sig[i];
        if (t.kind == TokenKind::String && stringAt < 0)
            stringAt = i;
        else if (t.kind == TokenKind::Punct && t.text == "+")
            sawPlus = true;
        else if (constAt < 0 && isIdent(t, "names") && i + 3 < argEnd &&
                 isPunct(f.sig[i + 1], ':') &&
                 isPunct(f.sig[i + 2], ':') &&
                 f.sig[i + 3].kind == TokenKind::Identifier) {
            const Token &c = f.sig[i + 3];
            constAt = i + 3;
            auto it = names.strings.find(std::string(c.text));
            if (it == names.strings.end()) {
                emit(f, out, "registry.unknown-constant", c.line,
                     std::string("names::") + std::string(c.text) +
                         " is not declared in src/util/names.hh");
                return false;
            }
            constValue = it->second;
        }
    }
    if (constAt >= 0) {
        name = constValue;
        prefix = sawPlus;
        return true;
    }
    if (stringAt >= 0) {
        name = std::string(f.sig[stringAt].text);
        literal = true;
        prefix = sawPlus;
        if (requireConstants) {
            emit(f, out, "registry.literal-name",
                 f.sig[stringAt].line,
                 std::string(what) + " name \"" + name +
                     "\" is a string literal — src/ must use the "
                     "names:: constants from src/util/names.hh");
        }
        return true;
    }
    return false; // dynamic (variable) — out of extraction scope
}

} // namespace

std::vector<CodeUse>
extractUses(SourceFile &f, const NamesHeader &names,
            bool requireConstants, std::vector<Finding> &out)
{
    std::vector<CodeUse> uses;
    const int n = static_cast<int>(f.sig.size());
    for (int i = 0; i < n; ++i) {
        const Token &t = f.sig[i];
        if (t.kind != TokenKind::Identifier)
            continue;

        const bool metric = oneOf(t.text, kMetricMethods) && i > 0 &&
                            isPunct(f.sig[i - 1], '.') &&
                            calledAt(f, static_cast<size_t>(i));
        const bool fault = t.text == "QUEST_FAULT_POINT" &&
                           calledAt(f, static_cast<size_t>(i)) &&
                           (i == 0 || !isIdent(f.sig[i - 1], "define"));
        if (!metric && !fault)
            continue;
        const int close = f.match[i + 1];
        if (close < 0)
            continue;

        std::string name;
        bool literal = false, prefixUse = false;
        if (!resolveNameArg(f, i + 2, close, names, requireConstants,
                            metric ? "metric" : "fault site", out, name,
                            literal, prefixUse))
            continue;

        CodeUse use;
        use.name = name;
        use.literal = literal;
        use.site = {f.relPath, t.line};
        if (prefixUse) {
            use.what = CodeUse::What::Prefix;
        } else if (metric) {
            use.what = CodeUse::What::Metric;
            use.kind = std::string(t.text);
        } else {
            use.what = CodeUse::What::FaultSite;
        }
        uses.push_back(std::move(use));
    }
    return uses;
}

void
extractExitCodes(const SourceFile &f, const NamesHeader &names,
                 std::map<std::string, std::string> &categoryNames,
                 std::map<std::string, int> &exitCodes)
{
    const int n = static_cast<int>(f.sig.size());
    for (int i = 0; i + 6 < n; ++i) {
        // case ErrorCategory::X: return V;
        if (!isIdent(f.sig[i], "ErrorCategory") ||
            !isPunct(f.sig[i + 1], ':') || !isPunct(f.sig[i + 2], ':'))
            continue;
        const Token &cat = f.sig[i + 3];
        if (cat.kind != TokenKind::Identifier ||
            !isPunct(f.sig[i + 4], ':') ||
            !isIdent(f.sig[i + 5], "return"))
            continue;
        const std::string category(cat.text);
        const Token &val = f.sig[i + 6];
        if (val.kind == TokenKind::String) {
            categoryNames[category] = std::string(val.text);
        } else if (val.kind == TokenKind::Number) {
            try {
                exitCodes[category] = std::stoi(std::string(val.text));
            } catch (const std::exception &) {
            }
        } else if (isIdent(val, "names") && i + 9 < n &&
                   f.sig[i + 9].kind == TokenKind::Identifier) {
            auto it = names.ints.find(std::string(f.sig[i + 9].text));
            if (it != names.ints.end())
                exitCodes[category] = it->second;
        }
    }
}

// ---- rule catalogue -----------------------------------------------

const std::vector<RuleInfo> &
allRules()
{
    static const std::vector<RuleInfo> rules = {
        {"analyze.unused-suppression",
         "a QUEST_ANALYZE_OK comment suppressed nothing"},
        {"cancellation.unpolled-loop",
         "kernel-calling loop without a Budget poll or forward"},
        {"determinism.clock",
         "wall-clock read on a result-affecting path"},
        {"determinism.env",
         "environment read on a result-affecting path"},
        {"determinism.fs-order",
         "directory-order/mtime dependence on a result-affecting "
         "path"},
        {"determinism.rand", "non-seeded PRNG use"},
        {"determinism.unordered",
         "unordered container on a result-affecting path"},
        {"errors.runtime-error",
         "std::runtime_error thrown outside src/util"},
        {"errors.swallowed-exception",
         "catch (...) that neither rethrows nor forwards"},
        {"registry.duplicate",
         "name declared or documented more than once"},
        {"registry.exit-code",
         "exit-code taxonomy diverges from docs/REGISTRY.md"},
        {"registry.kind-mismatch",
         "metric registered with a different kind than documented"},
        {"registry.literal-name",
         "metric/fault-site literal in src/ instead of names::"},
        {"registry.malformed", "unparseable docs/REGISTRY.md row"},
        {"registry.stale",
         "documented name that no longer appears in the tree"},
        {"registry.undocumented-fault-site",
         "fault site missing from docs/REGISTRY.md"},
        {"registry.undocumented-metric",
         "metric name missing from docs/REGISTRY.md"},
        {"registry.unknown-constant",
         "names:: constant not declared in src/util/names.hh"},
    };
    return rules;
}

} // namespace quest::analysis
