#include "analysis/analyzer.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "analysis/rules.hh"
#include "resilience/error.hh"
#include "util/annotations.hh"

namespace quest::analysis {

namespace fs = std::filesystem;

namespace {

bool
startsWith(const std::string &s, std::string_view prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

bool
isSourceExt(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
           ext == ".hpp" || ext == ".h";
}

/** Directories never walked: build trees and the analyzer's own
 *  violation fixtures. */
bool
isExcludedDir(const fs::path &p)
{
    const std::string name = p.filename().string();
    return startsWith(name, "build") || name == "analysis_fixtures" ||
           name == ".git";
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw resilience::QuestError(
            resilience::ErrorCategory::Io,
            "cannot read " + path.string());
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Repo-relative path with forward slashes. */
std::string
relPathOf(const fs::path &path, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::relative(path, root, ec);
    std::string s = (ec ? path : rel).generic_string();
    while (startsWith(s, "./"))
        s = s.substr(2);
    return s;
}

/** Collect the files to scan, sorted for deterministic output. */
std::vector<fs::path>
collectFiles(const AnalyzerConfig &config)
{
    QUEST_RESULT_NEUTRAL("paths are sorted before any rule runs, so "
                         "directory iteration order cannot affect "
                         "the report");
    const fs::path root = config.root;
    std::vector<std::string> roots = config.paths;
    if (roots.empty()) {
        for (const char *d : {"src", "tools", "tests", "bench"}) {
            if (fs::exists(root / d))
                roots.push_back(d);
        }
    }
    std::set<fs::path> files;
    for (const std::string &r : roots) {
        const fs::path base = root / r;
        if (fs::is_regular_file(base)) {
            files.insert(base);
            continue;
        }
        if (!fs::is_directory(base)) {
            throw resilience::QuestError(
                resilience::ErrorCategory::Io,
                "no such file or directory: " + base.string());
        }
        fs::recursive_directory_iterator it(base), end;
        for (; it != end; ++it) {
            if (it->is_directory() && isExcludedDir(it->path())) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && isSourceExt(it->path()))
                files.insert(it->path());
        }
    }
    return {files.begin(), files.end()};
}

// Path policy (see the header comment).

bool
determinismAllowlisted(const std::string &rel)
{
    return startsWith(rel, "src/resilience/") ||
           startsWith(rel, "src/obs/") ||
           startsWith(rel, "src/service/") ||
           startsWith(rel, "tools/") || startsWith(rel, "bench/") ||
           rel == "src/util/timer.hh" ||
           // CPUID probe + QUEST_SIMD override: selects between
           // bit-identical kernel tables, so the env read cannot
           // change any result (pinned by the kernel parity tests).
           rel == "src/util/cpu.cc";
}

bool
cancellationApplies(const std::string &rel)
{
    return startsWith(rel, "src/synth/") ||
           startsWith(rel, "src/anneal/") ||
           startsWith(rel, "src/quest/");
}

bool
runtimeErrorAllowed(const std::string &rel)
{
    return startsWith(rel, "src/util/");
}

bool
inSrc(const std::string &rel)
{
    return startsWith(rel, "src/");
}

} // namespace

Report
analyze(const AnalyzerConfig &config)
{
    Report report;
    const fs::path root = config.root;

    // The authoritative registry and the names header.
    report.doc = parseRegistryDoc(
        config.registryPath, readFile(root / config.registryPath),
        report.findings);
    SourceFile namesFile = buildSourceFile(
        config.namesPath, readFile(root / config.namesPath));
    const NamesHeader names =
        parseNamesHeader(namesFile, report.findings);

    // Exit codes come from the taxonomy source even when the scan is
    // narrowed, so the registry cross-check always has both sides.
    {
        SourceFile errorFile = buildSourceFile(
            config.errorSource, readFile(root / config.errorSource));
        std::map<std::string, std::string> categoryNames;
        std::map<std::string, int> codesByCategory;
        extractExitCodes(errorFile, names, categoryNames,
                         codesByCategory);
        for (const auto &[category, code] : codesByCategory) {
            auto it = categoryNames.find(category);
            const std::string stable =
                it == categoryNames.end() ? category : it->second;
            report.code.exitCodes[stable] = code;
        }
    }

    // Per-file rules + registry extraction.
    std::vector<CodeUse> uses;
    std::vector<SourceFile> scanned;
    for (const fs::path &path : collectFiles(config)) {
        const std::string rel = relPathOf(path, root);
        SourceFile file = buildSourceFile(rel, readFile(path));

        if (!determinismAllowlisted(rel))
            runDeterminismRule(file, report.findings);
        if (cancellationApplies(rel))
            runCancellationRule(file, report.findings);
        runErrorsRule(file, runtimeErrorAllowed(rel), report.findings);
        std::vector<CodeUse> fileUses = extractUses(
            file, names, inSrc(rel), report.findings);
        uses.insert(uses.end(), fileUses.begin(), fileUses.end());

        ++report.filesScanned;
        scanned.push_back(std::move(file));
    }

    // Cross-check every extracted use against the documented tables.
    for (const CodeUse &use : uses) {
        switch (use.what) {
          case CodeUse::What::Metric: {
            auto it = report.doc.metrics.find(use.name);
            if (it != report.doc.metrics.end()) {
                report.code.metrics[use.name] = use.kind;
                if (it->second != use.kind) {
                    report.findings.push_back(
                        {"registry.kind-mismatch", Severity::Error,
                         use.site.file, use.site.line,
                         "metric '" + use.name + "' is a " + use.kind +
                             " here but documented as a " +
                             it->second + " in " +
                             config.registryPath});
                }
            } else if (report.doc.matchesPrefix(use.name)) {
                // Ephemeral (e.g. test-local) name; record which
                // prefix carried it.
                for (const std::string &p : report.doc.prefixes) {
                    if (startsWith(use.name, p))
                        report.code.prefixes.insert(p);
                }
            } else {
                // Still part of the code-side manifest, so a CI
                // diff shows the extra entry too.
                report.code.metrics[use.name] = use.kind;
                report.findings.push_back(
                    {"registry.undocumented-metric", Severity::Error,
                     use.site.file, use.site.line,
                     "metric '" + use.name + "' is not documented in " +
                         config.registryPath +
                         " (and matches no ephemeral prefix)"});
            }
            break;
          }
          case CodeUse::What::FaultSite:
            if (report.doc.faultSites.count(use.name)) {
                report.code.faultSites.insert(use.name);
            } else if (report.doc.matchesPrefix(use.name)) {
                for (const std::string &p : report.doc.prefixes) {
                    if (startsWith(use.name, p))
                        report.code.prefixes.insert(p);
                }
            } else {
                report.code.faultSites.insert(use.name);
                report.findings.push_back(
                    {"registry.undocumented-fault-site",
                     Severity::Error, use.site.file, use.site.line,
                     "fault site '" + use.name +
                         "' is not documented in " +
                         config.registryPath});
            }
            break;
          case CodeUse::What::Prefix:
            if (report.doc.prefixes.count(use.name)) {
                report.code.prefixes.insert(use.name);
            } else if (report.doc.matchesPrefix(use.name)) {
                for (const std::string &p : report.doc.prefixes) {
                    if (startsWith(use.name, p))
                        report.code.prefixes.insert(p);
                }
            } else {
                report.findings.push_back(
                    {"registry.undocumented-metric", Severity::Error,
                     use.site.file, use.site.line,
                     "dynamic name prefix '" + use.name +
                         "' is not documented in " +
                         config.registryPath});
            }
            break;
          case CodeUse::What::ExitCode:
            break; // extracted separately
        }
    }

    // Exit codes: both directions must agree exactly.
    for (const auto &[category, code] : report.doc.exitCodes) {
        auto it = report.code.exitCodes.find(category);
        const NameSite site = report.doc.sites.count("exit " + category)
                                  ? report.doc.sites.at("exit " +
                                                        category)
                                  : NameSite{config.registryPath, 0};
        if (it == report.code.exitCodes.end()) {
            report.findings.push_back(
                {"registry.exit-code", Severity::Error, site.file,
                 site.line,
                 "exit code category '" + category +
                     "' is documented but absent from " +
                     config.errorSource});
        } else if (it->second != code) {
            report.findings.push_back(
                {"registry.exit-code", Severity::Error, site.file,
                 site.line,
                 "exit code for '" + category + "' is " +
                     std::to_string(it->second) + " in " +
                     config.errorSource + " but documented as " +
                     std::to_string(code)});
        }
    }
    for (const auto &[category, code] : report.code.exitCodes) {
        if (!report.doc.exitCodes.count(category)) {
            report.findings.push_back(
                {"registry.exit-code", Severity::Error,
                 config.errorSource, 0,
                 "exit code " + std::to_string(code) + " for '" +
                     category + "' is not documented in " +
                     config.registryPath});
        }
    }

    // Stale entries: documented names the scan never saw. Only
    // meaningful for a full-tree scan.
    const bool fullScan = config.paths.empty();
    if (config.checkStale && fullScan) {
        auto staleAt = [&](const std::string &key,
                           const std::string &message) {
            const NameSite site =
                report.doc.sites.count(key)
                    ? report.doc.sites.at(key)
                    : NameSite{config.registryPath, 0};
            report.findings.push_back({"registry.stale",
                                       Severity::Error, site.file,
                                       site.line, message});
        };
        for (const auto &[name, kind] : report.doc.metrics) {
            if (!report.code.metrics.count(name))
                staleAt("metric " + name,
                        "documented metric '" + name +
                            "' no longer appears in the tree");
        }
        for (const std::string &site : report.doc.faultSites) {
            if (!report.code.faultSites.count(site))
                staleAt("fault " + site,
                        "documented fault site '" + site +
                            "' no longer appears in the tree");
        }
        for (const std::string &prefix : report.doc.prefixes) {
            if (!report.code.prefixes.count(prefix))
                staleAt("prefix " + prefix,
                        "documented name prefix '" + prefix +
                            "' no longer appears in the tree");
        }
    }

    // Suppressions that suppressed nothing are themselves findings —
    // the set of annotations must stay minimal and honest.
    for (SourceFile &file : scanned) {
        for (const Suppression &s : file.suppressions) {
            if (s.used) {
                ++report.suppressionsUsed;
            } else {
                report.findings.push_back(
                    {"analyze.unused-suppression", Severity::Error,
                     file.relPath, s.line,
                     "QUEST_ANALYZE_OK(" + s.rule +
                         ") did not suppress any finding — remove "
                         "it"});
            }
        }
    }

    std::sort(report.findings.begin(), report.findings.end(),
              findingBefore);
    return report;
}

} // namespace quest::analysis
