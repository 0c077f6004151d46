/**
 * @file
 * quest_compile — command-line front end mirroring the paper
 * artifact's workflow (Appendix A.5): read an OpenQASM 2.0 circuit,
 * run the QUEST pipeline, and write the intermediate and final
 * artifacts into an output directory:
 *
 *   out/
 *     blocks/qasm_block_<id>.qasm        partitioned blocks
 *     approximations/block_<id>_<k>.qasm per-block approximations
 *     samples/sample_<s>.qasm            selected full circuits
 *     summary.txt                        counts, bounds, timings
 *
 * Usage:
 *   quest_compile [options] <input.qasm> [output-dir]
 *
 * Without an output directory only the summary (and any requested
 * observability output) is printed.
 *
 * Options:
 *   --large            block-only (BlockBound) mode for 64+-qubit
 *                      circuits: select and certify via the Theorem-1
 *                      bound only, never building a full unitary or
 *                      statevector (docs/USER_GUIDE.md)
 *   --threshold <t>    per-block threshold (default 0.3)
 *   --max-samples <m>  ensemble size cap (default 16)
 *   --max-layers <l>   synthesis layer cap (default 16)
 *   --block-size <k>   partition width (default 4)
 *   --seed <s>         master seed (default 99)
 *   --threads <n>      thread budget for synthesis and certify
 *                      (default: all cores)
 *   --cache-dir <dir>  persistent synthesis cache directory
 *                      (default: $QUEST_CACHE_DIR if set)
 *   --no-cache         disable the persistent cache entirely
 *   --timeout <sec>        wall-clock ceiling for the whole run
 *   --block-timeout <sec>  per-block synthesis ceiling
 *   --fail-on-deadline     abort (exit 12) instead of degrading when
 *                          the run deadline fires
 *   --checkpoint <dir>     crash-safe run journal directory
 *   --resume               replay a matching journal in <dir>
 *   --trace <file>     write a Chrome-trace JSON of the run
 *   --stats            print span attribution + metrics tables
 *
 * Exit codes (resilience/error.hh): 0 success, 2 usage,
 * 10 invalid input, 11 I/O, 12 timeout, 13 cancelled, 14 diverged,
 * 15 resource, 70 internal. Failures print a one-line diagnostic to
 * stderr.
 */

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/qasm.hh"
#include "obs/chrome_trace.hh"
#include "obs/metrics.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "quest/ensemble.hh"
#include "quest/pipeline.hh"
#include "resilience/error.hh"
#include "service/job.hh"
#include "util/logging.hh"

namespace {

using namespace quest;

void
writeFile(const std::filesystem::path &path, const std::string &text)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write ", path.string());
    out << text;
}

int
usage()
{
    std::cerr << "usage: quest_compile [options] <input.qasm>"
              << " [output-dir]\n"
              << "options:\n"
              << "  --large          block-only mode for 64+-qubit "
                 "circuits\n"
              << "  --threshold t    per-block threshold\n"
              << "  --max-samples m  ensemble size cap\n"
              << "  --max-layers l   synthesis layer cap\n"
              << "  --block-size k   partition width\n"
              << "  --seed s         master seed\n"
              << "  --threads n      synthesis and certify threads\n"
              << "  --cache-dir dir  persistent synthesis cache "
                 "(default: $QUEST_CACHE_DIR)\n"
              << "  --no-cache       disable the persistent cache\n"
              << "  --timeout sec        run wall-clock ceiling\n"
              << "  --block-timeout sec  per-block synthesis ceiling\n"
              << "  --fail-on-deadline   abort instead of degrading\n"
              << "  --checkpoint dir     crash-safe run journal\n"
              << "  --resume             replay a matching journal\n"
              << "  --trace file     write Chrome-trace JSON\n"
              << "  --stats          print span/metrics tables\n";
    return 2;
}

int
runCompile(int argc, char **argv)
{
    // The shared base config (service/job.hh): quest_served jobs
    // start from the same knobs, which is what makes a served result
    // byte-identical to a local quest_compile of the same input.
    QuestConfig config = service::baseCompileConfig();

    std::vector<std::string> positionals;
    std::string trace_path;
    std::string cache_dir;
    bool no_cache = false;
    bool print_stats = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (!arg.starts_with("--")) {
            positionals.push_back(arg);
            continue;
        }
        if (arg == "--stats") {
            print_stats = true;
            continue;
        }
        if (arg == "--large") {
            config.selectionMode = SelectionMode::BlockBound;
            continue;
        }
        if (arg == "--no-cache") {
            no_cache = true;
            continue;
        }
        if (arg == "--fail-on-deadline") {
            config.deadlinePolicy = DeadlinePolicy::Fail;
            continue;
        }
        if (arg == "--resume") {
            config.resume = true;
            continue;
        }
        if (i + 1 >= argc) {
            std::cerr << "option " << arg << " needs a value\n";
            return usage();
        }
        const std::string value = argv[++i];
        try {
            if (arg == "--threshold") {
                config.thresholdPerBlock = std::stod(value);
            } else if (arg == "--max-samples") {
                config.maxSamples = std::stoi(value);
            } else if (arg == "--max-layers") {
                config.synth.maxLayers = std::stoi(value);
            } else if (arg == "--block-size") {
                config.maxBlockSize = std::stoi(value);
            } else if (arg == "--seed") {
                config.seed = std::stoull(value);
            } else if (arg == "--threads") {
                const int threads = std::stoi(value);
                if (threads < 0)
                    throw std::invalid_argument("negative thread count");
                config.threads = static_cast<unsigned>(threads);
            } else if (arg == "--timeout") {
                config.runTimeoutSeconds = std::stod(value);
            } else if (arg == "--block-timeout") {
                config.blockTimeoutSeconds = std::stod(value);
            } else if (arg == "--checkpoint") {
                config.checkpointDir = value;
            } else if (arg == "--cache-dir") {
                cache_dir = value;
            } else if (arg == "--trace") {
                trace_path = value;
            } else {
                std::cerr << "unknown option: " << arg << "\n";
                return usage();
            }
        } catch (const std::exception &) {
            std::cerr << "bad value for " << arg << ": " << value
                      << "\n";
            return usage();
        }
    }

    if (positionals.empty() || positionals.size() > 2)
        return usage();
    if (no_cache) {
        config.cacheDir.clear();
    } else {
        if (cache_dir.empty()) {
            if (const char *env = std::getenv("QUEST_CACHE_DIR"))
                cache_dir = env;
        }
        config.cacheDir = cache_dir;
    }
    const std::string input_path = positionals[0];
    const bool have_out_dir = positionals.size() == 2;
    const std::filesystem::path out_dir =
        have_out_dir ? positionals[1] : "";

    std::ifstream in(input_path);
    if (!in) {
        throw resilience::QuestError(
            resilience::ErrorCategory::Io,
            "cannot open '" + input_path + "'");
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Circuit circuit;
    try {
        circuit = parseQasm(buffer.str());
    } catch (const QasmError &e) {
        throw resilience::QuestError(
            resilience::ErrorCategory::InvalidInput,
            std::string("QASM parse error: ") + e.what())
            .withContext("parsing '" + input_path + "'");
    }

    const bool observe = print_stats || !trace_path.empty();
    if (observe) {
        obs::MetricsRegistry::global().reset();
        obs::TraceSession::global().start();
    }

    QuestPipeline pipeline(config);
    QuestResult result = pipeline.run(circuit);

    std::vector<obs::TraceEvent> events;
    if (observe) {
        obs::TraceSession::global().stop();
        events = obs::TraceSession::global().collect();
    }

    namespace fs = std::filesystem;
    if (have_out_dir) {
        fs::create_directories(out_dir / "blocks");
        fs::create_directories(out_dir / "approximations");
        fs::create_directories(out_dir / "samples");

        for (size_t b = 0; b < result.blocks.size(); ++b) {
            writeFile(out_dir / "blocks" /
                          ("qasm_block_" + std::to_string(b) + ".qasm"),
                      toQasm(result.blocks[b].circuit));
        }
        for (size_t b = 0; b < result.blockApprox.size(); ++b) {
            for (size_t k = 0; k < result.blockApprox[b].size(); ++k) {
                writeFile(out_dir / "approximations" /
                              ("block_" + std::to_string(b) + "_" +
                               std::to_string(k) + ".qasm"),
                          toQasm(result.blockApprox[b][k].circuit));
            }
        }
        for (size_t s = 0; s < result.samples.size(); ++s) {
            writeFile(out_dir / "samples" /
                          ("sample_" + std::to_string(s) + ".qasm"),
                      toQasm(result.samples[s].circuit));
        }
    }

    std::ostringstream summary;
    summary << "input: " << input_path << "\n"
            << "qubits: " << result.original.numQubits() << "\n"
            << "selection mode: "
            << selectionModeName(result.selectionMode) << "\n"
            << "original cnots: " << result.originalCnots << "\n"
            << "blocks: " << result.blocks.size() << "\n"
            << "ok blocks: " << result.okBlocks() << "\n"
            << "fallback blocks: " << result.fallbackBlocks() << "\n"
            << "threshold: " << result.threshold << "\n"
            << "samples: " << result.samples.size() << "\n";
    for (size_t s = 0; s < result.samples.size(); ++s) {
        summary << "  sample " << s << ": "
                << result.samples[s].cnotCount << " cnots, bound "
                << result.samples[s].distanceBound;
        if (result.samples[s].measured())
            summary << ", measured "
                    << result.samples[s].measuredDistance;
        summary << "\n";
    }
    // The Theorem-1 certificate: what this run proved about the
    // ensemble. The output-distance line is a heuristic estimate,
    // not a guarantee (metrics/output_distance.hh).
    const BoundCertificate &cert = result.certificate;
    summary << "certificate max bound: " << cert.maxBound
            << " (threshold " << cert.threshold << ")\n"
            << "certificate mean bound: " << cert.meanBound << "\n"
            << "certificate output-distance estimate: "
            << cert.outputEstimate << "\n";
    if (cert.measuredSamples > 0) {
        summary << "certificate max measured distance: "
                << cert.maxMeasured << " (" << cert.measuredSamples
                << "/" << result.samples.size()
                << " samples measured)\n";
    }
    // Cache attribution for this run (the counters are process-wide,
    // and quest_compile runs exactly one pipeline): misses are actual
    // LEAP searches, hits are searches avoided via in-memory dedup or
    // the persistent cache. CI greps the misses line on warm runs.
    auto &registry = obs::MetricsRegistry::global();
    summary << "min sample cnots: " << result.minSampleCnots() << "\n"
            << "synth cache hits: "
            << registry.counter("quest.synth.cache_hits").value() << "\n"
            << "synth cache misses: "
            << registry.counter("quest.synth.cache_misses").value()
            << "\n"
            << "partition seconds: " << result.partitionSeconds << "\n"
            << "synthesis seconds: " << result.synthesisSeconds << "\n"
            << "annealing seconds: " << result.annealSeconds << "\n"
            << "certify seconds: " << result.certifySeconds << "\n";
    if (have_out_dir)
        writeFile(out_dir / "summary.txt", summary.str());

    std::cout << summary.str();
    if (have_out_dir)
        std::cout << "artifacts written to " << out_dir.string() << "\n";

    if (!trace_path.empty()) {
        std::ofstream trace_out(trace_path);
        if (!trace_out)
            fatal("cannot write ", trace_path);
        obs::writeChromeTrace(trace_out, events);
        std::cout << "trace written to " << trace_path << " ("
                  << events.size() << " spans";
        if (size_t dropped = obs::TraceSession::global().droppedEvents())
            std::cout << ", " << dropped << " dropped";
        std::cout << ")\n";
    }
    if (print_stats) {
        std::cout << "\n-- span attribution --\n";
        obs::spanStatsTable(events, "quest.pipeline").print(std::cout);
        std::cout << "phase coverage: "
                  << Table::pct(obs::phaseCoverage(events,
                                                   "quest.pipeline"))
                  << " of quest.pipeline\n";
        std::cout << "\n-- metrics --\n";
        obs::MetricsRegistry::global().table().print(std::cout);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return runCompile(argc, argv);
    } catch (const quest::resilience::QuestError &e) {
        // One line, machine-greppable: "quest_compile: <category>:
        // <message> (<context>)".
        std::cerr << "quest_compile: " << e.what() << "\n";
        return e.exitCode();
    } catch (const std::exception &e) {
        std::cerr << "quest_compile: internal: " << e.what() << "\n";
        return quest::resilience::exitCodeFor(
            quest::resilience::ErrorCategory::Internal);
    }
}
