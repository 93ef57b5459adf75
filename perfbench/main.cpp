/**
 * @file
 * The compile benchmark. One closed-loop client in one process
 * compiles drawn (kernel, target, schedule) triples one at a time,
 * each in a forked child that inherits the AutoLLVM dictionary, so a
 * crash is a failed compile rather than the end of the run.
 *
 *   hydride_perfbench --workload cold|warm|mixed --seed N --seconds S
 *                     --trace 0|1 [--work-dir DIR]
 *
 * Stores live in a per-process directory under --work-dir (default
 * .bench_build/perfbench/work) that is removed when the run ends; the
 * traced run leaves its spans there as spans-<workload>-seed<N>.json.
 * --cells, --print-draw and --inject-crash serve the self-test
 * (perfbench/test_perfbench.py).
 *
 * Workloads:
 *   cold   every compile uses a fresh compiler, an empty in-process
 *          cache and no store, so CEGIS does all the work;
 *   warm   set-up fills a durable store with a cold pass over the
 *          draw; the timed pass compiles each triple and its
 *          rescheduled variant (unroll 2, tile 16) against it;
 *   mixed  set-up fills the store from a seeded half of the draw; the
 *          timed pass compiles the whole draw against it, so verified
 *          reads run beside seeded cold syntheses and their appends.
 * The store is restored from its set-up snapshot before every pass
 * over the draw, so each pass sees the same store. The timed loop runs
 * a fixed number of whole passes, --seconds over a nominal pass length.
 *
 * With --trace 0 the last stdout line is a JSON object with the
 * end-to-end metrics; with --trace 1 the run first repeats the
 * untraced loop for half the time, then walks the same compiles
 * through each layer's public calls in spans and prints the per-layer
 * metrics instead.
 *
 * Exit code 0 on a completed run, 1 on a bad argument or a failed
 * set-up, 2 when interrupted.
 */
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench.h"

namespace fs = std::filesystem;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

const Clock::time_point g_process_start = Clock::now();

/** Per-child limit: a hung compile is killed and counted as failed. */
constexpr double kChildTimeoutSeconds = 60.0;
/** Dictionary builds timed per run; set-up reports their median. */
constexpr int kSetupSamples = 5;
/** Nominal length of one timed pass over the draw (on a 4-core x86
 *  VM a pass of cold took 18 to 20 s, of warm 15 to 21 s); --seconds /
 *  this, rounded and at least 1, is the number of passes. */
double
passSeconds(const std::string &workload)
{
    return workload == "warm" ? 15.0 : 20.0;
}

/**
 * The draw's cells: a target and a class of Table 4 kernels that
 * share their structure and their compile behaviour (filter sizes,
 * batch sizes). The seed picks the kernel of each cell; the classes
 * keep every draw's mix of search outcomes the same while the kernels
 * change:
 *   gaussian on x86 at 512 bits and dilate on HVX and ARM: searches
 *            that run into their deadline and end on macro expansion;
 *   matmul   on every target: windows CEGIS solves (on ARM the search
 *            hits its deadline, the escalated retry fails too, and the
 *            windows are macro-expanded).
 * Targets index perfbench::targets(): x86 512, HVX 1024, ARM 128,
 * x86 256.
 *
 * `warm` draws `warm` kernels from a cell (none: not on warm): both
 * matmul kernels on x86 256 and one on x86 512 and HVX, whose store
 * hits are re-verified (about 1.2, 2 and 4.4 s each), and one dilate
 * kernel on HVX and ARM, whose negative entries take milliseconds.
 * There are as many negatives as slower hits, so the median compile
 * is the middle of the x86 256 hits, not the edge between the
 * milliseconds and the seconds; two kernels there double its samples.
 *
 * No cell holds a kernel on which a compile fails: every run must
 * count the same failures (none), and the CEGIS segfault on sobel at
 * x86 256 bits strikes in only 70 to 80% of compiles.
 */
struct Cell
{
    int target;
    std::vector<std::string> kernels;
    int warm;
};
const std::vector<std::string> kGaussian = {"gaussian5x5", "gaussian7x7"};
const std::vector<std::string> kDilate = {"dilate5x5", "dilate7x7"};
const std::vector<std::string> kMatmul = {"matmul_b1", "matmul_b2"};
const std::vector<Cell> kCells = {
    {3, kMatmul, 2}, {0, kGaussian, 0}, {0, kMatmul, 1}, {1, kDilate, 1},
    {1, kMatmul, 1}, {2, kDilate, 1},   {2, kMatmul, 0},
};
const std::vector<int> kTiles = {8, 16, 32};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** splitmix64: the draw depends only on the seed, not on the program. */
class DrawRng
{
  public:
    explicit DrawRng(uint64_t seed) : state_(seed) {}

    uint64_t next()
    {
        uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    size_t below(size_t bound) { return static_cast<size_t>(next() % bound); }

    template <typename T> void shuffle(std::vector<T> &values)
    {
        for (size_t i = values.size(); i > 1; --i)
            std::swap(values[i - 1], values[below(i)]);
    }

  private:
    uint64_t state_;
};

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    std::string work_dir = ".bench_build/perfbench/work";
    /** Indices into kCells to draw from (when empty, the workload's
     *  cells: every cell, or the `warm` ones on warm). */
    std::vector<int> cells;
    bool print_draw = false;
    /** The n-th timed compile's child raises SIGSEGV (self-test). */
    int inject_crash = -1;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "hydride_perfbench: " << why << "\n"
              << "usage: hydride_perfbench --workload cold|warm|mixed "
                 "--seed N --seconds S --trace 0|1\n"
                 "       [--work-dir DIR] [--cells I,J,...] [--print-draw] "
                 "[--inject-crash N]\n";
    std::exit(1);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                args.workload = value();
            } else if (flag == "--seed") {
                args.seed = std::stoull(value());
                have_seed = true;
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value());
            } else if (flag == "--trace") {
                args.trace = std::stoi(value());
            } else if (flag == "--work-dir") {
                args.work_dir = value();
            } else if (flag == "--cells") {
                const std::string list = value();
                for (size_t at = 0; at < list.size();) {
                    const size_t comma = std::min(list.find(',', at),
                                                  list.size());
                    const int cell = std::stoi(list.substr(at, comma - at));
                    if (cell < 0 || cell >= static_cast<int>(kCells.size()))
                        usage("--cells index out of range");
                    args.cells.push_back(cell);
                    at = comma + 1;
                }
            } else if (flag == "--print-draw") {
                args.print_draw = true;
            } else if (flag == "--inject-crash") {
                args.inject_crash = std::stoi(value());
            } else {
                usage("unknown argument " + flag);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + flag);
        }
    }
    if (args.workload != "cold" && args.workload != "warm" &&
        args.workload != "mixed") {
        usage("--workload must be cold, warm or mixed");
    }
    if (!have_seed)
        usage("--seed is required");
    if (args.cells.empty()) {
        for (size_t c = 0; c < kCells.size(); ++c) {
            if (args.workload != "warm" || kCells[c].warm > 0)
                args.cells.push_back(static_cast<int>(c));
        }
    }
    if (args.print_draw)
        return args;
    if (!(args.seconds > 0))
        usage("--seconds must be positive");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    return args;
}

/** The drawn triples, and which ones `mixed` fills its store from. */
struct Draw
{
    std::vector<Item> items;
    std::vector<bool> in_store;
};

/**
 * The seeded draw: one kernel of every cell (`warm`: the cell's
 * `warm` count, at least one), each with a seeded tile, in seeded
 * order. `warm` fills the store with every triple and `cold` with
 * none; `mixed` draws two distinct kernels per cell and fills the
 * store with one of them, chosen by the seed.
 */
Draw
makeDraw(const Args &args)
{
    DrawRng rng(args.seed * 0x2545F4914F6CDD1Dull + 0x51A7u);
    const bool mixed = args.workload == "mixed";
    const bool warm = args.workload == "warm";
    Draw draw;
    std::vector<std::pair<Item, bool>> drawn;
    for (int c : args.cells) {
        std::vector<std::string> kernels = kCells[c].kernels;
        rng.shuffle(kernels);
        const size_t stored = rng.below(2);
        const int count = mixed ? 2 : warm ? std::max(1, kCells[c].warm) : 1;
        for (int k = 0; k < count; ++k) {
            Item item;
            item.kernel = kernels[k];
            item.target = kCells[c].target;
            item.tile = kTiles[rng.below(kTiles.size())];
            drawn.emplace_back(item, mixed ? k == static_cast<int>(stored)
                                           : warm);
        }
    }
    rng.shuffle(drawn);
    for (const auto &[item, in_store] : drawn) {
        draw.items.push_back(item);
        draw.in_store.push_back(in_store);
    }
    return draw;
}

/**
 * A private directory under --work-dir named after this process,
 * removed when the run ends however it ends (child crashes included;
 * the parent never crashes inside a compile). Directories left by
 * earlier runs whose process is gone are removed on the way in.
 */
class WorkDir
{
  public:
    explicit WorkDir(const std::string &parent)
    {
        fs::create_directories(parent);
        for (const auto &entry : fs::directory_iterator(parent)) {
            const std::string name = entry.path().filename().string();
            if (name.rfind("run.", 0) != 0)
                continue;
            const long pid = std::strtol(name.c_str() + 4, nullptr, 10);
            if (pid > 0 && ::kill(static_cast<pid_t>(pid), 0) != 0 &&
                errno == ESRCH) {
                std::error_code ignored;
                fs::remove_all(entry.path(), ignored);
            }
        }
        path_ = fs::path(parent) / ("run." + std::to_string(::getpid()));
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ignored;
        fs::remove_all(path_, ignored);
    }
    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

    std::string sub(const std::string &name) const
    {
        return (path_ / name).string();
    }

  private:
    fs::path path_;
};

/** One timed compile and how it ended. */
struct Attempt
{
    Item item;
    int pass = 0;
    ChildOutcome outcome;
    bool failed = false;
    std::string why;
};

void
classify(Attempt &attempt)
{
    const ChildOutcome &out = attempt.outcome;
    const Record &rec = out.record;
    if (out.timed_out) {
        attempt.why = "killed after " +
                      std::to_string(static_cast<int>(kChildTimeoutSeconds)) +
                      " s";
    } else if (out.signal != 0) {
        attempt.why = std::string("signal ") + std::to_string(out.signal) +
                      " (" + strsignal(out.signal) + ")";
    } else if (!out.reported) {
        attempt.why = "child exited " + std::to_string(out.exit_code) +
                      " without a result";
    } else if (rec.has("threw")) {
        attempt.why = "driver threw: " + rec.str("threw");
    } else if (rec.num("all_compiled") == 0) {
        attempt.why = "window on the scalarized or failed rung";
    } else if (rec.has("validate_error")) {
        attempt.why = "output check threw: " + rec.str("validate_error");
    } else if (rec.num("valid") == 0) {
        attempt.why = "output mismatch against evalHalide";
    }
    attempt.failed = !attempt.why.empty();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** One metric line of the report and the JSON. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
    /** False for a metric printed in the report only, not in the JSON
     *  line: too unsteady from run to run to compare commits by. */
    bool in_json = true;
};

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void
printDraw(const Args &args, const Draw &draw)
{
    const hydride::ResilienceOptions options = benchOptions("");
    std::cout << "workload " << args.workload << ", seed " << args.seed
              << ", draw of " << draw.items.size() << " triples from "
              << args.cells.size() << " cells\n"
              << "synthesis options: timeout_seconds="
              << options.synthesis.timeout_seconds
              << " max_insts=" << options.synthesis.max_insts
              << " window_depth=" << options.synthesis.window_depth
              << " (other fields default); retry_escalated="
              << options.retry_escalated
              << " store_verify=" << options.store_verify << "\n";
    for (size_t i = 0; i < draw.items.size(); ++i) {
        std::cout << "  draw " << draw.items[i].label()
                  << (draw.in_store[i] ? " (in store)" : "") << "\n";
    }
}

class Bench
{
  public:
    explicit Bench(const Args &args)
        : args_(args), work_(args.work_dir), draw_(makeDraw(args))
    {
    }

    int run();

  private:
    void buildDictionary();
    void fillStore();
    /** Restore the pass's store from the set-up snapshot; "" = none. */
    std::string freshStore(const std::string &name);
    std::vector<Item> passItems() const;
    std::vector<Attempt> timedLoop(double seconds);
    std::vector<Attempt> tracedLoop(const std::vector<Attempt> &untraced);
    std::vector<Metric> endToEnd(const std::vector<Attempt> &attempts) const;
    std::vector<Metric> perLayer(const std::vector<Attempt> &untraced,
                                 const std::vector<Attempt> &traced);
    void printAttempts(const std::vector<Attempt> &attempts) const;
    void writeSpans(const std::vector<Attempt> &traced) const;

    const Args &args_;
    WorkDir work_;
    Draw draw_;
    std::unique_ptr<hydride::AutoLLVMDict> dict_;
    std::vector<double> dict_samples_;
    Record setup_trace_;
    double fill_seconds_ = 0.0;
    std::vector<std::string> fill_failures_;
    int timed_index_ = 0;
};

void
Bench::buildDictionary()
{
    // The specs layer caches parsed semantics process-wide, so every
    // sample is taken in a child forked before the parent builds
    // anything; the parent's own build is the last sample.
    for (int i = 0; i + 1 < kSetupSamples; ++i) {
        const bool traced = args_.trace == 1 && i == 0;
        ChildOutcome out = runIsolated(
            [traced] {
                if (traced)
                    return tracedSetup();
                const Clock::time_point start = Clock::now();
                hydride::AutoLLVMDict::build(dictIsas());
                Record record;
                record.set("dict_s", secondsSince(start));
                return record;
            },
            kChildTimeoutSeconds);
        if (interrupted())
            throw std::runtime_error("interrupted");
        if (!out.reported)
            throw std::runtime_error("dictionary build failed in a child");
        if (traced) {
            setup_trace_ = out.record;
            continue;
        }
        dict_samples_.push_back(out.record.num("dict_s"));
    }
    const Clock::time_point start = Clock::now();
    dict_ = std::make_unique<hydride::AutoLLVMDict>(
        hydride::AutoLLVMDict::build(dictIsas()));
    dict_samples_.push_back(secondsSince(start));
}

std::vector<Item>
Bench::passItems() const
{
    if (args_.workload != "warm")
        return draw_.items;
    std::vector<Item> items;
    for (const Item &item : draw_.items) {
        items.push_back(item);
        Item variant = item;
        variant.unroll = 2;
        variant.tile = 16;
        items.push_back(variant);
    }
    return items;
}

void
Bench::fillStore()
{
    if (args_.workload == "cold")
        return;
    const Clock::time_point start = Clock::now();
    const std::string snapshot = work_.sub("snapshot");
    fs::create_directories(snapshot);
    for (size_t i = 0; i < draw_.items.size(); ++i) {
        if (!draw_.in_store[i])
            continue;
        // A fill compile that dies leaves its windows out of the
        // store; the timed pass then compiles them cold.
        ChildOutcome out = runIsolated(
            [&] { return compileItem(*dict_, draw_.items[i], snapshot); },
            kChildTimeoutSeconds);
        if (interrupted())
            throw std::runtime_error("interrupted");
        if (!out.reported) {
            fill_failures_.push_back(draw_.items[i].label() + ": " +
                                     (out.timed_out ? "killed on timeout"
                                                    : "signal " +
                                                          std::to_string(
                                                              out.signal)));
        }
    }
    fill_seconds_ = secondsSince(start);
}

std::string
Bench::freshStore(const std::string &name)
{
    if (args_.workload == "cold")
        return "";
    const std::string path = work_.sub(name);
    fs::remove_all(path);
    fs::copy(work_.sub("snapshot"), path, fs::copy_options::recursive);
    return path;
}

std::vector<Attempt>
Bench::timedLoop(double seconds)
{
    // Whole passes over the draw, as many as --seconds holds at the
    // nominal pass length: every run measures the same compiles, so a
    // faster compiler finishes sooner rather than doing more work.
    const int passes =
        std::max(1, static_cast<int>(std::lround(seconds / passSeconds(args_.workload))));
    const std::vector<Item> items = passItems();
    std::vector<Attempt> attempts;
    for (int pass = 0; pass < passes; ++pass) {
        const std::string store = freshStore("store");
        for (const Item &item : items) {
            const bool crash = timed_index_++ == args_.inject_crash;
            Attempt attempt;
            attempt.item = item;
            attempt.pass = pass;
            attempt.outcome = runIsolated(
                [&] {
                    if (crash)
                        std::raise(SIGSEGV);
                    return compileItem(*dict_, item, store);
                },
                kChildTimeoutSeconds);
            if (interrupted())
                throw std::runtime_error("interrupted");
            classify(attempt);
            attempts.push_back(std::move(attempt));
        }
    }
    return attempts;
}

std::vector<Attempt>
Bench::tracedLoop(const std::vector<Attempt> &untraced)
{
    std::vector<Attempt> traced;
    std::string store;
    int pass = -1;
    for (size_t i = 0; i < untraced.size(); ++i) {
        if (untraced[i].pass != pass) {
            pass = untraced[i].pass;
            store = freshStore("traced_store");
        }
        Attempt attempt;
        attempt.item = untraced[i].item;
        attempt.pass = pass;
        const int kernel_id = static_cast<int>(i);
        attempt.outcome = runIsolated(
            [&] { return tracedItem(*dict_, attempt.item, store, kernel_id); },
            kChildTimeoutSeconds);
        if (interrupted())
            throw std::runtime_error("interrupted");
        classify(attempt);
        traced.push_back(std::move(attempt));
    }
    return traced;
}

std::vector<Metric>
Bench::endToEnd(const std::vector<Attempt> &attempts) const
{
    std::vector<double> compile_ms;
    double busy_ms = 0.0;
    double log_speedup = 0.0;
    int validated = 0;
    int succeeded = 0;
    double peak_rss = 0.0;
    for (const Attempt &attempt : attempts) {
        const ChildOutcome &out = attempt.outcome;
        peak_rss = std::max(peak_rss, out.max_rss_mb);
        if (out.reported && out.record.has("compile_ms")) {
            compile_ms.push_back(out.record.num("compile_ms"));
            busy_ms += out.record.num("total_ms");
        } else {
            busy_ms += out.wall_ms;
        }
        if (attempt.failed)
            continue;
        ++succeeded;
        if (out.record.has("speedup")) {
            log_speedup += std::log(out.record.num("speedup"));
            ++validated;
        }
    }
    std::sort(compile_ms.begin(), compile_ms.end());
    const size_t n = compile_ms.size();
    // The tail is the highest percentile with at least ten compiles
    // beyond it. Below 21 compiles that percentile is at or under the
    // median, so the maximum stands in for it.
    double tail = n ? compile_ms.back() : 0.0;
    std::string tail_note = "max of " + std::to_string(n) +
                            " compiles (fewer than 21)";
    if (n >= 21) {
        tail = compile_ms[n - 11];
        tail_note = "p" + std::to_string(100 * (n - 10) / n) + " of " +
                    std::to_string(n) + " compiles, 10 beyond it";
    }
    const double attempted = static_cast<double>(attempts.size());
    return {
        {"setup_s", median(dict_samples_) + fill_seconds_, "s",
         "median of " + std::to_string(dict_samples_.size()) +
             " dictionary builds + store fill " + jsonNumber(fill_seconds_) +
             " s"},
        {"kernels_per_s", busy_ms > 0 ? succeeded * 1e3 / busy_ms : 0.0,
         "1/s",
         std::to_string(succeeded) + " ok compiles over " +
             jsonNumber(busy_ms / 1e3) + " s of compile wall time, draw of " +
             std::to_string(draw_.items.size())},
        {"compile_ms.p50", median(compile_ms), "ms",
         std::to_string(n) + " compiles"},
        {"compile_ms.tail", tail, "ms", tail_note + "; report only", false},
        {"speedup_vs_prod", validated ? std::exp(log_speedup / validated) : 0.0,
         "x", "geomean over " + std::to_string(validated) +
                  " validated compiles"},
        {"success_share", attempted > 0 ? succeeded / attempted : 0.0,
         "ratio", "failed_share " +
                      jsonNumber(attempted > 0
                                     ? (attempted - succeeded) / attempted
                                     : 0.0)},
        {"peak_rss_mb", peak_rss, "MB", "largest compiling child"},
    };
}

/** One span as a traced child reports it (compile.cpp, Spans). */
struct SpanLine
{
    long id = 0;
    long parent = -1;
    long kernel = -1;
    long long start_ns = 0;
    long long end_ns = 0;
    std::string name;
};

std::vector<SpanLine>
spansOf(const Record &record)
{
    std::vector<SpanLine> spans;
    for (const std::string &key : record.keys("span.")) {
        SpanLine span;
        span.id = std::strtol(key.c_str() + 5, nullptr, 10);
        char name[128] = {};
        if (std::sscanf(record.str(key).c_str(),
                        "%ld %ld %lld %lld %127s", &span.parent, &span.kernel,
                        &span.start_ns, &span.end_ns, name) == 5) {
            span.name = name;
            spans.push_back(span);
        }
    }
    return spans;
}

/** Per-name totals and self times over a set of spans. */
struct SpanTotals
{
    std::map<std::string, double> total_ms;
    std::map<std::string, double> self_ms;
    std::map<std::string, int> calls;

    void add(const Record &record)
    {
        // Span ids are indices in open order, so a parent id indexes
        // the same vector.
        const std::vector<SpanLine> spans = spansOf(record);
        std::vector<double> child_ms(spans.size(), 0.0);
        for (const SpanLine &span : spans) {
            if (span.parent >= 0 &&
                static_cast<size_t>(span.parent) < spans.size()) {
                child_ms[span.parent] += (span.end_ns - span.start_ns) / 1e6;
            }
        }
        for (size_t i = 0; i < spans.size(); ++i) {
            const double ms = (spans[i].end_ns - spans[i].start_ns) / 1e6;
            total_ms[spans[i].name] += ms;
            self_ms[spans[i].name] += ms - child_ms[i];
            calls[spans[i].name] += 1;
        }
    }
};

std::vector<Metric>
Bench::perLayer(const std::vector<Attempt> &untraced,
                const std::vector<Attempt> &traced)
{
    SpanTotals spans;
    spans.add(setup_trace_);
    std::map<std::string, double> counts;
    auto addCounts = [&counts](const Record &record) {
        for (const auto &[key, value] : record.numbers("count."))
            counts[key.substr(6)] += value;
    };
    addCounts(setup_trace_);
    for (const Attempt &attempt : traced) {
        spans.add(attempt.outcome.record);
        addCounts(attempt.outcome.record);
    }
    // The overhead compares only compiles that finished in both runs:
    // a child that crashed in one of them reported nothing there.
    double traced_total = 0.0;
    double untraced_total = 0.0;
    int paired = 0;
    int untraced_reported = 0;
    int traced_reported = 0;
    std::map<std::string, double> untraced_rungs;
    for (size_t i = 0; i < untraced.size(); ++i) {
        const ChildOutcome &plain = untraced[i].outcome;
        const ChildOutcome &spanned = traced[i].outcome;
        untraced_reported += plain.reported;
        traced_reported += spanned.reported;
        for (const auto &[key, value] : plain.record.numbers("rung."))
            untraced_rungs[key.substr(5)] += value;
        if (!plain.reported || !spanned.reported)
            continue;
        ++paired;
        untraced_total += plain.record.num("total_ms");
        SpanTotals one;
        one.add(spanned.record);
        traced_total += one.total_ms["driver.kernel"];
    }

    std::cout << "\n--- spans (traced run) ---\n";
    std::printf("%-28s %8s %12s %12s\n", "span", "calls", "total_ms",
                "self_ms");
    for (const auto &[name, total] : spans.total_ms) {
        std::printf("%-28s %8d %12.3f %12.3f\n", name.c_str(),
                    spans.calls[name], total, spans.self_ms[name]);
    }

    auto ms = [&spans](const char *name) { return spans.total_ms[name]; };
    const double calls = counts["synthesis.cegis.calls"];
    std::vector<Metric> out = {
        {"specs.semantics_ms", ms("specs.semantics"), "ms", ""},
        {"specs.instructions", counts["specs.instructions"], "count", ""},
        {"similarity.engine_ms", ms("similarity.engine"), "ms", ""},
        {"similarity.pairs_checked", counts["similarity.pairs_checked"],
         "count", ""},
        {"similarity.classes", counts["similarity.classes"], "count", ""},
        {"autollvm.dict_ms", ms("autollvm.dict"), "ms", ""},
        {"halide.split_ms", ms("halide.split"), "ms", ""},
        {"halide.pieces", counts["halide.pieces"], "count", ""},
        {"synthesis.cache.lookup_ms", ms("synthesis.cache.lookup"), "ms", ""},
        {"synthesis.cache.insert_ms", ms("synthesis.cache.insert"), "ms", ""},
        {"synthesis.cache.hits", counts["synthesis.cache.hits"], "count", ""},
        {"synthesis.cache.misses", counts["synthesis.cache.misses"], "count",
         ""},
        {"synthesis.store.open_ms", ms("synthesis.store.open"), "ms", ""},
        {"synthesis.store.find_ms", ms("synthesis.store.find"), "ms", ""},
        {"synthesis.store.hits", counts["synthesis.store.hits"], "count", ""},
        {"synthesis.store.negatives", counts["synthesis.store.negatives"],
         "count", ""},
        {"synthesis.store.nearest_ms", ms("synthesis.store.nearest"), "ms",
         ""},
        {"synthesis.store.seeds", counts["synthesis.store.seeds"], "count",
         ""},
        {"synthesis.store.append_ms", ms("synthesis.store.append"), "ms", ""},
        {"synthesis.store.appends", counts["synthesis.store.appends"],
         "count", ""},
        {"analysis.symbolic.verify_ms", ms("analysis.symbolic.verify"), "ms",
         ""},
        {"analysis.symbolic.proved", counts["analysis.symbolic.proved"],
         "count", ""},
        {"analysis.symbolic.unknown", counts["analysis.symbolic.unknown"],
         "count", ""},
        {"analysis.symbolic.refuted", counts["analysis.symbolic.refuted"],
         "count", ""},
        {"synthesis.cegis.calls", calls, "count", ""},
        {"synthesis.cegis.ms", ms("synthesis.cegis"), "ms", ""},
        {"synthesis.cegis.failed_ms", counts["synthesis.cegis.failed_ms"],
         "ms", ""},
        {"synthesis.cegis.deadline_hits",
         counts["synthesis.cegis.deadline_hits"], "count", ""},
        {"synthesis.cegis.retries", counts["synthesis.cegis.retries"],
         "count", ""},
        {"synthesis.cegis.iterations", counts["synthesis.cegis.iterations"],
         "count", ""},
        {"synthesis.cegis.candidates_rejected",
         counts["synthesis.cegis.candidates_rejected"], "count", ""},
        {"synthesis.cegis.candidates_rejected_static",
         counts["synthesis.cegis.candidates_rejected_static"], "count", ""},
        {"synthesis.cegis.warm_started",
         counts["synthesis.cegis.warm_started"], "count", ""},
        {"synthesis.cegis.ok_ratio",
         calls > 0 ? counts["synthesis.cegis.ok"] / calls : 0.0, "ratio",
         ""},
        {"codegen.lowering.ms", ms("codegen.lowering"), "ms", ""},
        {"codegen.lowering.failures", counts["codegen.lowering.failures"],
         "count", ""},
        {"codegen.macro_expand.ms", ms("codegen.macro_expand"), "ms", ""},
        {"codegen.macro_expand.calls", counts["codegen.macro_expand.calls"],
         "count", ""},
    };
    for (const char *rung : {"synthesized", "cached", "macro_expanded",
                             "scalarized", "failed"}) {
        out.push_back({std::string("driver.rung.") + rung,
                       untraced_rungs[rung], "count", "untraced run"});
    }
    out.push_back({"driver.recovered", counts["driver.recovered"], "count",
                   "stages that threw and fell to the next rung (traced)"});
    out.push_back({"driver.self_ms",
                   spans.self_ms["driver.kernel"] +
                       spans.self_ms["driver.window"],
                   "ms", ""});
    for (const char *rung : {"synthesized", "cached", "macro_expanded",
                             "scalarized", "failed"}) {
        out.push_back({std::string("trace.rung.") + rung,
                       counts[std::string("trace.rung.") + rung], "count",
                       "traced run"});
    }
    out.push_back({"backends.validate_ms", ms("backends.validate"), "ms", ""});
    out.push_back({"backends.simulate_ms", ms("backends.simulate"), "ms", ""});
    out.push_back({"trace.overhead_ms", traced_total - untraced_total, "ms",
                   "traced " + jsonNumber(traced_total) + " ms - untraced " +
                       jsonNumber(untraced_total) + " ms over " +
                       std::to_string(paired) +
                       " compiles that finished in both runs"});

    std::cout << "\n--- rungs: untraced (" << untraced_reported
              << " compiles reported) vs traced (" << traced_reported
              << ") ---\n";
    for (const char *rung : {"synthesized", "cached", "macro_expanded",
                             "scalarized", "failed"}) {
        std::printf("%-16s %6.0f %6.0f\n", rung, untraced_rungs[rung],
                    counts[std::string("trace.rung.") + rung]);
    }
    return out;
}

void
Bench::printAttempts(const std::vector<Attempt> &attempts) const
{
    std::cout << "\n--- timed compiles (untraced): " << attempts.size()
              << " ---\n";
    for (const Attempt &attempt : attempts) {
        const Record &rec = attempt.outcome.record;
        std::printf("  pass %d %-40s %10.1f ms  %s\n", attempt.pass,
                    attempt.item.label().c_str(),
                    attempt.outcome.reported ? rec.num("compile_ms")
                                             : attempt.outcome.wall_ms,
                    attempt.failed ? ("FAILED: " + attempt.why).c_str()
                                   : "ok");
    }
}

void
Bench::writeSpans(const std::vector<Attempt> &traced) const
{
    const std::string path = args_.work_dir + "/spans-" + args_.workload +
                             "-seed" + std::to_string(args_.seed) + ".json";
    std::ofstream out(path);
    out << "[\n";
    bool first = true;
    auto dump = [&](const Record &record) {
        for (const SpanLine &span : spansOf(record)) {
            out << (first ? "" : ",\n") << "{\"name\": \"" << span.name
                << "\", \"id\": " << span.id << ", \"parent\": "
                << span.parent << ", \"kernel\": " << span.kernel
                << ", \"start_ns\": " << span.start_ns
                << ", \"end_ns\": " << span.end_ns << "}";
            first = false;
        }
    };
    dump(setup_trace_);
    for (const Attempt &attempt : traced)
        dump(attempt.outcome.record);
    out << "\n]\n";
    std::cout << "spans written to " << path << "\n";
}

int
Bench::run()
{
    printDraw(args_, draw_);
    buildDictionary();
    fillStore();
    const double setup_wall_s = secondsSince(g_process_start);
    std::cout << "set-up: dictionary builds";
    for (double s : dict_samples_)
        std::cout << " " << jsonNumber(s) << " s";
    std::cout << "; store fill " << jsonNumber(fill_seconds_)
              << " s; process start to first timed compile "
              << jsonNumber(setup_wall_s) << " s\n";
    for (const std::string &failure : fill_failures_)
        std::cout << "  fill child died: " << failure << "\n";

    const double untraced_seconds =
        args_.trace == 1 ? args_.seconds / 2 : args_.seconds;
    const std::vector<Attempt> attempts = timedLoop(untraced_seconds);
    printAttempts(attempts);

    int failed = 0;
    int mismatched = 0;
    std::cout << "\n--- failures ---\n";
    for (const Attempt &attempt : attempts) {
        if (!attempt.failed)
            continue;
        ++failed;
        mismatched += attempt.outcome.reported &&
                      attempt.outcome.record.num("all_compiled") != 0 &&
                      attempt.outcome.record.num("valid") == 0;
        std::cout << "  " << attempt.item.kernel << " on "
                  << targets()[attempt.item.target].name << ": "
                  << attempt.why << "\n";
    }
    if (failed == 0)
        std::cout << "  none\n";

    std::vector<Metric> metrics = endToEnd(attempts);
    std::cout << "\n--- end-to-end metrics ---\n";
    for (const Metric &metric : metrics) {
        std::printf("%-18s %14.6f %-5s %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str(), metric.note.c_str());
    }
    if (args_.trace == 1) {
        const std::vector<Attempt> traced = tracedLoop(attempts);
        metrics = perLayer(attempts, traced);
        std::cout << "\n--- per-layer metrics ---\n";
        for (const Metric &metric : metrics) {
            std::printf("%-44s %16.6f %-5s %s\n", metric.name.c_str(),
                        metric.value, metric.unit.c_str(),
                        metric.note.c_str());
        }
        writeSpans(traced);
    }

    // Failed compiles are counted in `failed`; wrong output makes the
    // whole run incorrect.
    const bool correct = !attempts.empty() && mismatched == 0;
    std::string json = "{\"correct\": " +
                       std::string(correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempts.size()) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    const char *separator = "";
    for (const Metric &metric : metrics) {
        if (!metric.in_json)
            continue;
        json += separator + std::string("\"") + jsonEscape(metric.name) +
                "\": {\"value\": " + jsonNumber(metric.value) +
                ", \"unit\": \"" + jsonEscape(metric.unit) + "\"}";
        separator = ", ";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    installInterruptHandlers();
    if (args.print_draw) {
        printDraw(args, makeDraw(args));
        return 0;
    }
    try {
        Bench bench(args);
        return bench.run();
    } catch (const std::exception &err) {
        std::cerr << "hydride_perfbench: " << err.what() << "\n";
        return interrupted() ? 2 : 1;
    }
}
