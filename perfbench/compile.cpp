/**
 * @file
 * What one forked child does: compile a drawn item (untraced, through
 * the resilient driver) or walk it through each layer's public calls
 * with spans (traced), then check the output against the Halide
 * interpreter and simulate it.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <optional>
#include <stdexcept>

#include "analysis/symbolic/ir_equiv.h"
#include "backends/backends.h"
#include "backends/simulator.h"
#include "bench.h"
#include "codegen/lowering.h"
#include "similarity/engine.h"
#include "specs/spec_db.h"
#include "support/rng.h"
#include "support/timing.h"

namespace perfbench {

using namespace hydride;

const std::vector<Target> &
targets()
{
    // ISAs and widths are fixed here, so a draw names the same targets
    // on every commit; the simulator constants are the program's own.
    static const std::vector<Target> all = [] {
        const std::pair<const char *, int> fixed[] = {
            {"x86", 512}, {"hvx", 1024}, {"arm", 128}, {"x86", 256}};
        std::vector<Target> out;
        for (const auto &[isa, bits] : fixed) {
            const auto &evaluated = evaluationTargets();
            auto desc = std::find_if(
                evaluated.begin(), evaluated.end(),
                [isa = isa](const TargetDesc &d) { return d.isa == isa; });
            if (desc == evaluated.end())
                throw std::runtime_error(std::string("no target ") + isa);
            out.push_back(
                {isa + std::to_string(bits), isa, bits, desc->sim});
        }
        return out;
    }();
    return all;
}

const std::vector<std::string> &
dictIsas()
{
    static const std::vector<std::string> isas = {"x86", "hvx", "arm"};
    return isas;
}

Schedule
Item::schedule() const
{
    Schedule schedule;
    schedule.vector_bits = targets()[target].vector_bits;
    schedule.unroll = unroll;
    schedule.tile = tile;
    return schedule;
}

std::string
Item::label() const
{
    return kernel + "/" + targets()[target].name + "/u" +
           std::to_string(unroll) + "t" + std::to_string(tile);
}

ResilienceOptions
benchOptions(const std::string &store_path)
{
    ResilienceOptions options;
    options.synthesis.timeout_seconds = 2.0;
    options.store_path = store_path;
    return options;
}

namespace {

/** In-memory spans of one traced child, shipped in its record. */
class Spans
{
  public:
    explicit Spans(int kernel_id) : kernel_id_(kernel_id) {}

    /** Closes its span when it goes out of scope. */
    class Scope
    {
      public:
        Scope(Spans &spans, const char *name) : spans_(spans)
        {
            index_ = spans_.open(name);
        }
        ~Scope() { spans_.close(index_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Spans &spans_;
        size_t index_;
    };

    void count(const std::string &name, double value = 1.0)
    {
        counts_[name] += value;
    }

    void write(Record &record) const
    {
        char key[32];
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            std::snprintf(key, sizeof key, "span.%06zu", i);
            record.set(key, std::to_string(span.parent) + " " +
                                std::to_string(kernel_id_) + " " +
                                std::to_string(span.start_ns) + " " +
                                std::to_string(span.end_ns) + " " +
                                span.name);
        }
        for (const auto &[name, value] : counts_)
            record.set("count." + name, value);
    }

  private:
    struct Span
    {
        std::string name;
        long parent;
        long long start_ns;
        long long end_ns;
    };

    static long long now()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    size_t open(const char *name)
    {
        const long parent =
            stack_.empty() ? -1 : static_cast<long>(stack_.back());
        spans_.push_back({name, parent, now(), 0});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void close(size_t index)
    {
        spans_[index].end_ns = now();
        stack_.pop_back();
    }

    int kernel_id_;
    std::vector<Span> spans_;
    std::vector<size_t> stack_;
    std::map<std::string, double> counts_;
};

/** Input index -> bit width of a window's Input leaves. */
void
collectInputWidths(const HExprPtr &expr, std::map<int, int> &widths)
{
    if (expr->op == HOp::Input)
        widths[static_cast<int>(expr->imm)] = expr->totalWidth();
    for (const auto &kid : expr->kids)
        collectInputWidths(kid, widths);
}

/**
 * Chain each original window's compiled pieces on random inputs and
 * compare the last piece's output with evalHalide on the *original*
 * window, so the check does not trust the compiler's own split.
 */
bool
matchesOriginalWindows(const AutoLLVMDict &dict,
                       const CompiledKernel &compiled, const Kernel &kernel)
{
    Rng rng(0xBE7C4u);
    for (size_t group = 0; group < kernel.windows.size(); ++group) {
        const HExprPtr &window = kernel.windows[group];
        std::map<int, int> widths;
        collectInputWidths(window, widths);
        // Cut points are numbered from halideInputCount, as splitWindow
        // numbers them.
        const size_t first_cut = static_cast<size_t>(halideInputCount(window));
        const size_t inputs = std::max(
            first_cut,
            widths.empty() ? size_t(0) : size_t(widths.rbegin()->first) + 1);
        for (int trial = 0; trial < 3; ++trial) {
            std::vector<BitVector> pool(inputs, BitVector(1));
            for (const auto &[index, width] : widths)
                pool[index] = BitVector::random(std::max(width, 1), rng);
            const std::vector<BitVector> originals = pool;
            size_t next_cut = first_cut;
            BitVector last(1);
            bool any = false;
            for (size_t q = 0; q < compiled.programs.size(); ++q) {
                if (compiled.groups[q] != static_cast<int>(group))
                    continue;
                const TargetProgram &program = compiled.programs[q];
                if (program.input_widths.size() > pool.size())
                    return false;
                // A piece's program also declares the inputs it does not
                // read, possibly at another width; those get zeros.
                std::vector<BitVector> args;
                for (size_t i = 0; i < program.input_widths.size(); ++i) {
                    const int width = std::max(program.input_widths[i], 1);
                    args.push_back(pool[i].width() == width ? pool[i]
                                                            : BitVector(width));
                }
                last = program.evaluate(dict, args);
                any = true;
                if (pool.size() <= next_cut)
                    pool.resize(next_cut + 1, BitVector(1));
                pool[next_cut++] = last;
            }
            if (!any || last != evalHalide(window, originals))
                return false;
        }
    }
    return true;
}

/**
 * Check a compiled kernel and, when it passes, simulate it against
 * the production-Halide-style baseline: sets "valid" (and
 * "validate_error" when the checker threw) and, when valid, "speedup".
 * With `spans`, both steps are timed in spans.
 */
void
checkAndSimulate(const AutoLLVMDict &dict, const Item &item,
                 const Kernel &kernel, const CompiledKernel &compiled,
                 Record &record, Spans *spans)
{
    const Target &target = targets()[item.target];
    bool valid = false;
    {
        std::optional<Spans::Scope> scope;
        if (spans)
            scope.emplace(*spans, "backends.validate");
        try {
            valid = validateCompiled(dict, compiled, kernel) &&
                    matchesOriginalWindows(dict, compiled, kernel);
        } catch (const std::exception &err) {
            record.set("validate_error", err.what());
        }
    }
    record.set("valid", valid ? 1.0 : 0.0);
    if (!valid)
        return;
    std::optional<Spans::Scope> scope;
    if (spans)
        scope.emplace(*spans, "backends.simulate");
    const double hyd = simulateCycles(compiled, kernel, target.sim);
    HalideProdBackend prod(dict, target.isa, target.vector_bits);
    CompiledKernel baseline;
    if (prod.compile(kernel, baseline) && hyd > 0)
        record.set("speedup", simulateCycles(baseline, kernel, target.sim) / hyd);
}

/**
 * Trust-but-verify for a store hit, as the driver does it: symbolic
 * equivalence first, concrete vectors when the verdict is unknown.
 */
bool
verifyStored(const AutoLLVMDict &dict, const SynthesisResult &stored,
             const HExprPtr &piece, const ResilienceOptions &options,
             Spans &spans)
{
    const sym::EqResult eq = sym::checkModuleEquiv(
        dict, stored.module, piece, options.synthesis.symbolic_budget);
    if (eq.verdict == sym::Verdict::Proved) {
        spans.count("analysis.symbolic.proved");
        return true;
    }
    if (eq.verdict == sym::Verdict::Refuted) {
        spans.count("analysis.symbolic.refuted");
        return false;
    }
    spans.count("analysis.symbolic.unknown");
    Rng rng(0x570F3u ^ HExpr::hashOf(piece));
    for (int v = 0; v < options.store_verify_vectors; ++v) {
        std::vector<BitVector> inputs;
        for (int width : stored.module.input_widths)
            inputs.push_back(BitVector::random(std::max(width, 1), rng));
        if (stored.module.evaluate(dict, inputs) != evalHalide(piece, inputs))
            return false;
    }
    return true;
}

/** One synthesizeWindow call in a span, with its work counters. */
SynthesisResult
tracedCegis(const AutoLLVMDict &dict, const std::string &isa,
            const HExprPtr &piece, const SynthesisOptions &options,
            Spans &spans)
{
    Stopwatch watch;
    SynthesisResult result;
    {
        Spans::Scope call(spans, "synthesis.cegis");
        result = synthesizeWindow(dict, isa, piece, options);
    }
    const double ms = watch.millis();
    spans.count("synthesis.cegis.calls");
    spans.count("synthesis.cegis.iterations", result.cegis_iterations);
    spans.count("synthesis.cegis.candidates_rejected",
                static_cast<double>(result.candidates_rejected));
    spans.count("synthesis.cegis.candidates_rejected_static",
                static_cast<double>(result.candidates_rejected_static));
    if (result.warm_started)
        spans.count("synthesis.cegis.warm_started");
    if (result.note.find("timeout") != std::string::npos)
        spans.count("synthesis.cegis.deadline_hits");
    if (result.ok)
        spans.count("synthesis.cegis.ok");
    else
        spans.count("synthesis.cegis.failed_ms", ms);
    return result;
}

bool
compiledRung(Rung rung)
{
    return rung == Rung::Synthesized || rung == Rung::Cached ||
           rung == Rung::MacroExpanded;
}

/**
 * ResilientCompiler's window sequence, one public call per span: the
 * constructor opens the store and builds the macro expander, and
 * compileWindow() walks tryPrimary(), tryMacro() and the Scalarized
 * rung with the driver's recovery scopes.
 */
class TracedDriver
{
  public:
    TracedDriver(const AutoLLVMDict &dict, const Target &target,
                 const ResilienceOptions &options, Spans &spans)
        : dict_(dict), target_(target), options_(options), spans_(spans),
          fallback_(dict, target.isa, target.vector_bits)
    {
        if (!options_.store_path.empty()) {
            Spans::Scope scope(spans_, "synthesis.store.open");
            store_.open(options_.store_path, dict_, options_.store);
        }
    }

    Rung compileWindow(const HExprPtr &piece, TargetProgram &program)
    {
        Spans::Scope scope(spans_, "driver.window");
        Rung rung = Rung::Failed;
        // A stage that throws falls through to the next rung, as in
        // the driver's barrier().
        try {
            rung = primary(piece, program);
        } catch (const std::exception &) {
            spans_.count("driver.recovered");
            rung = Rung::Failed;
        }
        if (rung == Rung::Failed) {
            rung = Rung::Scalarized;
            try {
                ExpandResult expanded;
                {
                    Spans::Scope expand(spans_, "codegen.macro_expand");
                    expanded = fallback_.expand(piece);
                }
                spans_.count("codegen.macro_expand.calls");
                if (expanded.ok) {
                    rung = Rung::MacroExpanded;
                    program = std::move(expanded.program);
                }
            } catch (const std::exception &) {
                spans_.count("driver.recovered");
            }
        }
        if (rung == Rung::Scalarized)
            program = TargetProgram{};
        spans_.count(std::string("trace.rung.") + rungName(rung));
        return rung;
    }

  private:
    /** tryPrimary(): the Synthesized and Cached rungs, or Failed. */
    Rung primary(const HExprPtr &piece, TargetProgram &program)
    {
        const std::string &isa = target_.isa;
        const SynthesisResult *cached = nullptr;
        {
            Spans::Scope lookup(spans_, "synthesis.cache.lookup");
            cached = cache_.lookup(piece, isa);
        }
        spans_.count(cached ? "synthesis.cache.hits"
                            : "synthesis.cache.misses");
        if (cached) {
            // A hit that does not lower and a negative entry both go
            // to macro expansion.
            return cached->ok && lower(*cached, program) ? Rung::Cached
                                                         : Rung::Failed;
        }
        if (store_.isOpen()) {
            const SynthesisResult *stored = nullptr;
            {
                Spans::Scope find(spans_, "synthesis.store.find");
                stored = store_.find(piece, isa);
            }
            if (stored && !stored->ok) {
                spans_.count("synthesis.store.negatives");
                cache_.insertByKey({HExpr::hashOf(piece), isa}, *stored);
                return Rung::Failed;
            }
            if (stored) {
                spans_.count("synthesis.store.hits");
                bool trusted = false;
                {
                    Spans::Scope verify(spans_, "analysis.symbolic.verify");
                    trusted = verifyStored(dict_, *stored, piece, options_,
                                           spans_);
                }
                // A hit that does not verify or lower falls through to
                // synthesis.
                if (!trusted) {
                    store_.quarantine(piece, isa, "refuted");
                } else if (lower(*stored, program)) {
                    cache_.insertByKey({HExpr::hashOf(piece), isa}, *stored);
                    return Rung::Cached;
                }
            }
        }

        SynthesisOptions synth_options = options_.synthesis;
        if (store_.isOpen() && options_.store_neighbor_distance >= 0) {
            Spans::Scope nearest(spans_, "synthesis.store.nearest");
            for (const auto &neighbor : store_.nearest(
                     piece, isa, options_.store_neighbor_distance,
                     static_cast<size_t>(
                         std::max(options_.store_neighbor_limit, 0)))) {
                synth_options.warm_seeds.push_back(neighbor.result->module);
            }
        }
        spans_.count("synthesis.store.seeds",
                     static_cast<double>(synth_options.warm_seeds.size()));
        SynthesisResult synth =
            tracedCegis(dict_, isa, piece, synth_options, spans_);
        if (!synth.ok && synth.note.rfind("timeout", 0) == 0 &&
            options_.retry_escalated) {
            SynthesisOptions escalated = options_.synthesis;
            escalated.timeout_seconds *= options_.timeout_escalation;
            escalated.symbolic_budget.max_nodes = static_cast<size_t>(
                escalated.symbolic_budget.max_nodes *
                options_.budget_escalation);
            escalated.symbolic_budget.max_conflicts = static_cast<long>(
                escalated.symbolic_budget.max_conflicts *
                options_.budget_escalation);
            spans_.count("synthesis.cegis.retries");
            SynthesisResult retried =
                tracedCegis(dict_, isa, piece, escalated, spans_);
            if (retried.ok)
                synth = std::move(retried);
        }
        {
            Spans::Scope insert(spans_, "synthesis.cache.insert");
            cache_.insert(piece, isa, synth);
        }
        if (store_.isOpen()) {
            Spans::Scope append(spans_, "synthesis.store.append");
            store_.append(piece, isa, synth);
            spans_.count("synthesis.store.appends");
        }
        return synth.ok && lower(synth, program) ? Rung::Synthesized
                                                 : Rung::Failed;
    }

    bool lower(const SynthesisResult &result, TargetProgram &program)
    {
        LoweringResult lowered;
        {
            Spans::Scope scope(spans_, "codegen.lowering");
            lowered = lowerToTarget(result.module, dict_, target_.isa);
        }
        if (!lowered.ok) {
            spans_.count("codegen.lowering.failures");
            return false;
        }
        program = std::move(lowered.program);
        return true;
    }

    const AutoLLVMDict &dict_;
    const Target &target_;
    const ResilienceOptions &options_;
    Spans &spans_;
    SynthesisCache cache_;
    SynthesisStore store_;
    MacroExpander fallback_;
};

} // namespace

Record
compileItem(const AutoLLVMDict &dict, const Item &item,
            const std::string &store_path)
{
    const Target &target = targets()[item.target];
    const Kernel kernel = buildKernel(item.kernel, item.schedule());
    Record record;

    Stopwatch total;
    SynthesisCache cache;
    ResilientCompiler compiler(dict, target.isa, target.vector_bits,
                               benchOptions(store_path), &cache);
    Stopwatch watch;
    ResilientCompilation compiled = compiler.compile(kernel);
    record.set("compile_ms", watch.millis());
    record.set("total_ms", total.millis());

    bool all_compiled = true;
    std::map<std::string, double> rungs;
    for (const ResilientWindow &window : compiled.windows) {
        rungs[rungName(window.rung)] += 1;
        all_compiled = all_compiled && compiledRung(window.rung);
    }
    for (const auto &[rung, count] : rungs)
        record.set(std::string("rung.") + rung, count);
    record.set("all_compiled", all_compiled ? 1.0 : 0.0);
    if (!all_compiled)
        return record;

    CompiledKernel out;
    out.backend = "hydride";
    out.kernel = kernel.name;
    out.isa = target.isa;
    for (ResilientWindow &window : compiled.windows)
        out.programs.push_back(std::move(window.program));
    out.windows = compiled.pieces;
    out.groups = compiled.piece_group;
    checkAndSimulate(dict, item, kernel, out, record, nullptr);
    return record;
}

Record
tracedItem(const AutoLLVMDict &dict, const Item &item,
           const std::string &store_path, int kernel_id)
{
    const Target &target = targets()[item.target];
    const Kernel kernel = buildKernel(item.kernel, item.schedule());
    const ResilienceOptions options = benchOptions(store_path);
    Spans spans(kernel_id);
    Record record;

    CompiledKernel out;
    out.backend = "hydride";
    out.kernel = kernel.name;
    out.isa = target.isa;
    bool all_compiled = true;
    {
        Spans::Scope scope(spans, "driver.kernel");
        TracedDriver driver(dict, target, options, spans);
        for (size_t w = 0; w < kernel.windows.size(); ++w) {
            const HExprPtr &window = kernel.windows[w];
            std::vector<HExprPtr> pieces;
            {
                Spans::Scope split(spans, "halide.split");
                pieces = splitWindow(window, options.synthesis.window_depth,
                                     halideInputCount(window),
                                     target.vector_bits);
            }
            spans.count("halide.pieces", static_cast<double>(pieces.size()));
            for (const HExprPtr &piece : pieces) {
                TargetProgram program;
                const Rung rung = driver.compileWindow(piece, program);
                all_compiled = all_compiled && compiledRung(rung);
                out.programs.push_back(std::move(program));
                out.windows.push_back(piece);
                out.groups.push_back(static_cast<int>(w));
            }
        }
    }
    if (all_compiled)
        checkAndSimulate(dict, item, kernel, out, record, &spans);
    spans.write(record);
    return record;
}

Record
tracedSetup()
{
    Spans spans(-1);
    Record record;
    std::vector<CanonicalSemantics> semantics;
    {
        Spans::Scope scope(spans, "specs.semantics");
        semantics = combinedSemantics(dictIsas());
    }
    spans.count("specs.instructions", static_cast<double>(semantics.size()));
    SimilarityStats stats;
    std::vector<EquivalenceClass> classes;
    {
        Spans::Scope scope(spans, "similarity.engine");
        classes = runSimilarityEngine(semantics, {}, &stats);
    }
    spans.count("similarity.pairs_checked",
                static_cast<double>(stats.pairs_checked));
    spans.count("similarity.classes", static_cast<double>(classes.size()));
    std::optional<AutoLLVMDict> dict;
    {
        Spans::Scope scope(spans, "autollvm.dict");
        dict.emplace(std::move(classes));
    }
    spans.write(record);
    return record;
}

} // namespace perfbench
