/**
 * @file
 * Shared pieces of the compile benchmark (perfbench/main.cpp): the
 * seeded draw, the forked-child runner, the line-oriented records a
 * child sends back, and the traced per-layer walk.
 */
#ifndef HYDRIDE_PERFBENCH_BENCH_H
#define HYDRIDE_PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "backends/targets.h"
#include "driver/resilience.h"

namespace perfbench {

/** One compile target: an ISA at a vector width, with the simulator
 *  constants its cycles are counted with. */
struct Target
{
    std::string name;
    std::string isa;
    int vector_bits;
    hydride::SimConfig sim;
};

/** The three Figure 6 targets at their native widths (x86 512, HVX
 *  1024, ARM 128), then x86 at the 256 bits `Schedule` defaults to,
 *  each with the program's simulator constants for its ISA. */
const std::vector<Target> &targets();

/** One drawn compile: a kernel for a target under a schedule. */
struct Item
{
    std::string kernel;
    int target = 0;
    int unroll = 1;
    int tile = 8;

    hydride::Schedule schedule() const;
    std::string label() const; ///< "kernel/target/u<unroll>t<tile>"
};

/** The benchmark's synthesis options: what every bench binary passes
 *  (a 2 s CEGIS deadline), every other field at its default. */
hydride::ResilienceOptions benchOptions(const std::string &store_path);

/** A flat key -> value record, sent child -> parent as text lines. */
class Record
{
  public:
    void set(const std::string &key, double value);
    void set(const std::string &key, const std::string &value);
    double num(const std::string &key, double fallback = 0.0) const;
    std::string str(const std::string &key) const;
    bool has(const std::string &key) const;

    /** Every key starting with `prefix`, in order. */
    std::vector<std::string> keys(const std::string &prefix) const;
    /** Every key starting with `prefix`, with its numeric value. */
    std::map<std::string, double> numbers(const std::string &prefix) const;

    std::string serialize() const;
    static Record parse(const std::string &text);

  private:
    std::map<std::string, std::string> values_;
};

/** How a forked child ended. */
struct ChildOutcome
{
    Record record;        ///< What the child reported (empty if none).
    bool reported = false;
    int signal = 0;       ///< Terminating signal, 0 if it exited.
    int exit_code = 0;
    bool timed_out = false;
    double wall_ms = 0.0; ///< Fork to reap, measured by the parent.
    double max_rss_mb = 0.0;
};

/**
 * Run `work` in a forked child that inherits the parent's state (the
 * dictionary), and return what it reported. A child that crashes,
 * exits early or outlives `timeout_s` (it is then killed) comes back
 * with `reported == false`; the parent always reaps it.
 */
ChildOutcome runIsolated(const std::function<Record()> &work,
                         double timeout_s);

/** Set by SIGINT/SIGTERM; runIsolated kills its child and returns. */
bool interrupted();
void installInterruptHandlers();

/**
 * Compile `item` through `ResilientCompiler::compile` with a fresh
 * compiler and an empty in-process cache (against `store_path` when
 * it is not empty), then check and simulate the result outside the
 * timed part. Runs inside a child.
 */
Record compileItem(const hydride::AutoLLVMDict &dict, const Item &item,
                   const std::string &store_path);

/**
 * The traced run of `item`: the same window sequence the driver
 * makes, one public call at a time, each call wrapped in a span.
 * Spans come back in the record as "span.<index>" = "<parent index>
 * <kernel_id> <start ns> <end ns> <name>", counts as "count.<name>".
 * Runs inside a child.
 */
Record tracedItem(const hydride::AutoLLVMDict &dict, const Item &item,
                  const std::string &store_path, int kernel_id);

/** The traced set-up: combinedSemantics, runSimilarityEngine and the
 *  AutoLLVMDict constructor, each in a span. Runs inside a child. */
Record tracedSetup();

/** The ISAs the benchmark's dictionary covers. */
const std::vector<std::string> &dictIsas();

} // namespace perfbench

#endif // HYDRIDE_PERFBENCH_BENCH_H
