/**
 * @file
 * Example: compiling the paper's flagship matrix-multiply window on
 * all three targets, comparing Hydride's synthesized code against the
 * production-Halide-style and LLVM-style baselines (the Table 3
 * experience as a library user sees it).
 */
#include <iostream>

#include "backends/simulator.h"
#include "backends/targets.h"
#include "specs/spec_db.h"
#include "support/strings.h"

using namespace hydride;

int
main()
{
    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});

    for (const auto &target : evaluationTargets()) {
        std::cout << "==== " << target.name << " ====\n";
        Schedule schedule;
        schedule.vector_bits = target.vector_bits;
        Kernel kernel = buildKernel("matmul_b1", schedule);
        std::cout << "Halide IR window:\n  "
                  << printHalide(kernel.windows[0]) << "\n\n";

        ResilienceOptions options;
        options.retry_escalated = false;
        HydrideBackend hydride(dict, target.isa, target.vector_bits,
                               options);
        LlvmStyleBackend llvm(dict, target.isa, target.vector_bits);
        HalideProdBackend prod(dict, target.isa, target.vector_bits);

        CompiledKernel ch;
        CompiledKernel cl;
        CompiledKernel cp;
        const bool oh = hydride.compile(kernel, ch);
        const bool ol = llvm.compile(kernel, cl);
        const bool op = prod.compile(kernel, cp);

        if (oh) {
            std::cout << "Hydride (cost " << ch.staticCost() << ", "
                      << (validateCompiled(dict, ch, kernel) ? "verified"
                                                             : "WRONG")
                      << "):\n"
                      << ch.programs[0].print() << "\n";
        }
        if (op) {
            std::cout << "Production-Halide-style (cost "
                      << cp.staticCost() << "):\n"
                      << cp.programs[0].print() << "\n";
        }
        if (ol) {
            std::cout << "LLVM-style (cost " << cl.staticCost() << "):\n"
                      << cl.programs[0].print() << "\n";
        }
        if (oh && ol) {
            std::cout << format(
                "Simulated speedup of Hydride: %.2fx vs llvm-style, "
                "%.2fx vs halide-prod\n\n",
                simulateCycles(cl, kernel, target.sim) /
                    simulateCycles(ch, kernel, target.sim),
                simulateCycles(cp, kernel, target.sim) /
                    simulateCycles(ch, kernel, target.sim));
        }
    }
    return 0;
}
