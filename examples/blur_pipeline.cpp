/**
 * @file
 * Example: an image-processing pipeline (gaussian 5x5) compiled for
 * HVX with Hydride and *executed* through the compiled target
 * programs on real pixel data — demonstrating that the generated
 * instruction sequences are not just cheap but correct on an actual
 * workload (a synthetic gradient image with an impulse).
 */
#include <iostream>

#include "backends/simulator.h"
#include "backends/targets.h"
#include "specs/spec_db.h"
#include "support/strings.h"

using namespace hydride;

namespace {

/** Pack a row of u8 pixels into a vector register value. */
BitVector
packPixels(const std::vector<uint8_t> &pixels, int offset, int lanes)
{
    BitVector out(8 * lanes);
    for (int lane = 0; lane < lanes; ++lane)
        out.setSlice(lane * 8,
                     BitVector::fromUint(8, pixels[offset + lane]));
    return out;
}

} // namespace

int
main()
{
    const TargetDesc target = evaluationTargets()[1]; // HVX
    std::cout << "Compiling gaussian5x5 for " << target.name << "\n\n";

    AutoLLVMDict dict = AutoLLVMDict::build({"x86", "hvx", "arm"});
    Schedule schedule;
    schedule.vector_bits = target.vector_bits;
    Kernel kernel = buildKernel("gaussian5x5", schedule);

    ResilienceOptions options;
    options.retry_escalated = false;
    // Keep windows whole in this walkthrough so program 0 is exactly
    // the kernel's row window.
    options.synthesis.window_depth = 16;
    HydrideBackend hydride(dict, target.isa, target.vector_bits, options);
    CompiledKernel compiled;
    if (!hydride.compile(kernel, compiled)) {
        std::cout << "compilation failed\n";
        return 1;
    }
    std::cout << "Compiled " << compiled.programs.size()
              << " window pieces, total cost " << compiled.staticCost()
              << ", "
              << (validateCompiled(dict, compiled, kernel) ? "verified"
                                                           : "WRONG")
              << "\n\n";
    for (size_t p = 0; p < compiled.programs.size(); ++p) {
        std::cout << "piece " << p << ":\n"
                  << compiled.programs[p].print() << "\n";
    }

    // Execute the row window on synthetic pixels: a gradient with an
    // impulse in the middle, blurred by the 5-tap weighted row sum.
    const int lanes = target.vector_bits / 8;
    std::vector<uint8_t> row(lanes + 8, 0);
    for (size_t x = 0; x < row.size(); ++x)
        row[x] = static_cast<uint8_t>(x % 32);
    row[lanes / 2] = 255;

    const TargetProgram &row_program = compiled.programs[0];
    std::vector<BitVector> inputs;
    for (size_t tap = 0; tap < row_program.input_widths.size(); ++tap)
        inputs.push_back(
            packPixels(row, static_cast<int>(tap), lanes));
    BitVector blurred = row_program.evaluate(dict, inputs);

    std::cout << "input pixels around the impulse:  ";
    for (int x = lanes / 2 - 4; x < lanes / 2 + 5; ++x)
        std::cout << format("%4d", row[x]);
    std::cout << "\nrow-summed (16-bit, w=1:4:6:4:1): ";
    for (int x = lanes / 2 - 4; x < lanes / 2 + 5; ++x)
        std::cout << format("%5d", static_cast<int>(
                                       blurred.extract(x * 16, 16)
                                           .toUint64()));
    std::cout << "\n\nThe impulse spreads across neighbours with the "
                 "binomial weights - the compiled HVX code computes the "
                 "blur.\n";

    std::cout << format("\nSimulated kernel runtime: %.0f cycles\n",
                        simulateCycles(compiled, kernel, target.sim));
    return 0;
}
