/**
 * @file
 * Solver-core tests for the symbolic equivalence engine: AIG folding
 * and budgets, the known-bits lattice, Tseitin encoding + DPLL against
 * truth tables, and a differential fuzz of checkEquiv verdicts against
 * exhaustive enumeration at small widths.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/symbolic/equiv.h"
#include "analysis/symbolic/sat.h"
#include "support/rng.h"

namespace hydride {
namespace {

using sym::Aig;
using sym::kFalseLit;
using sym::KnownBits;
using sym::kTrueLit;
using sym::Lit;
using sym::litNot;
using sym::litVar;

// ---- AIG builder --------------------------------------------------------

TEST(Aig, ConstantAndComplementFolding)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    EXPECT_EQ(aig.mkAnd(a, kFalseLit), kFalseLit);
    EXPECT_EQ(aig.mkAnd(kFalseLit, b), kFalseLit);
    EXPECT_EQ(aig.mkAnd(a, kTrueLit), a);
    EXPECT_EQ(aig.mkAnd(kTrueLit, b), b);
    EXPECT_EQ(aig.mkAnd(a, a), a);
    EXPECT_EQ(aig.mkAnd(a, litNot(a)), kFalseLit);
    EXPECT_EQ(aig.mkXor(a, a), kFalseLit);
    EXPECT_EQ(aig.mkXor(a, litNot(a)), kTrueLit);
    EXPECT_EQ(aig.mkMux(kTrueLit, a, b), a);
    EXPECT_EQ(aig.mkMux(kFalseLit, a, b), b);
}

TEST(Aig, StructuralHashingSharesGates)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    const Lit g1 = aig.mkAnd(a, b);
    const size_t nodes = aig.numNodes();
    // Same gate again — in either operand order — allocates nothing.
    EXPECT_EQ(aig.mkAnd(a, b), g1);
    EXPECT_EQ(aig.mkAnd(b, a), g1);
    EXPECT_EQ(aig.numNodes(), nodes);
    // A genuinely different gate does allocate.
    aig.mkAnd(a, litNot(b));
    EXPECT_EQ(aig.numNodes(), nodes + 1);
}

TEST(Aig, NodeBudgetOverflowIsSticky)
{
    Aig aig(/*node_budget=*/8);
    std::vector<Lit> inputs;
    for (int i = 0; i < 6; ++i)
        inputs.push_back(aig.addInput());
    Lit acc = inputs[0];
    for (int round = 0; round < 64 && !aig.overflowed(); ++round)
        for (size_t i = 1; i < inputs.size(); ++i)
            acc = aig.mkAnd(aig.mkXor(acc, inputs[i]), inputs[i - 1]);
    EXPECT_TRUE(aig.overflowed());
    // Past the budget the builder still returns well-formed literals.
    const Lit l = aig.mkAnd(acc, inputs[1]);
    EXPECT_LT(litVar(l), aig.numNodes());
    EXPECT_TRUE(aig.overflowed());
}

TEST(Aig, StructuralHashingSurvivesGrowth)
{
    // Every AND of two distinct inputs in all four polarities: ~32k
    // gates, far past the hash table's initial capacity, so it grows
    // several times. Rebuilding the same gates afterwards must find
    // every one of them again.
    Aig aig;
    std::vector<Lit> inputs;
    for (int i = 0; i < 128; ++i)
        inputs.push_back(aig.addInput());
    const auto buildAll = [&] {
        std::vector<Lit> gates;
        for (size_t i = 0; i < inputs.size(); ++i)
            for (size_t j = i + 1; j < inputs.size(); ++j)
                for (Lit polarity = 0; polarity < 4; ++polarity)
                    gates.push_back(aig.mkAnd(inputs[i] ^ (polarity & 1),
                                              inputs[j] ^ (polarity >> 1)));
        return gates;
    };
    const std::vector<Lit> first = buildAll();
    const size_t nodes = aig.numNodes();
    EXPECT_EQ(nodes, 1 + inputs.size() + first.size());
    // Operands swapped and in reverse order: still all hits.
    for (size_t g = first.size(); g-- > 0;) {
        const sym::Aig::Node &n = aig.node(litVar(first[g]));
        EXPECT_EQ(aig.mkAnd(n.b, n.a), first[g]);
    }
    EXPECT_EQ(buildAll(), first);
    EXPECT_EQ(aig.numNodes(), nodes);
    EXPECT_FALSE(aig.overflowed());

    // A budget reached after growth still overflows stickily, and the
    // gates built before it are still shared.
    Aig small(/*node_budget=*/3000);
    std::vector<Lit> small_inputs;
    for (int i = 0; i < 128; ++i)
        small_inputs.push_back(small.addInput());
    std::vector<Lit> built;
    for (size_t i = 1; i < small_inputs.size() && !small.overflowed(); ++i)
        for (size_t j = 0; j < i && !small.overflowed(); ++j)
            built.push_back(small.mkAnd(small_inputs[i], small_inputs[j]));
    EXPECT_TRUE(small.overflowed());
    EXPECT_EQ(small.numNodes(), small.nodeBudget());
    built.pop_back(); // The literal returned by the overflowing call.
    for (Lit gate : built) {
        const sym::Aig::Node &n = small.node(litVar(gate));
        EXPECT_EQ(small.mkAnd(n.a, n.b), gate);
    }
    EXPECT_EQ(small.numNodes(), small.nodeBudget());
    EXPECT_TRUE(small.overflowed());
}

TEST(Aig, EvalLitMatchesTruthTable)
{
    Aig aig;
    const Lit a = aig.addInput();
    const Lit b = aig.addInput();
    const Lit c = aig.addInput();
    const Lit f = aig.mkMux(a, aig.mkXor(b, c), aig.mkAnd(b, litNot(c)));
    for (int v = 0; v < 8; ++v) {
        const bool va = v & 1, vb = v & 2, vc = v & 4;
        const bool expect = va ? (vb != vc) : (vb && !vc);
        EXPECT_EQ(aig.evalLit(f, {va, vb, vc}), expect) << v;
    }
}

// ---- Known-bits lattice -------------------------------------------------

TEST(KnownBitsLattice, JoinKeepsOnlyAgreedBits)
{
    const KnownBits a = KnownBits::constant(BitVector::fromUint(4, 0b1010));
    const KnownBits b = KnownBits::constant(BitVector::fromUint(4, 0b1011));
    const KnownBits j = KnownBits::join(a, b);
    EXPECT_TRUE(j.contains(BitVector::fromUint(4, 0b1010)));
    EXPECT_TRUE(j.contains(BitVector::fromUint(4, 0b1011)));
    // Bit 0 (the disagreement) must have become unknown; the rest stay.
    EXPECT_FALSE(j.known.getBit(0));
    EXPECT_TRUE(j.known.getBit(1));
    EXPECT_TRUE(j.known.getBit(3));
    // Joining with top yields top.
    const KnownBits t = KnownBits::join(a, KnownBits::top(4));
    EXPECT_TRUE(t.known.isZero());
}

TEST(KnownBitsLattice, AddPropagatesCarriesThroughKnownBits)
{
    // a = ????01, b = 000001: the low bits 01 + 1 = 10 with no carry
    // out, so the two low result bits are known even though a's high
    // bits are not.
    const KnownBits a(BitVector::fromUint(6, 0b000011),
                      BitVector::fromUint(6, 0b000001));
    const KnownBits b = KnownBits::constant(BitVector::fromUint(6, 1));
    const KnownBits sum = kbAdd(a, b);
    EXPECT_TRUE(sum.known.getBit(0));
    EXPECT_TRUE(sum.known.getBit(1));
    EXPECT_FALSE(sum.value.getBit(0));
    EXPECT_TRUE(sum.value.getBit(1));
}

TEST(KnownBitsLattice, TransferFunctionsAreSound)
{
    // Randomized soundness: whenever the abstract inputs represent the
    // concrete inputs, the abstract result must represent the concrete
    // result. This is the property the proved-verdict tier relies on.
    Rng rng(0xC0FFEE11u);
    const int w = 8;
    for (int trial = 0; trial < 500; ++trial) {
        const BitVector ca = BitVector::random(w, rng);
        const BitVector cb = BitVector::random(w, rng);
        const BitVector mask_a = BitVector::random(w, rng);
        const BitVector mask_b = BitVector::random(w, rng);
        const KnownBits a(mask_a, ca.bvand(mask_a));
        const KnownBits b(mask_b, cb.bvand(mask_b));
        ASSERT_TRUE(a.contains(ca));
        ASSERT_TRUE(b.contains(cb));
        EXPECT_TRUE(kbAnd(a, b).contains(ca.bvand(cb)));
        EXPECT_TRUE(kbOr(a, b).contains(ca.bvor(cb)));
        EXPECT_TRUE(kbXor(a, b).contains(ca.bvxor(cb)));
        EXPECT_TRUE(kbNot(a).contains(ca.bvnot()));
        EXPECT_TRUE(kbAdd(a, b).contains(ca.add(cb)));
        EXPECT_TRUE(kbSub(a, b).contains(ca.sub(cb)));
        EXPECT_TRUE(kbNeg(a).contains(ca.neg()));
        const int amount = static_cast<int>(rng.nextBelow(w + 3));
        EXPECT_TRUE(kbShl(a, amount).contains(ca.shl(amount)));
        EXPECT_TRUE(kbLShr(a, amount).contains(ca.lshr(amount)));
        EXPECT_TRUE(kbAShr(a, amount).contains(ca.ashr(amount)));
        EXPECT_TRUE(kbSext(a, w + 4).contains(ca.sext(w + 4)));
        EXPECT_TRUE(kbZext(a, w + 4).contains(ca.zext(w + 4)));
        EXPECT_TRUE(kbTrunc(a, w - 3).contains(ca.trunc(w - 3)));
        EXPECT_TRUE(kbExtract(a, 2, 4).contains(ca.extract(2, 4)));
        EXPECT_TRUE(kbConcat(a, b).contains(BitVector::concat(ca, cb)));
        EXPECT_TRUE(kbSelect(a, a, b).contains(ca.isZero() ? cb : ca));
    }
}

// ---- Tseitin + DPLL -----------------------------------------------------

TEST(Sat, TrivialContradictionIsUnsat)
{
    sym::SatSolver solver(1);
    solver.addClause({Lit(2 * 0)});
    solver.addClause({Lit(2 * 0 + 1)});
    EXPECT_EQ(solver.solve(1000).status, sym::SatStatus::Unsat);
}

TEST(Sat, ModelSatisfiesAllClauses)
{
    // (x0 | x1) & (~x0 | x1) & (~x1 | x2)
    const std::vector<std::vector<Lit>> clauses = {
        {0, 2}, {1, 2}, {3, 4}};
    sym::SatSolver solver(3);
    for (const auto &c : clauses)
        solver.addClause(c);
    const sym::SatResult r = solver.solve(1000);
    ASSERT_EQ(r.status, sym::SatStatus::Sat);
    for (const auto &clause : clauses) {
        bool satisfied = false;
        for (Lit l : clause)
            satisfied = satisfied ||
                        (r.model[litVar(l)] != 0) != sym::litInverted(l);
        EXPECT_TRUE(satisfied);
    }
}

TEST(Sat, TseitinAgreesWithTruthTableOnRandomCircuits)
{
    Rng rng(0x7AB1E5u);
    for (int trial = 0; trial < 40; ++trial) {
        Aig aig;
        std::vector<Lit> pool;
        const int num_inputs = 4 + static_cast<int>(rng.nextBelow(3));
        for (int i = 0; i < num_inputs; ++i)
            pool.push_back(aig.addInput());
        for (int g = 0; g < 20; ++g) {
            Lit a = pool[rng.nextBelow(pool.size())];
            Lit b = pool[rng.nextBelow(pool.size())];
            if (rng.nextBelow(2)) a = litNot(a);
            if (rng.nextBelow(2)) b = litNot(b);
            pool.push_back(rng.nextBelow(2) ? aig.mkAnd(a, b)
                                            : aig.mkXor(a, b));
        }
        Lit root = pool.back();
        if (rng.nextBelow(2))
            root = litNot(root);

        // Ground truth by exhaustive evaluation.
        bool satisfiable = false;
        for (uint64_t v = 0; v < (uint64_t(1) << num_inputs); ++v) {
            std::vector<uint8_t> in(num_inputs);
            for (int i = 0; i < num_inputs; ++i)
                in[i] = (v >> i) & 1;
            if (aig.evalLit(root, in)) {
                satisfiable = true;
                break;
            }
        }

        sym::SatSolver solver;
        cnfFromAig(aig, root, solver);
        const sym::SatResult r = solver.solve(100000);
        ASSERT_NE(r.status, sym::SatStatus::Budget) << trial;
        EXPECT_EQ(r.status == sym::SatStatus::Sat, satisfiable) << trial;
        if (r.status == sym::SatStatus::Sat) {
            // The model must actually drive the circuit to true —
            // solver vars coincide with AIG node indices.
            std::vector<uint8_t> in(num_inputs);
            for (uint32_t var = 0; var < aig.numNodes(); ++var)
                if (aig.isInput(var))
                    in[aig.inputIndex(var)] =
                        var < r.model.size() ? r.model[var] : 0;
            EXPECT_TRUE(aig.evalLit(root, in)) << trial;
        }
    }
}

// ---- checkEquiv differential fuzz ---------------------------------------

/** A tiny expression tree over two bitvector arguments, evaluated
 *  concretely, over AIG vectors, and over known-bits from the same
 *  structure — exactly the BVFun contract. */
struct Tree
{
    int input = -1; ///< >= 0: argument index; otherwise binary node.
    BVBinOp op = BVBinOp::Add;
    std::shared_ptr<Tree> l, r;
};

using TreePtr = std::shared_ptr<Tree>;

TreePtr leaf(int input)
{
    auto t = std::make_shared<Tree>();
    t->input = input;
    return t;
}

TreePtr node(BVBinOp op, TreePtr l, TreePtr r)
{
    auto t = std::make_shared<Tree>();
    t->op = op;
    t->l = std::move(l);
    t->r = std::move(r);
    return t;
}

BitVector
evalTreeConcrete(const Tree &t, const std::vector<BitVector> &args)
{
    if (t.input >= 0)
        return args[static_cast<size_t>(t.input)];
    return applyBVBinOp(t.op, evalTreeConcrete(*t.l, args),
                        evalTreeConcrete(*t.r, args));
}

template <typename Domain, typename V>
V
evalTreeDom(const Tree &t, Domain &dom, const std::vector<V> &args)
{
    if (t.input >= 0)
        return args[static_cast<size_t>(t.input)];
    return dom.binOp(t.op, evalTreeDom(*t.l, dom, args),
                     evalTreeDom(*t.r, dom, args));
}

sym::BVFun
funFromTree(TreePtr tree, int width, int arity = 2)
{
    sym::BVFun fun;
    fun.arg_widths.assign(static_cast<size_t>(arity), width);
    fun.concrete = [tree](const std::vector<BitVector> &args) {
        return evalTreeConcrete(*tree, args);
    };
    fun.symbolic = [tree](sym::AigDomain &dom,
                          const std::vector<sym::SymVec> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    fun.knownbits = [tree](sym::KnownBitsDomain &dom,
                           const std::vector<KnownBits> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    fun.intervals = [tree](dataflow::IntervalDomain &dom,
                           const std::vector<dataflow::Interval> &args) {
        return evalTreeDom(*tree, dom, args);
    };
    return fun;
}

/** The tree with the operands of every node swapped. */
TreePtr
mirror(const TreePtr &t)
{
    if (t->input >= 0)
        return t;
    return node(t->op, mirror(t->r), mirror(t->l));
}

/** Exhaustively compare two trees over all inputs of `width` bits. */
bool
exhaustivelyEqual(const Tree &a, const Tree &b, int width)
{
    for (uint64_t va = 0; va < (uint64_t(1) << width); ++va) {
        for (uint64_t vb = 0; vb < (uint64_t(1) << width); ++vb) {
            const std::vector<BitVector> args = {
                BitVector::fromUint(width, va),
                BitVector::fromUint(width, vb)};
            if (evalTreeConcrete(a, args) != evalTreeConcrete(b, args))
                return false;
        }
    }
    return true;
}

TEST(CheckEquiv, ProvesAlgebraicIdentities)
{
    const int w = 6;
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } identities[] = {
        {"add-commutes", node(BVBinOp::Add, a, b), node(BVBinOp::Add, b, a)},
        {"xor-via-and-or",
         node(BVBinOp::Xor, a, b),
         node(BVBinOp::Xor, node(BVBinOp::And, a, b),
              node(BVBinOp::Or, a, b))},
        {"minmax-partition",
         node(BVBinOp::Add, node(BVBinOp::MinU, a, b),
              node(BVBinOp::MaxU, a, b)),
         node(BVBinOp::Add, a, b)},
    };
    for (const auto &id : identities) {
        ASSERT_TRUE(exhaustivelyEqual(*id.lhs, *id.rhs, w)) << id.name;
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(id.lhs, w), funFromTree(id.rhs, w), budget);
        EXPECT_EQ(r.verdict, sym::Verdict::Proved)
            << id.name << ": " << r.method << " " << r.reason;
    }
}

TEST(CheckEquiv, CommutedOperandsProveStructurally)
{
    // The bit-blaster orders commutative operands canonically, so
    // op(a, b) and op(b, a) build one circuit: the miter folds to
    // false during construction and the SAT core never runs.
    const BVBinOp commutative[] = {
        BVBinOp::Add,     BVBinOp::Mul,     BVBinOp::And,  BVBinOp::Or,
        BVBinOp::Xor,     BVBinOp::AddSatS, BVBinOp::AddSatU,
        BVBinOp::MinS,    BVBinOp::MaxS,    BVBinOp::MinU, BVBinOp::MaxU,
        BVBinOp::AvgU,    BVBinOp::AvgS};
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    for (int w : {8, 16, 32}) {
        for (BVBinOp op : commutative) {
            const sym::EqResult r =
                sym::checkEquiv(funFromTree(node(op, a, b), w),
                                funFromTree(node(op, b, a), w), budget);
            EXPECT_EQ(r.verdict, sym::Verdict::Proved)
                << bvBinOpName(op) << " i" << w << ": " << r.reason;
            EXPECT_EQ(r.method, "structural") << bvBinOpName(op) << " i" << w;
            EXPECT_EQ(r.conflicts, 0) << bvBinOpName(op) << " i" << w;
        }
    }
}

TEST(CheckEquiv, NonCommutativeOperandsAreNeverSwapped)
{
    // Guard for the canonical order: swapping these would prove a
    // false equivalence. Their circuits must differ, and the checker
    // must refute with a validated model.
    const BVBinOp ordered[] = {BVBinOp::Sub,  BVBinOp::SubSatU,
                               BVBinOp::Shl,  BVBinOp::LShr,
                               BVBinOp::UDiv, BVBinOp::URem};
    const int w = 8;
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    for (BVBinOp op : ordered) {
        Aig aig;
        sym::AigDomain dom(aig);
        const sym::SymVec x = sym::svInputs(aig, w);
        const sym::SymVec y = sym::svInputs(aig, w);
        EXPECT_NE(dom.binOp(op, x, y).bits, dom.binOp(op, y, x).bits)
            << bvBinOpName(op);

        const TreePtr lhs = node(op, a, b), rhs = node(op, b, a);
        const sym::EqResult r = sym::checkEquiv(funFromTree(lhs, w),
                                                funFromTree(rhs, w), budget);
        ASSERT_EQ(r.verdict, sym::Verdict::Refuted) << bvBinOpName(op);
        ASSERT_EQ(r.model.size(), 2u) << bvBinOpName(op);
        EXPECT_NE(evalTreeConcrete(*lhs, r.model),
                  evalTreeConcrete(*rhs, r.model))
            << bvBinOpName(op);
    }
}

TEST(CheckEquiv, RefutesWithValidatedModels)
{
    const int w = 6;
    const sym::EqBudget budget;
    const TreePtr a = leaf(0), b = leaf(1);
    const struct
    {
        const char *name;
        TreePtr lhs, rhs;
    } wrongs[] = {
        {"sub-anticommutes", node(BVBinOp::Sub, a, b),
         node(BVBinOp::Sub, b, a)},
        {"saturation-matters", node(BVBinOp::AddSatS, a, b),
         node(BVBinOp::Add, a, b)},
        {"signedness-matters", node(BVBinOp::MinS, a, b),
         node(BVBinOp::MinU, a, b)},
    };
    for (const auto &wrong : wrongs) {
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(wrong.lhs, w), funFromTree(wrong.rhs, w), budget);
        ASSERT_EQ(r.verdict, sym::Verdict::Refuted) << wrong.name;
        ASSERT_EQ(r.model.size(), 2u) << wrong.name;
        // The reported model must be a genuine counterexample.
        EXPECT_NE(evalTreeConcrete(*wrong.lhs, r.model),
                  evalTreeConcrete(*wrong.rhs, r.model))
            << wrong.name;
    }
}

TEST(CheckEquiv, VerdictsAgreeWithExhaustiveEnumeration)
{
    // Differential fuzz: random tree pairs at 2x6 = 12 input bits.
    // Every proved verdict is checked against exhaustive enumeration
    // (soundness), every refutation model is re-run concretely, and
    // nothing this small may exhaust the default budgets.
    const int w = 6;
    const sym::EqBudget budget;
    const BVBinOp ops[] = {BVBinOp::Add,     BVBinOp::Sub,
                           BVBinOp::Mul,     BVBinOp::And,
                           BVBinOp::Or,      BVBinOp::Xor,
                           BVBinOp::AddSatS, BVBinOp::SubSatU,
                           BVBinOp::MinS,    BVBinOp::MaxU,
                           BVBinOp::AvgU,    BVBinOp::UDiv};
    Rng rng(0xF0221u);
    const std::function<TreePtr(int)> randomTree = [&](int depth) {
        if (depth == 0 || rng.nextBelow(3) == 0)
            return leaf(static_cast<int>(rng.nextBelow(2)));
        return node(ops[rng.nextBelow(std::size(ops))],
                    randomTree(depth - 1), randomTree(depth - 1));
    };
    int proved = 0, refuted = 0;
    const auto check = [&](const TreePtr &lhs, const TreePtr &rhs,
                           const std::string &trial) {
        const sym::EqResult r = sym::checkEquiv(
            funFromTree(lhs, w), funFromTree(rhs, w), budget);
        ASSERT_NE(r.verdict, sym::Verdict::Unknown)
            << trial << ": " << r.reason;
        const bool equal = exhaustivelyEqual(*lhs, *rhs, w);
        if (r.verdict == sym::Verdict::Proved) {
            ++proved;
            EXPECT_TRUE(equal) << trial;
        } else {
            ++refuted;
            EXPECT_FALSE(equal) << trial;
            ASSERT_EQ(r.model.size(), 2u);
            EXPECT_NE(evalTreeConcrete(*lhs, r.model),
                      evalTreeConcrete(*rhs, r.model))
                << trial;
        }
    };
    for (int trial = 0; trial < 40; ++trial) {
        const TreePtr lhs = randomTree(3);
        const TreePtr rhs = rng.nextBelow(4) == 0
                                ? lhs // guaranteed-equivalent pair
                                : randomTree(3);
        check(lhs, rhs, std::to_string(trial));
    }
    // Operand-mirrored pairs: equivalent exactly when every swapped
    // node is commutative (or its operands agree), which pins the
    // canonical operand order against exhaustive enumeration.
    for (int trial = 0; trial < 40; ++trial) {
        const TreePtr lhs = randomTree(3);
        check(lhs, mirror(lhs), "mirrored " + std::to_string(trial));
    }
    // The fuzz must exercise both verdicts to mean anything.
    EXPECT_GT(proved, 0);
    EXPECT_GT(refuted, 0);
}

/** ult(urem(x, 5), 6) over any domain: a range fact that bitwise
 *  tracking cannot decide (urem(x, 5) has three unknown low bits, so
 *  its known-bits maximum is 7 >= 6) but intervals settle instantly
 *  (urem(x, 5) is in [0, 4] and 4 < 6). */
template <typename Domain>
typename Domain::Value
evalRangeFact(Domain &dom, const typename Domain::Value &x)
{
    const auto five = dom.constant(BitVector::fromUint(8, 5));
    const auto six = dom.constant(BitVector::fromUint(8, 6));
    return dom.cmp(BVCmpOp::Ult, dom.binOp(BVBinOp::URem, x, five), six);
}

TEST(CheckEquiv, IntervalTierProvesRangeFacts)
{
    sym::BVFun lhs;
    lhs.arg_widths = {8};
    lhs.concrete = [](const std::vector<BitVector> &args) {
        const BitVector rem = args[0].urem(BitVector::fromUint(8, 5));
        return BitVector::fromUint(1, rem.ult(BitVector::fromUint(8, 6)));
    };
    lhs.symbolic = [](sym::AigDomain &dom,
                      const std::vector<sym::SymVec> &args) {
        return evalRangeFact(dom, args[0]);
    };
    lhs.knownbits = [](sym::KnownBitsDomain &dom,
                       const std::vector<KnownBits> &args) {
        return evalRangeFact(dom, args[0]);
    };
    lhs.intervals = [](dataflow::IntervalDomain &dom,
                       const std::vector<dataflow::Interval> &args) {
        return evalRangeFact(dom, args[0]);
    };

    sym::BVFun rhs;
    rhs.arg_widths = {8};
    const BitVector one = BitVector::fromUint(1, 1);
    rhs.concrete = [one](const std::vector<BitVector> &) { return one; };
    rhs.symbolic = [one](sym::AigDomain &dom,
                         const std::vector<sym::SymVec> &) {
        return dom.constant(one);
    };
    rhs.knownbits = [one](sym::KnownBitsDomain &dom,
                          const std::vector<KnownBits> &) {
        return dom.constant(one);
    };
    rhs.intervals = [one](dataflow::IntervalDomain &dom,
                          const std::vector<dataflow::Interval> &) {
        return dom.constant(one);
    };

    const sym::EqResult r = sym::checkEquiv(lhs, rhs, sym::EqBudget{});
    EXPECT_EQ(r.verdict, sym::Verdict::Proved) << r.method << " " << r.reason;
    // The interval tier must have decided — earlier tiers cannot:
    // sampling never refutes an equivalence, and known-bits leaves the
    // comparison bit unknown.
    EXPECT_EQ(r.method, "interval");
}

TEST(CheckEquiv, BudgetExhaustionIsUnknownNeverProved)
{
    // An equivalent-but-nonstructural pair under a starvation budget:
    // concrete sampling cannot refute (they are equal), known-bits and
    // intervals cannot prove (three unknown summands), canonical
    // operand order cannot re-associate, and the AIG tier overflows.
    const int w = 8;
    const TreePtr a = leaf(0), b = leaf(1), c = leaf(2);
    sym::EqBudget budget;
    budget.max_nodes = 64;
    budget.max_conflicts = 1;
    const sym::EqResult r = sym::checkEquiv(
        funFromTree(node(BVBinOp::Add, node(BVBinOp::Add, a, b), c), w, 3),
        funFromTree(node(BVBinOp::Add, a, node(BVBinOp::Add, b, c)), w, 3),
        budget);
    EXPECT_EQ(r.verdict, sym::Verdict::Unknown);
    EXPECT_FALSE(r.reason.empty());
}

} // namespace
} // namespace hydride
