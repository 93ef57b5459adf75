#include "analysis/symbolic/aig.h"

#include <utility>

namespace hydride {
namespace sym {

namespace {

constexpr size_t kInitialSlots = 1024;

} // namespace

Aig::Aig(size_t node_budget)
    : table_(kInitialSlots), node_budget_(node_budget)
{
    nodes_.push_back({});       // Node 0: constant false.
    input_index_.push_back(-1);
}

Lit
Aig::addInput()
{
    const uint32_t var = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({});
    input_index_.push_back(num_inputs_++);
    return var << 1;
}

bool
Aig::isInput(uint32_t var) const
{
    return var != 0 && input_index_[var] >= 0;
}

bool
Aig::isAnd(uint32_t var) const
{
    return var != 0 && input_index_[var] < 0;
}

int
Aig::inputIndex(uint32_t var) const
{
    return input_index_[var];
}

Lit
Aig::mkAnd(Lit a, Lit b)
{
    // Operand normalization makes commutative pairs hash-equal.
    if (a > b)
        std::swap(a, b);
    // Constant and trivial folds.
    if (a == kFalseLit || a == litNot(b))
        return kFalseLit;
    if (a == kTrueLit)
        return b;
    if (a == b)
        return a;

    size_t slot = probe(a, b);
    if (table_[slot].var != 0)
        return table_[slot].var << 1;

    if (nodes_.size() >= node_budget_) {
        // Out of nodes: flag the overflow and return an arbitrary
        // well-formed literal; the caller must discard the result.
        overflowed_ = true;
        return kFalseLit;
    }
    const uint32_t var = static_cast<uint32_t>(nodes_.size());
    nodes_.push_back({a, b});
    input_index_.push_back(-1);
    if (2 * (num_ands_ + 1) > table_.size()) {
        grow();
        slot = probe(a, b);
    }
    table_[slot] = {a, b, var};
    ++num_ands_;
    return var << 1;
}

size_t
Aig::probe(Lit a, Lit b) const
{
    // Fibonacci hashing of the 64-bit key; the product's high half
    // indexes the table. Load stays at most 0.5, so a probe always
    // ends at an empty slot.
    const uint64_t key = (static_cast<uint64_t>(a) << 32) | b;
    const size_t mask = table_.size() - 1;
    size_t slot = static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 32) &
                  mask;
    while (table_[slot].var != 0 &&
           (table_[slot].a != a || table_[slot].b != b))
        slot = (slot + 1) & mask;
    return slot;
}

void
Aig::grow()
{
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.size() * 2, Slot{});
    for (const Slot &entry : old) {
        if (entry.var != 0)
            table_[probe(entry.a, entry.b)] = entry;
    }
}

Lit
Aig::mkXor(Lit a, Lit b)
{
    // a ^ b = ~(~(a & ~b) & ~(~a & b)); hashing folds shared halves.
    return litNot(mkAnd(litNot(mkAnd(a, litNot(b))),
                        litNot(mkAnd(litNot(a), b))));
}

Lit
Aig::mkMux(Lit sel, Lit t, Lit e)
{
    if (t == e)
        return t;
    return mkOr(mkAnd(sel, t), mkAnd(litNot(sel), e));
}

bool
Aig::evalLit(Lit root, const std::vector<uint8_t> &input_values) const
{
    // Nodes are created in topological order, so one forward sweep
    // over the cone's ancestors (here: all nodes up to root) works.
    const uint32_t root_var = litVar(root);
    std::vector<uint8_t> value(root_var + 1, 0);
    for (uint32_t var = 1; var <= root_var; ++var) {
        const int input = input_index_[var];
        if (input >= 0) {
            value[var] = input < static_cast<int>(input_values.size())
                             ? input_values[input]
                             : 0;
            continue;
        }
        const Node &n = nodes_[var];
        const bool a = value[litVar(n.a)] ^ litInverted(n.a);
        const bool b = value[litVar(n.b)] ^ litInverted(n.b);
        value[var] = a && b;
    }
    return value[root_var] ^ litInverted(root);
}

} // namespace sym
} // namespace hydride
