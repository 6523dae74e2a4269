/**
 * @file
 * Memory-planned ciphertext storage for program execution.
 *
 * Every interpreter used to hold one heap-allocated ciphertext per
 * instruction for the whole run: a 32-bit multiplier holds thousands of
 * LweSamples alive although only a handful are ever live at once. This
 * file provides the planned alternative, in two layers:
 *
 *  - CiphertextArena: one contiguous Torus32 slab holding N fixed-stride
 *    LWE slots. Gate kernels read and write slots through LweView/LweCView
 *    spans (tfhe/lwe.h) — no per-gate std::vector allocation, no pointer
 *    chasing, and Reset() keeps the slab across runs/retries.
 *
 *  - ValuePlane<Evaluator>: the value storage of one program run, mapping
 *    instruction indices to physical slots through the program's
 *    pasm::MemoryPlan (identity when the program carries none). Evaluators
 *    that implement the view-based ApplyInto protocol (kSupportsApplyInto,
 *    e.g. TfheEvaluator) get the arena-backed specialization; everything
 *    else (plaintext/counting evaluators) gets a SlotBuffer-backed plane
 *    with the same interface, so the interpreters are written once.
 *
 * Safety of slot reuse is the plan's contract, enforced at pasm load time
 * (pasm/program.cc): values sharing a slot have disjoint live intervals,
 * and the engine adds anti-dependency edges
 * (Program::BuildGateDependencies(plan)).
 */
#ifndef PYTFHE_BACKEND_ARENA_H
#define PYTFHE_BACKEND_ARENA_H

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "backend/evaluator.h"
#include "circuit/netlist.h"
#include "pasm/program.h"
#include "tfhe/lwe.h"

namespace pytfhe::backend {

namespace detail {

/**
 * Value slots indexed by instruction (or physical plan slot). A plain heap
 * array rather than std::vector<C>: with C = bool, vector<bool> packs
 * bits, and concurrent writers of *different* slots would race on the
 * same byte. A bool[] has one addressable object per slot, so
 * distinct-slot writes never conflict. Slots are default-initialized, not
 * value-initialized: every slot is written (input seeding or its producing
 * gate) before any reader touches it, so zeroing the whole buffer up front
 * is pure waste on large programs.
 */
template <typename C>
class SlotBuffer {
  public:
    explicit SlotBuffer(uint64_t size) : slots_(new C[size]) {}
    C& operator[](uint64_t idx) { return slots_[idx]; }
    const C& operator[](uint64_t idx) const { return slots_[idx]; }

  private:
    std::unique_ptr<C[]> slots_;
};

/** Placeholder scratch for evaluators that do not declare WorkerScratch. */
struct NoScratch {};

/**
 * Maps an evaluator to its per-worker scratch type. Evaluators opt in by
 * declaring `using WorkerScratch = ...` and providing an Apply overload
 * taking a WorkerScratch&; everything else gets the empty NoScratch and
 * the plain three-argument Apply.
 */
template <typename Evaluator, typename = void>
struct WorkerScratchOf {
    using type = NoScratch;
};

template <typename Evaluator>
struct WorkerScratchOf<Evaluator,
                       std::void_t<typename Evaluator::WorkerScratch>> {
    using type = typename Evaluator::WorkerScratch;
};

/**
 * Maps an evaluator to its per-worker *batch* scratch type. Evaluators
 * opt in by declaring `using BatchScratch = ...` alongside an ApplyBatch
 * method; everything else gets the empty NoScratch.
 */
template <typename Evaluator, typename = void>
struct BatchScratchOf {
    using type = NoScratch;
};

template <typename Evaluator>
struct BatchScratchOf<Evaluator,
                      std::void_t<typename Evaluator::BatchScratch>> {
    using type = typename Evaluator::BatchScratch;
};

/**
 * True when the evaluator can evaluate a batch of bootstrapped gates in
 * one kernel call (ApplyBatch + Batchable + BatchScratch). Dispatchers
 * with batch_size > 1 group ready gates for such evaluators and fall back
 * to per-gate Apply for everything else.
 */
template <typename Evaluator>
inline constexpr bool kSupportsApplyBatch = requires(
    const Evaluator& e,
    const BatchGate<typename Evaluator::Ciphertext>* items, int32_t count,
    typename BatchScratchOf<Evaluator>::type& s) {
    e.ApplyBatch(items, count, s);
    { Evaluator::Batchable(circuit::GateType::kAnd) } -> std::same_as<bool>;
};

/**
 * True when the evaluator implements the zero-copy view protocol:
 * ApplyInto evaluating one gate from LweCView operands straight into an
 * LweView destination. Such evaluators run on the arena-backed ValuePlane.
 */
template <typename Evaluator>
inline constexpr bool kSupportsApplyInto = requires(
    const Evaluator& e, tfhe::LweCView cv, tfhe::LweView v,
    typename WorkerScratchOf<Evaluator>::type& s) {
    e.ApplyInto(circuit::GateType::kAnd, cv, true, cv, true, v, s);
};

/**
 * Dispatches Apply by evaluator capability. Evaluators may take operand
 * encoding-domain flags (ciphertext evaluators need them to pick the
 * linear-combination coefficients for elided gates) and/or a per-worker
 * scratch; plaintext-style evaluators take neither, since the plaintext
 * semantics of kLin* gates do not depend on the operand encoding.
 */
template <typename Evaluator, typename C, typename Scratch>
C ApplyGate(Evaluator& eval, circuit::GateType t, const C& a, bool a_linear,
            const C& b, bool b_linear, Scratch& scratch) {
    if constexpr (requires { eval.Apply(t, a, a_linear, b, b_linear,
                                        scratch); }) {
        return eval.Apply(t, a, a_linear, b, b_linear, scratch);
    } else if constexpr (std::is_same_v<Scratch, NoScratch>) {
        (void)scratch;
        return eval.Apply(t, a, b);
    } else {
        return eval.Apply(t, a, b, scratch);
    }
}

}  // namespace detail

/**
 * One contiguous Torus32 slab of fixed-stride LWE ciphertext slots. All
 * samples share one dimension n; slot s occupies [s*(n+1), (s+1)*(n+1)) —
 * the n mask coefficients followed by the body. Reset() reshapes without
 * shrinking, so a reused arena (executor runs, serving retries) is
 * allocation-free once warm.
 */
class CiphertextArena {
  public:
    /** Slab bytes needed for `num_slots` ciphertexts of dimension n. */
    static size_t BytesFor(uint64_t num_slots, int32_t n) {
        return static_cast<size_t>(num_slots) *
               (static_cast<size_t>(n) + 1) * sizeof(tfhe::Torus32);
    }

    void Reset(uint64_t num_slots, int32_t n) {
        n_ = n;
        stride_ = static_cast<uint64_t>(n) + 1;
        num_slots_ = num_slots;
        const size_t need = static_cast<size_t>(num_slots) * stride_;
        if (data_.size() < need) data_.resize(need);
    }

    tfhe::LweView Slot(uint64_t s) {
        tfhe::Torus32* base = data_.data() + s * stride_;
        return tfhe::LweView{base, base + n_, n_};
    }
    tfhe::LweCView Slot(uint64_t s) const {
        const tfhe::Torus32* base = data_.data() + s * stride_;
        return tfhe::LweCView{base, base + n_, n_};
    }

    uint64_t NumSlots() const { return num_slots_; }
    int32_t SampleDim() const { return n_; }
    /** Bytes held by the slab (capacity — what the process actually pays). */
    size_t ByteSize() const {
        return data_.capacity() * sizeof(tfhe::Torus32);
    }

  private:
    std::vector<tfhe::Torus32> data_;
    uint64_t num_slots_ = 0;
    uint64_t stride_ = 1;
    int32_t n_ = 0;
};

/**
 * Value storage of one program run behind a uniform interface:
 *   Reset(program, inputs[, use_plan]) — (re)shape and seed input slots;
 *   Apply(eval, program, idx, scratch) — evaluate the gate at instruction
 *       idx into its slot;
 *   BatchItemFor(program, idx)        — assemble one batched-kernel item;
 *   Harvest(program)                  — copy out the output ciphertexts;
 *   PlaneBytes() / RequiredBytes(...) — resident-byte accounting.
 *
 * This primary template is the generic plane: a SlotBuffer of whole
 * ciphertext objects, plan-mapped. Distinct slots are distinct objects, so
 * concurrent writers of different slots never conflict — the same
 * discipline the interpreters have always relied on.
 */
template <typename Evaluator, typename Enable = void>
class ValuePlane {
  public:
    using C = typename Evaluator::Ciphertext;
    using BatchItem = BatchGate<C>;

    void Reset(const pasm::Program& program, const std::vector<C>& inputs,
               bool use_plan = true) {
        plan_ = use_plan ? program.Plan() : nullptr;
        const uint64_t size = plan_
                                  ? plan_->num_slots
                                  : program.FirstGateIndex() +
                                        program.NumGates();
        if (size != size_) {
            values_ = detail::SlotBuffer<C>(size);
            size_ = size;
        }
        // Multi-bit programs carry 2-bit intermediate digits that a bool
        // (or placeholder byte) slot cannot hold; a digit side-plane with
        // the same slot mapping carries them. Inputs are 1-bit digits by
        // the format's homogeneity rule, so seeding from C is lossless.
        if (program.MessageModulus() != 0) {
            digits_.assign(size, 0);
            for (uint64_t i = 0; i < inputs.size(); ++i)
                digits_[SlotOf(1 + i)] = inputs[i] ? 1 : 0;
        } else {
            digits_.clear();
        }
        for (uint64_t i = 0; i < inputs.size(); ++i)
            values_[SlotOf(1 + i)] = inputs[i];
    }

    template <typename Scratch>
    void Apply(Evaluator& eval, const pasm::Program& program, uint64_t idx,
               Scratch& scratch) {
        if (program.IsLutGate(idx)) {
            // The plane interprets weighted LUT gates itself (reference
            // digit semantics, mirroring circuit::Netlist::EvaluatePlain);
            // evaluators that account per-gate work opt in via OnLutGate.
            const pasm::DecodedLut l = program.LutAt(idx);
            int32_t m = 0;
            for (const auto& [in, w] : l.operands)
                m += static_cast<int32_t>(w) *
                     static_cast<int32_t>(digits_[SlotOf(in)]);
            const uint32_t entry =
                (l.table >> ((m - l.lo) * l.out_bits)) &
                ((1u << l.out_bits) - 1);
            digits_[SlotOf(idx)] = static_cast<uint8_t>(entry);
            // Program outputs may only read 1-bit gates (enforced at load
            // time), so the low bit is the whole value wherever C matters.
            values_[SlotOf(idx)] = static_cast<C>(entry & 1u);
            if constexpr (requires { eval.OnLutGate(); }) eval.OnLutGate();
            return;
        }
        const pasm::DecodedGate g = program.GateAt(idx);
        // ApplyGate returns by value: the result is complete before the
        // assignment runs, so an in-place plan (out slot == operand slot)
        // is safe here.
        values_[SlotOf(idx)] = detail::ApplyGate(
            eval, g.type, values_[SlotOf(g.in0)],
            program.ProducesLinearDomain(g.in0), values_[SlotOf(g.in1)],
            program.ProducesLinearDomain(g.in1), scratch);
    }

    BatchItem BatchItemFor(const pasm::Program& program, uint64_t idx) {
        const pasm::DecodedGate g = program.GateAt(idx);
        return BatchItem{g.type, &values_[SlotOf(g.in0)],
                         program.ProducesLinearDomain(g.in0),
                         &values_[SlotOf(g.in1)],
                         program.ProducesLinearDomain(g.in1),
                         &values_[SlotOf(idx)]};
    }

    std::vector<C> Harvest(const pasm::Program& program) const {
        std::vector<C> out;
        out.reserve(program.OutputIndices().size());
        for (uint64_t src : program.OutputIndices())
            out.push_back(values_[SlotOf(src)]);
        return out;
    }

    /** Copy of the ciphertext in `idx`'s slot (checkpoint snapshot). */
    C CopyValue(uint64_t idx) const { return values_[SlotOf(idx)]; }
    /** Writes a checkpointed ciphertext back into `idx`'s slot. */
    void RestoreValue(uint64_t idx, const C& value) {
        values_[SlotOf(idx)] = value;
    }
    /** Digit side-plane access; meaningful only when HasDigits(). */
    bool HasDigits() const { return !digits_.empty(); }
    uint8_t DigitOf(uint64_t idx) const { return digits_[SlotOf(idx)]; }
    void RestoreDigit(uint64_t idx, uint8_t digit) {
        if (!digits_.empty()) digits_[SlotOf(idx)] = digit;
    }

    size_t PlaneBytes() const { return size_ * sizeof(C); }

    static size_t RequiredBytes(const pasm::Program& program,
                                const std::vector<C>& inputs,
                                bool use_plan = true) {
        (void)inputs;
        const pasm::MemoryPlan* plan = use_plan ? program.Plan() : nullptr;
        const uint64_t size = plan ? plan->num_slots
                                   : program.FirstGateIndex() +
                                         program.NumGates();
        return size * sizeof(C);
    }

  private:
    uint64_t SlotOf(uint64_t idx) const {
        return plan_ != nullptr ? plan_->slot_of[idx] : idx;
    }

    const pasm::MemoryPlan* plan_ = nullptr;  ///< Borrowed from the program.
    uint64_t size_ = 0;
    detail::SlotBuffer<C> values_{0};
    /** Digit values per slot; populated only for multi-bit programs. */
    std::vector<uint8_t> digits_;
};

/**
 * Arena-backed plane for view-protocol evaluators (TfheEvaluator): all
 * values live in one CiphertextArena slab, gates evaluate through
 * Evaluator::ApplyInto reading/writing slab slots in place, and batched
 * kernels gather/scatter lanes directly from the slab. Harvest is the only
 * point that materializes LweSample objects (one copy per program output).
 */
template <typename Evaluator>
class ValuePlane<Evaluator,
                 std::enable_if_t<detail::kSupportsApplyInto<Evaluator>>> {
  public:
    using C = typename Evaluator::Ciphertext;
    using BatchItem = BatchGateView;

    void Reset(const pasm::Program& program, const std::vector<C>& inputs,
               bool use_plan = true) {
        plan_ = use_plan ? program.Plan() : nullptr;
        const uint64_t slots = plan_
                                   ? plan_->num_slots
                                   : program.FirstGateIndex() +
                                         program.NumGates();
        const int32_t n = inputs.empty() ? 0 : inputs[0].N();
        for (const C& in : inputs)
            if (in.N() != n)
                throw std::invalid_argument(
                    "ValuePlane: inputs mix LWE dimensions");
        arena_.Reset(slots, n);
        for (uint64_t i = 0; i < inputs.size(); ++i)
            tfhe::LweCopyInto(tfhe::ViewOf(inputs[i]),
                              arena_.Slot(SlotOf(1 + i)));
    }

    template <typename Scratch>
    void Apply(Evaluator& eval, const pasm::Program& program, uint64_t idx,
               Scratch& scratch) {
        if (program.IsLutGate(idx)) {
            // Weighted LUT gate: gather operand slot views and dispatch
            // one programmable bootstrap. Kernel inputs are consumed
            // before the output view is written, so in-place plans hold.
            const pasm::DecodedLut l = program.LutAt(idx);
            tfhe::LweCView ops[circuit::kMaxLutArity];
            int8_t weights[circuit::kMaxLutArity];
            const size_t arity = l.operands.size();
            for (size_t i = 0; i < arity; ++i) {
                ops[i] = CSlot(l.operands[i].first);
                weights[i] = l.operands[i].second;
            }
            const tfhe::LutKernel kernel{
                std::span<const int8_t>(weights, arity), l.lo, l.table,
                l.out_bits, program.MessageModulus()};
            eval.ApplyLutInto(kernel,
                              std::span<const tfhe::LweCView>(ops, arity),
                              arena_.Slot(SlotOf(idx)), scratch);
            return;
        }
        const pasm::DecodedGate g = program.GateAt(idx);
        eval.ApplyInto(g.type, CSlot(g.in0),
                       program.ProducesLinearDomain(g.in0), CSlot(g.in1),
                       program.ProducesLinearDomain(g.in1),
                       arena_.Slot(SlotOf(idx)), scratch);
    }

    BatchItem BatchItemFor(const pasm::Program& program, uint64_t idx) {
        const pasm::DecodedGate g = program.GateAt(idx);
        return BatchItem{g.type, CSlot(g.in0),
                         program.ProducesLinearDomain(g.in0), CSlot(g.in1),
                         program.ProducesLinearDomain(g.in1),
                         arena_.Slot(SlotOf(idx))};
    }

    std::vector<C> Harvest(const pasm::Program& program) const {
        std::vector<C> out;
        out.reserve(program.OutputIndices().size());
        for (uint64_t src : program.OutputIndices()) {
            C s(arena_.SampleDim());
            tfhe::LweCopyInto(CSlot(src), tfhe::ViewOf(s));
            out.push_back(std::move(s));
        }
        return out;
    }

    /** Copy of the ciphertext in `idx`'s slot (checkpoint snapshot). */
    C CopyValue(uint64_t idx) const {
        C s(arena_.SampleDim());
        tfhe::LweCopyInto(CSlot(idx), tfhe::ViewOf(s));
        return s;
    }
    /** Writes a checkpointed ciphertext back into `idx`'s slab slot. */
    void RestoreValue(uint64_t idx, const C& value) {
        tfhe::LweCopyInto(tfhe::ViewOf(value), arena_.Slot(SlotOf(idx)));
    }
    /** Arena planes carry digits inside the ciphertexts themselves. */
    bool HasDigits() const { return false; }
    uint8_t DigitOf(uint64_t) const { return 0; }
    void RestoreDigit(uint64_t, uint8_t) {}

    size_t PlaneBytes() const { return arena_.ByteSize(); }

    static size_t RequiredBytes(const pasm::Program& program,
                                const std::vector<C>& inputs,
                                bool use_plan = true) {
        const pasm::MemoryPlan* plan = use_plan ? program.Plan() : nullptr;
        const uint64_t slots = plan ? plan->num_slots
                                    : program.FirstGateIndex() +
                                          program.NumGates();
        return CiphertextArena::BytesFor(slots,
                                         inputs.empty() ? 0 : inputs[0].N());
    }

  private:
    uint64_t SlotOf(uint64_t idx) const {
        return plan_ != nullptr ? plan_->slot_of[idx] : idx;
    }
    tfhe::LweCView CSlot(uint64_t idx) const {
        return std::as_const(arena_).Slot(SlotOf(idx));
    }

    const pasm::MemoryPlan* plan_ = nullptr;  ///< Borrowed from the program.
    CiphertextArena arena_;
};

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_ARENA_H
