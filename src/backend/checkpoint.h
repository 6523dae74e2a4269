/**
 * @file
 * Job-level checkpoint/resume for program execution.
 *
 * A long encrypted job (umul32 is ~2.8k gates at ~42 ms per bootstrap)
 * that hits a transient fault near the end re-executes everything from
 * gate zero under plain retry. A checkpoint bounds that loss: at a wave
 * boundary the executor snapshots the minimal ciphertext set that is
 * still needed — pinned program outputs plus every value whose death
 * level lies at or beyond the boundary, exactly the liveness facts the
 * memory plan is computed from (pasm::ComputeValueLiveness) — and retry
 * restores those slots and re-executes only the gates past the cut.
 *
 * Two cut kinds share one wire record:
 *  - kLevel: every gate at wave level < boundary is done, none at or
 *    beyond it has started. Produced by the engine's quiesce barrier
 *    (engine.h); valid to resume on any backend when the program carries no
 *    plan or a level-safe plan (all data and anti-dependency edges cross
 *    the cut forward).
 *  - kOrdinal: every instruction at index <= boundary is done. Produced
 *    by the sequential interpreter; valid on every backend and plan the
 *    loader accepts, since plan validity already forces all edges
 *    forward in instruction order.
 *
 * The record rides the tfhe/serialization version-3 frame (magic "CHTP",
 * CRC32C over the body), so any bit flip or truncation is detected at
 * decode time; a corrupt checkpoint is discarded and the job falls back
 * to full re-execution — never a wrong answer. A program fingerprint in
 * the body guards against restoring a checkpoint into a different
 * program.
 */
#ifndef PYTFHE_BACKEND_CHECKPOINT_H
#define PYTFHE_BACKEND_CHECKPOINT_H

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "backend/arena.h"
#include "pasm/memory_plan.h"
#include "pasm/program.h"
#include "tfhe/lwe.h"
#include "tfhe/serialization.h"

namespace pytfhe::backend {

/** Wire magic of the job-checkpoint record ("CHTP"). */
inline constexpr uint32_t kCheckpointMagic = 0x50544843;

/**
 * When to snapshot. Disabled by default (every_n_levels == 0): a
 * checkpoint costs one live-set copy, which only pays off when gates are
 * expensive (real bootstraps) or fault rates are non-trivial — the
 * Young/Daly interval math in ClusterFaultModel quantifies the
 * tradeoff.
 */
struct CheckpointPolicy {
    /** Snapshot every N wave levels; 0 disables checkpointing. */
    uint64_t every_n_levels = 0;
    /** Skip a boundary until at least this many gates ran since the
     * last snapshot (avoids checkpoint spam on deep, narrow DAGs). */
    uint64_t min_gates_between = 0;
    /** Skip snapshots whose record exceeds this; 0 = unlimited. */
    uint64_t max_bytes = 0;

    bool Enabled() const { return every_n_levels > 0; }
};

enum class CheckpointCut : uint8_t { kLevel = 0, kOrdinal = 1 };

/**
 * The latest checkpoint of one job, held serialized: the CRC32C frame is
 * the integrity story, so the bytes stay framed until a resume actually
 * decodes (and thereby verifies) them.
 */
struct JobCheckpoint {
    std::string record;            ///< Framed bytes; empty = no checkpoint.
    uint64_t gates_completed = 0;  ///< Mirror of the record field.

    bool Empty() const { return record.empty(); }
    size_t ByteSize() const { return record.size(); }
    void Clear() {
        record.clear();
        gates_completed = 0;
    }
};

/** Checkpoint identity guard: mixes the instruction stream, outputs, and
 * plan shape so a record never restores into a different program. */
uint64_t ProgramFingerprint(const pasm::Program& program);

/** A decoded (frame-verified) checkpoint record. */
template <typename C>
struct DecodedCheckpoint {
    CheckpointCut cut = CheckpointCut::kLevel;
    uint64_t boundary = 0;
    uint64_t gates_completed = 0;
    std::vector<std::pair<uint64_t, C>> values;  ///< (instr index, ct).
    std::vector<std::pair<uint64_t, uint8_t>> digits;  ///< Multibit plane.
};

/**
 * Execution state reconstructed from a cut: enough to restart the
 * sequential skip-loop or the engine past the done set.
 */
struct ResumeState {
    std::vector<uint8_t> done;     ///< Per gate ordinal: already executed.
    std::vector<uint32_t> pending; ///< Per gate ordinal: preds left.
    std::vector<uint64_t> ready;   ///< Instruction indices ready to run.
    uint64_t gates_done = 0;
    uint64_t remaining = 0;
};

/**
 * Rebuilds dependency-counter state for resuming past `cut`/`boundary`.
 * `deps` must be the same dependency view the dispatcher schedules on
 * (plan anti-edges included) so the counts balance.
 */
ResumeState BuildResumeState(const pasm::Program& program,
                             const pasm::GateDependencies& deps,
                             CheckpointCut cut, uint64_t boundary);

/**
 * Whether a checkpoint of this cut kind may resume under `program`'s
 * plan. Ordinal cuts are always resumable (plan validity forces every
 * edge forward in instruction order); level cuts need a level-safe plan
 * (or none), since a sequential-tight plan may place an overwriter below
 * a cut its victim's readers sit above.
 */
inline bool CutValidForProgram(CheckpointCut cut,
                               const pasm::Program& program) {
    if (cut == CheckpointCut::kOrdinal) return true;
    const pasm::MemoryPlan* plan = program.Plan();
    return plan == nullptr || plan->level_safe;
}

/** Counters from checkpoint-aware runs, aggregated by the caller. */
struct CheckpointRunStats {
    uint64_t checkpoints_taken = 0;
    uint64_t checkpoint_bytes = 0;   ///< Size of the last record taken.
    uint64_t resumes = 0;            ///< Runs started from a checkpoint.
    uint64_t gates_resumed = 0;      ///< Gates skipped thanks to resume.
    uint64_t corrupt_discarded = 0;  ///< Records rejected at decode time.

    /** Adds `d`'s counts; a record size in `d` becomes the last one. */
    void Add(const CheckpointRunStats& d) {
        checkpoints_taken += d.checkpoints_taken;
        if (d.checkpoint_bytes != 0) checkpoint_bytes = d.checkpoint_bytes;
        resumes += d.resumes;
        gates_resumed += d.gates_resumed;
        corrupt_discarded += d.corrupt_discarded;
    }
};

namespace ckpt_detail {

inline void PutU8(std::string& out, uint8_t v) {
    out.push_back(static_cast<char>(v));
}
inline void PutU32(std::string& out, uint32_t v) {
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}
inline void PutU64(std::string& out, uint64_t v) {
    PutU32(out, static_cast<uint32_t>(v));
    PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline bool GetU8(const std::string& body, size_t& pos, uint8_t* v) {
    if (body.size() - pos < 1) return false;
    *v = static_cast<uint8_t>(body[pos++]);
    return true;
}
inline bool GetU32(const std::string& body, size_t& pos, uint32_t* v) {
    if (body.size() - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i)
        *v |= static_cast<uint32_t>(static_cast<uint8_t>(body[pos + i]))
              << (8 * i);
    pos += 4;
    return true;
}
inline bool GetU64(const std::string& body, size_t& pos, uint64_t* v) {
    uint32_t lo, hi;
    if (!GetU32(body, pos, &lo) || !GetU32(body, pos, &hi)) return false;
    *v = lo | (static_cast<uint64_t>(hi) << 32);
    return true;
}

}  // namespace ckpt_detail

/**
 * Per-ciphertext-type body codec. Evaluators whose ciphertext has no
 * specialization compile but cannot checkpoint (kSupported == false);
 * dispatchers gate on it with `if constexpr`.
 */
template <typename C>
struct CiphertextCodec {
    static constexpr bool kSupported = false;
};

template <>
struct CiphertextCodec<bool> {
    static constexpr bool kSupported = true;
    static void Encode(std::string& out, bool v) {
        ckpt_detail::PutU8(out, v ? 1 : 0);
    }
    static bool Decode(const std::string& body, size_t& pos, bool* v) {
        uint8_t b;
        if (!ckpt_detail::GetU8(body, pos, &b) || b > 1) return false;
        *v = b != 0;
        return true;
    }
};

template <>
struct CiphertextCodec<tfhe::LweSample> {
    static constexpr bool kSupported = true;
    static void Encode(std::string& out, const tfhe::LweSample& s) {
        ckpt_detail::PutU64(out, s.a.size());
        for (tfhe::Torus32 t : s.a) ckpt_detail::PutU32(out, t);
        ckpt_detail::PutU32(out, s.b);
    }
    static bool Decode(const std::string& body, size_t& pos,
                       tfhe::LweSample* s) {
        uint64_t n;
        if (!ckpt_detail::GetU64(body, pos, &n) || n > (UINT64_C(1) << 24))
            return false;
        s->a.resize(n);
        for (auto& t : s->a)
            if (!ckpt_detail::GetU32(body, pos, &t)) return false;
        return ckpt_detail::GetU32(body, pos, &s->b);
    }
};

/**
 * Serializes the live slot set of `plane` at a cut into a framed
 * checkpoint record. `live` is the instruction-index list from
 * pasm::LiveValuesAtLevelCut / LiveValuesAtOrdinalCut.
 */
template <typename Evaluator>
std::string EncodeCheckpoint(const pasm::Program& program,
                             const ValuePlane<Evaluator>& plane,
                             std::span<const uint64_t> live,
                             CheckpointCut cut, uint64_t boundary,
                             uint64_t gates_completed) {
    using C = typename Evaluator::Ciphertext;
    static_assert(CiphertextCodec<C>::kSupported,
                  "no checkpoint codec for this ciphertext type");
    std::string body;
    ckpt_detail::PutU64(body, ProgramFingerprint(program));
    ckpt_detail::PutU8(body, static_cast<uint8_t>(cut));
    ckpt_detail::PutU64(body, boundary);
    ckpt_detail::PutU64(body, gates_completed);
    ckpt_detail::PutU64(body, live.size());
    for (uint64_t idx : live) {
        ckpt_detail::PutU64(body, idx);
        CiphertextCodec<C>::Encode(body, plane.CopyValue(idx));
    }
    ckpt_detail::PutU8(body, plane.HasDigits() ? 1 : 0);
    if (plane.HasDigits()) {
        ckpt_detail::PutU64(body, live.size());
        for (uint64_t idx : live) {
            ckpt_detail::PutU64(body, idx);
            ckpt_detail::PutU8(body, plane.DigitOf(idx));
        }
    }
    std::ostringstream os;
    tfhe::SaveFramedRecord(os, kCheckpointMagic, body);
    return std::move(os).str();
}

/**
 * Verifies the frame (CRC32C), the fingerprint, and the body structure
 * of `record`; nullopt with a diagnostic in `error` on any mismatch —
 * the caller discards the checkpoint and re-executes from scratch.
 * `end_index` bounds the stored instruction indices (one past the last
 * valid index of the target program).
 */
template <typename C>
std::optional<DecodedCheckpoint<C>> DecodeCheckpoint(
    const std::string& record, uint64_t fingerprint, uint64_t end_index,
    std::string* error = nullptr) {
    auto fail = [&](const char* message) -> std::optional<DecodedCheckpoint<C>> {
        if (error) *error = std::string("load JobCheckpoint: ") + message;
        return std::nullopt;
    };
    std::istringstream is(record);
    std::optional<std::string> body =
        tfhe::LoadFramedRecord(is, kCheckpointMagic, "JobCheckpoint", error);
    if (!body) return std::nullopt;
    size_t pos = 0;
    DecodedCheckpoint<C> out;
    uint64_t fp, count;
    uint8_t cut;
    if (!ckpt_detail::GetU64(*body, pos, &fp))
        return fail("truncated fingerprint");
    if (fp != fingerprint)
        return fail("program fingerprint mismatch (checkpoint belongs to "
                    "a different program)");
    if (!ckpt_detail::GetU8(*body, pos, &cut) || cut > 1)
        return fail("bad cut kind");
    out.cut = static_cast<CheckpointCut>(cut);
    if (!ckpt_detail::GetU64(*body, pos, &out.boundary) ||
        !ckpt_detail::GetU64(*body, pos, &out.gates_completed))
        return fail("truncated cut header");
    if (!ckpt_detail::GetU64(*body, pos, &count) || count > end_index)
        return fail("bad value count");
    out.values.resize(count);
    for (auto& [idx, value] : out.values) {
        if (!ckpt_detail::GetU64(*body, pos, &idx) || idx == 0 ||
            idx >= end_index)
            return fail("bad value index");
        if (!CiphertextCodec<C>::Decode(*body, pos, &value))
            return fail("truncated ciphertext");
    }
    uint8_t has_digits;
    if (!ckpt_detail::GetU8(*body, pos, &has_digits) || has_digits > 1)
        return fail("bad digit-plane flag");
    if (has_digits) {
        if (!ckpt_detail::GetU64(*body, pos, &count) || count > end_index)
            return fail("bad digit count");
        out.digits.resize(count);
        for (auto& [idx, digit] : out.digits) {
            if (!ckpt_detail::GetU64(*body, pos, &idx) || idx == 0 ||
                idx >= end_index)
                return fail("bad digit index");
            if (!ckpt_detail::GetU8(*body, pos, &digit))
                return fail("truncated digit");
        }
    }
    if (pos != body->size()) return fail("trailing bytes after checkpoint");
    return out;
}

/**
 * Loads the record in `store` for a run of `program`: decodes (and thereby
 * CRC-verifies) it and checks the cut kind against the program's plan.
 * Returns nullopt when there is nothing to resume from. A record that fails
 * verification (or whose ciphertext type has no codec) is cleared from the
 * store and counted in `stats->corrupt_discarded`: a bad checkpoint can
 * cost time, never correctness. A usable one is counted in
 * `stats->resumes` and `stats->gates_resumed`. Every executor that
 * resumes goes through here.
 */
template <typename C>
std::optional<DecodedCheckpoint<C>> LoadCheckpoint(
    const pasm::Program& program, JobCheckpoint* store,
    CheckpointRunStats* stats) {
    if (store == nullptr || store->Empty()) return std::nullopt;
    std::optional<DecodedCheckpoint<C>> decoded;
    if constexpr (CiphertextCodec<C>::kSupported)
        decoded = DecodeCheckpoint<C>(
            store->record, ProgramFingerprint(program),
            program.FirstGateIndex() + program.NumGates());
    if (decoded && !CutValidForProgram(decoded->cut, program))
        decoded.reset();
    if (!decoded) {
        store->Clear();
        if (stats) ++stats->corrupt_discarded;
    } else if (stats) {
        ++stats->resumes;
        stats->gates_resumed += decoded->gates_completed;
    }
    return decoded;
}

/** Writes a decoded checkpoint's values back into a freshly Reset plane. */
template <typename Evaluator>
void RestoreCheckpoint(
    ValuePlane<Evaluator>& plane,
    const DecodedCheckpoint<typename Evaluator::Ciphertext>& decoded) {
    for (const auto& [idx, value] : decoded.values)
        plane.RestoreValue(idx, value);
    for (const auto& [idx, digit] : decoded.digits)
        plane.RestoreDigit(idx, digit);
}

}  // namespace pytfhe::backend

#endif  // PYTFHE_BACKEND_CHECKPOINT_H
