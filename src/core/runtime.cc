#include "core/runtime.h"

#include <cassert>

#include "tfhe/multibit.h"

namespace pytfhe::core {

Ciphertexts Client::EncryptBits(const std::vector<bool>& bits) {
    Ciphertexts out;
    out.reserve(bits.size());
    for (bool b : bits) out.push_back(secret_.Encrypt(b, rng_));
    return out;
}

Ciphertexts Client::EncryptValue(const hdl::DType& dtype, double value) {
    return EncryptBits(dtype.Encode(value));
}

Ciphertexts Client::EncryptValues(const hdl::DType& dtype,
                                  const std::vector<double>& values) {
    std::vector<bool> bits;
    for (double v : values) {
        const auto enc = dtype.Encode(v);
        bits.insert(bits.end(), enc.begin(), enc.end());
    }
    return EncryptBits(bits);
}

Ciphertexts Client::EncryptBitsFor(const pasm::Program& program,
                                   const std::vector<bool>& bits) {
    const int32_t p = program.MessageModulus();
    if (p == 0) return EncryptBits(bits);
    Ciphertexts out;
    out.reserve(bits.size());
    for (bool b : bits)
        out.push_back(tfhe::LweEncryptDigit(b ? 1 : 0, p,
                                            secret_.params.lwe_noise_stddev,
                                            secret_.lwe_key, rng_));
    return out;
}

Ciphertexts Client::EncryptValueFor(const pasm::Program& program,
                                    const hdl::DType& dtype, double value) {
    return EncryptBitsFor(program, dtype.Encode(value));
}

std::vector<bool> Client::DecryptBits(const Ciphertexts& cts) const {
    std::vector<bool> out;
    out.reserve(cts.size());
    for (const auto& c : cts) out.push_back(secret_.Decrypt(c));
    return out;
}

std::vector<bool> Client::DecryptBitsFor(const pasm::Program& program,
                                         const Ciphertexts& cts) const {
    const int32_t p = program.MessageModulus();
    if (p == 0) return DecryptBits(cts);
    std::vector<bool> out;
    out.reserve(cts.size());
    for (const auto& c : cts)
        out.push_back(tfhe::LweDecryptDigit(c, secret_.lwe_key, p) != 0);
    return out;
}

double Client::DecryptValueFor(const pasm::Program& program,
                               const hdl::DType& dtype,
                               const Ciphertexts& cts) const {
    return dtype.Decode(DecryptBitsFor(program, cts));
}

double Client::DecryptValue(const hdl::DType& dtype,
                            const Ciphertexts& cts) const {
    return dtype.Decode(DecryptBits(cts));
}

std::vector<double> Client::DecryptValues(const hdl::DType& dtype,
                                          const Ciphertexts& cts) const {
    const std::vector<bool> bits = DecryptBits(cts);
    const size_t w = dtype.TotalBits();
    assert(bits.size() % w == 0);
    std::vector<double> out;
    for (size_t i = 0; i + w <= bits.size(); i += w)
        out.push_back(dtype.Decode(
            std::vector<bool>(bits.begin() + i, bits.begin() + i + w)));
    return out;
}

std::unique_ptr<Server> Client::MakeServer() {
    return std::make_unique<Server>(
        std::make_unique<tfhe::GateEvaluator>(secret_, rng_));
}

std::shared_ptr<tfhe::GateEvaluator> Client::MakeEvaluationKey() {
    return std::make_shared<tfhe::GateEvaluator>(secret_, rng_);
}

Ciphertexts Server::Run(const pasm::Program& program,
                        const Ciphertexts& inputs,
                        const RunOptions& options) {
    backend::ExecOptions exec;
    exec.num_threads = options.num_threads;
    exec.executor = &executor_;
    if (options.deadline_seconds > 0.0)
        exec.control.deadline =
            std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(options.deadline_seconds));
    if (!options.profile)
        return backend::Execute(program, evaluator_, inputs, exec);

    const tfhe::GateProfileSnapshot before = gates_->profile().Snapshot();
    Ciphertexts out = backend::Execute(program, evaluator_, inputs, exec);
    const tfhe::GateProfileSnapshot after = gates_->profile().Snapshot();
    last_run_profile_ = tfhe::GateProfileSnapshot{
        after.linear_seconds - before.linear_seconds,
        after.blind_rotate_seconds - before.blind_rotate_seconds,
        after.key_switch_seconds - before.key_switch_seconds,
        after.bootstrap_count - before.bootstrap_count};
    return out;
}

}  // namespace pytfhe::core
