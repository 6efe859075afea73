#include "ecc/ecc_hash_key.hh"

#include <cstring>

#include "ecc/hamming7264.hh"
#include "sim/logging.hh"

namespace pageforge
{

namespace
{

// A line's minikey is the check byte of its first 64-bit word
// (LineEcc::minikey(code) == code[0] == Hamming7264::encode(word 0)),
// so the page hash needs one Hamming encode per sampled line rather
// than a whole-line encode.
std::uint32_t
minikeys4(const std::uint64_t words[eccHashSections])
{
    std::uint32_t key = 0;
    for (unsigned s = 0; s < eccHashSections; ++s) {
        key |= static_cast<std::uint32_t>(Hamming7264::encode(words[s]))
            << (8 * s);
    }
    return key;
}

} // namespace

std::uint32_t
eccPageHash(const std::uint8_t *page, const EccOffsets &offsets)
{
    static_assert(eccHashSections == 4,
                  "minikey kernels assume four sampled lines");
    // Functional model only: the modelled hardware still fetches the
    // whole sampled lines (the timing/fetch accounting lives in the
    // PageForge engine), so sampling one word per line here changes no
    // modelled statistic — only host work.
    std::uint64_t words[eccHashSections];
    for (unsigned s = 0; s < eccHashSections; ++s)
        std::memcpy(&words[s], page + offsets.lineIndex(s) * lineSize, 8);
    return minikeys4(words);
}

EccHashAccumulator::EccHashAccumulator(const EccOffsets &offsets)
    : _offsets(offsets)
{
}

bool
EccHashAccumulator::offer(std::uint32_t line_idx, const LineEccCode &code)
{
    for (unsigned s = 0; s < eccHashSections; ++s) {
        if (!_have[s] && _offsets.lineIndex(s) == line_idx) {
            _minikeys[s] = LineEcc::minikey(code);
            _have[s] = true;
            ++_captured;
            return true;
        }
    }
    return false;
}

std::array<std::uint32_t, eccHashSections>
EccHashAccumulator::missingLines() const
{
    std::array<std::uint32_t, eccHashSections> lines{};
    unsigned n = 0;
    for (unsigned s = 0; s < eccHashSections; ++s) {
        if (!_have[s])
            lines[n++] = _offsets.lineIndex(s);
    }
    for (; n < eccHashSections; ++n)
        lines[n] = ~std::uint32_t(0);
    return lines;
}

std::uint32_t
EccHashAccumulator::key() const
{
    pf_assert(ready(), "reading an incomplete ECC hash key");
    std::uint32_t key = 0;
    for (unsigned s = 0; s < eccHashSections; ++s)
        key |= static_cast<std::uint32_t>(_minikeys[s]) << (8 * s);
    return key;
}

void
EccHashAccumulator::reset()
{
    _minikeys.fill(0);
    _have.fill(false);
    _captured = 0;
}

} // namespace pageforge
