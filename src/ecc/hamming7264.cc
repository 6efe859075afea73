#include "ecc/hamming7264.hh"

#include <array>
#include <bit>

#include "sim/logging.hh"

namespace pageforge
{

namespace
{

constexpr bool
isPowerOfTwo(unsigned x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

/**
 * Codeword positions are 1..71; positions 1, 2, 4, 8, 16, 32, 64 hold
 * the seven Hamming check bits and the remaining 64 positions hold the
 * data bits in order. Build both directions of the mapping once.
 */
struct PositionMap
{
    std::array<unsigned, 64> dataToPos{};  // data bit -> codeword position
    std::array<int, 72> posToData{};       // codeword position -> data bit

    constexpr PositionMap()
    {
        for (auto &entry : posToData)
            entry = -1;
        unsigned data_bit = 0;
        for (unsigned pos = 1; pos <= 71; ++pos) {
            if (isPowerOfTwo(pos))
                continue;
            dataToPos[data_bit] = pos;
            posToData[pos] = static_cast<int>(data_bit);
            ++data_bit;
        }
    }
};

constexpr PositionMap position_map;

/**
 * For each of the 7 check bits, a precomputed 64-bit mask of the data
 * bits it covers (data bits whose codeword position has the
 * corresponding bit set).
 */
struct CheckMasks
{
    std::array<std::uint64_t, 7> mask{};

    constexpr CheckMasks()
    {
        for (unsigned data_bit = 0; data_bit < 64; ++data_bit) {
            unsigned pos = position_map.dataToPos[data_bit];
            for (unsigned i = 0; i < 7; ++i) {
                if (pos & (1U << i))
                    mask[i] |= (1ULL << data_bit);
            }
        }
    }
};

constexpr CheckMasks check_masks;

unsigned
parity64(std::uint64_t v)
{
    return static_cast<unsigned>(std::popcount(v) & 1);
}

/**
 * Byte-sliced encode tables: for each of the 8 data-byte positions, a
 * 256-entry table whose entry packs that byte value's contribution to
 * the 7 check bits (bits 0-6) and to the overall data parity (bit 7).
 * Since every check bit is a parity (XOR) over data bits, the encode
 * of a word is just the XOR of 8 table lookups. Derived from the same
 * check_masks the bit-serial encode used, so outputs are identical.
 */
struct EncodeTables
{
    std::array<std::array<std::uint8_t, 256>, 8> table{};

    constexpr EncodeTables()
    {
        for (unsigned byte_pos = 0; byte_pos < 8; ++byte_pos) {
            for (unsigned value = 0; value < 256; ++value) {
                std::uint64_t bits = static_cast<std::uint64_t>(value)
                    << (8 * byte_pos);
                std::uint8_t contrib = 0;
                for (unsigned i = 0; i < 7; ++i) {
                    if (std::popcount(bits & check_masks.mask[i]) & 1)
                        contrib |= static_cast<std::uint8_t>(1U << i);
                }
                if (std::popcount(bits) & 1)
                    contrib |= 0x80;
                table[byte_pos][value] = contrib;
            }
        }
    }
};

constexpr EncodeTables encode_tables;

} // namespace

unsigned
Hamming7264::dataBitPosition(unsigned data_bit)
{
    return position_map.dataToPos[data_bit];
}

std::uint8_t
Hamming7264::encode(std::uint64_t data)
{
    std::uint8_t acc = 0;
    for (unsigned byte_pos = 0; byte_pos < 8; ++byte_pos) {
        acc ^= encode_tables.table[byte_pos]
            [static_cast<std::uint8_t>(data >> (8 * byte_pos))];
    }
    std::uint8_t check = acc & 0x7f;
    // Overall even parity over data (acc bit 7) + 7 Hamming check bits.
    unsigned overall = static_cast<unsigned>(acc >> 7) ^
        static_cast<unsigned>(std::popcount(
            static_cast<unsigned>(check)) & 1);
    if (overall)
        check |= 0x80;
    return check;
}

unsigned
Hamming7264::syndrome(std::uint64_t data, std::uint8_t check)
{
    unsigned syn = 0;
    // Contribution of the received check bits themselves: check bit i
    // occupies codeword position 2^i.
    for (unsigned i = 0; i < 7; ++i) {
        if (check & (1U << i))
            syn ^= (1U << i);
    }
    // Contribution of the data bits.
    std::uint64_t bits = data;
    while (bits) {
        unsigned data_bit = static_cast<unsigned>(std::countr_zero(bits));
        bits &= bits - 1;
        syn ^= dataBitPosition(data_bit);
    }
    return syn;
}

EccDecodeResult
Hamming7264::decode(std::uint64_t data, std::uint8_t check)
{
    using Status = EccDecodeResult::Status;

    unsigned syn = syndrome(data, check);
    unsigned overall = parity64(data) ^
        static_cast<unsigned>(std::popcount(
            static_cast<unsigned>(check)) & 1);

    if (syn == 0 && overall == 0)
        return {Status::Ok, data};

    if (syn == 0) {
        // Parity mismatch with clean syndrome: the overall parity bit
        // itself flipped.
        return {Status::CorrectedCheck, data};
    }

    if (overall == 0) {
        // Non-zero syndrome but even overall parity: two bits flipped.
        return {Status::DoubleError, data};
    }

    // Single-bit error at codeword position 'syn'.
    if (syn > 71) {
        // No such position in the truncated code: more than two errors.
        return {Status::DoubleError, data};
    }
    if (isPowerOfTwo(syn))
        return {Status::CorrectedCheck, data};

    int data_bit = position_map.posToData[syn];
    pf_assert(data_bit >= 0, "syndrome maps to no data bit");
    return {Status::CorrectedData, data ^ (1ULL << data_bit)};
}

} // namespace pageforge
