/**
 * @file
 * (72,64) SECDED Hamming code.
 *
 * The PageForge paper (Section 6.2) evaluates ECC-based hash keys with
 * "a SECDED encoding function based on the (72,64) Hamming code, which
 * is a truncated version of the (127,120) Hamming code with the
 * addition of a parity bit". This module implements exactly that code:
 * 64 data bits are protected by 7 Hamming check bits (positions 1, 2,
 * 4, ..., 64 of the 71-bit truncated codeword) plus one overall parity
 * bit, giving single-error correction and double-error detection.
 */

#ifndef PF_ECC_HAMMING7264_HH
#define PF_ECC_HAMMING7264_HH

#include <cstdint>

namespace pageforge
{

/** Result of decoding a (72,64) codeword. */
struct EccDecodeResult
{
    enum class Status
    {
        Ok,            //!< no error detected
        CorrectedData, //!< single-bit error in the data, corrected
        CorrectedCheck,//!< single-bit error in the check bits, corrected
        DoubleError,   //!< uncorrectable double-bit error detected
    };

    Status status;
    std::uint64_t data; //!< corrected data word
};

/** SECDED (72,64) encoder/decoder. */
class Hamming7264
{
  public:
    /**
     * Compute the 8 check bits for a 64-bit data word.
     * Bits [6:0] are the truncated-Hamming check bits; bit 7 is the
     * overall (data + check) even-parity bit.
     */
    static std::uint8_t encode(std::uint64_t data);

    /**
     * Decode a received (data, check) pair, correcting a single-bit
     * error anywhere in the codeword and detecting double errors.
     */
    static EccDecodeResult decode(std::uint64_t data, std::uint8_t check);

  private:
    /** Hamming codeword position (1-based) of data bit @p data_bit. */
    static unsigned dataBitPosition(unsigned data_bit);

    /** Truncated-Hamming syndrome over the 71-bit codeword. */
    static unsigned syndrome(std::uint64_t data, std::uint8_t check);
};

} // namespace pageforge

#endif // PF_ECC_HAMMING7264_HH
