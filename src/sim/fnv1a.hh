/**
 * @file
 * 64-bit FNV-1a, the one hash behind every persisted or cross-process
 * identity: config and workload fingerprints, the cache-store record
 * checksums and its format version.
 *
 * Fingerprint streams are built from fixed 8-byte little-endian words
 * (toWord), so a hash never depends on host struct layout, padding or
 * the in-memory width of a field — only on the order the words are fed.
 */

#ifndef WISYNC_SIM_FNV1A_HH
#define WISYNC_SIM_FNV1A_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>

namespace wisync::sim {

/**
 * The canonical 8-byte word of a scalar field: integers and enums
 * widened, bools as 0/1, doubles by bit pattern.
 */
template <typename T>
constexpr std::uint64_t
toWord(T v)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(v);
    else
        return static_cast<std::uint64_t>(v);
}

/** Inverse of toWord. */
template <typename T>
constexpr T
fromWord(std::uint64_t w)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<double>(w);
    else if constexpr (std::is_same_v<T, bool>)
        return w != 0;
    else
        return static_cast<T>(w);
}

/** Streaming FNV-1a over bytes or little-endian 64-bit words. */
struct Fnv1a
{
    std::uint64_t h = 0xCBF29CE484222325ull;

    void
    byte(unsigned char b)
    {
        h ^= b;
        h *= 0x100000001B3ull;
    }

    void
    bytes(const char *data, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            byte(static_cast<unsigned char>(data[i]));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            byte(static_cast<unsigned char>(v >> (i * 8)));
    }
};

} // namespace wisync::sim

#endif // WISYNC_SIM_FNV1A_HH
