#include "sim/random.h"

#include <cstring>
#include <utility>

#include "sim/random_paths.h"

namespace xssd::sim {

namespace {

// J(x) = x^kLaneBytes mod P(x); bit b of word i is the coefficient of
// x^(64i + b). The engine's state update (Next() without the ** scrambler)
// is a linear map A over GF(2), and P is its characteristic polynomial, so
// P(A) = 0 and J(A) = A^kLaneBytes: the jump routine, which sums A^i s over
// J's set bits i, lands kLaneBytes steps ahead. Derivation: Berlekamp-Massey
// over 1024 successive values of one state bit gives P (degree 256), and
// square-and-multiply mod P gives J. The same two steps reproduce the
// reference jump() constants for 2^128 and 2^192 (Blackman & Vigna,
// "Scrambled Linear Pseudorandom Number Generators", ACM TOMS 2021).
constexpr uint64_t kJump[4] = {0xd7f4e8da7e228b85ull, 0xd638d47ec5bcf595ull,
                               0xaa6eb691cbf9ce10ull, 0x0f41cce3698fad39ull};

}  // namespace

void RngPaths::Scalar(Rng& rng, uint8_t* out, size_t n) {
  rng.DrawLowBytes(out, n);
}

void RngPaths::Jump(Rng& rng) {
  // xoshiro's jump routine, with a mask where the reference branches.
  Rng step = rng;
  uint64_t s0 = 0;
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  uint64_t s3 = 0;
  for (const uint64_t word : kJump) {
    for (int b = 0; b < 64; ++b) {
      const uint64_t take = 0 - ((word >> b) & 1);  // all ones if bit b is set
      s0 ^= step.state_[0] & take;
      s1 ^= step.state_[1] & take;
      s2 ^= step.state_[2] & take;
      s3 ^= step.state_[3] & take;
      step.Next();
    }
  }
  rng.state_[0] = s0;
  rng.state_[1] = s1;
  rng.state_[2] = s2;
  rng.state_[3] = s3;
}

#if defined(__x86_64__)

namespace {

constexpr size_t kLanes = RngPaths::kLanes;
constexpr size_t kLaneBytes = RngPaths::kLaneBytes;

// One state word of every lane. The lane loop is written once over this
// GCC/Clang vector type and built for AVX2 and for AVX-512F below. There is
// no baseline x86-64 build: at two 64-bit words per register it drew
// slower than the scalar loop.
using LaneWords = uint64_t __attribute__((vector_size(8 * kLanes)));

// Bit offsets of eight consecutive draws' low bytes in a word that is
// stored (little-endian) as those eight bytes in draw order.
using ByteShifts = std::integer_sequence<int, 0, 8, 16, 24, 32, 40, 48, 56>;

#define XSSD_ALWAYS_INLINE inline __attribute__((always_inline))

// Next() in every lane, its low byte or-ed into `bytes` at bit `at`. The
// output is rotl(s1 * 5, 7) * 9, the multiplies as shifts and adds (AVX2
// and AVX-512F have no 64-bit multiply).
XSSD_ALWAYS_INLINE void Draw(LaneWords& s0, LaneWords& s1, LaneWords& s2,
                             LaneWords& s3, LaneWords& bytes, int at) {
  constexpr uint64_t kLowByte = 0xFF;
  const LaneWords x = s1 + (s1 << 2);
  const LaneWords r = (x << 7) | (x >> 57);
  bytes |= ((r + (r << 3)) & kLowByte) << at;
  const LaneWords t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = (s3 << 45) | (s3 >> 19);
}

// Eight draws, unrolled in every build so that each shift is a constant.
template <int... kAt>
XSSD_ALWAYS_INLINE void DrawEight(LaneWords& s0, LaneWords& s1, LaneWords& s2,
                                  LaneWords& s3, LaneWords& bytes,
                                  std::integer_sequence<int, kAt...>) {
  (Draw(s0, s1, s2, s3, bytes, kAt), ...);
}

// Fill `blocks` whole blocks. In each, lane 0 starts at `rng`'s state and
// lane k at lane k - 1's jumped by kLaneBytes; lane k writes the block's
// k-th kLaneBytes bytes, and `rng` ends where the last lane does.
XSSD_ALWAYS_INLINE void FillBlocks(Rng& rng, uint8_t* out, size_t blocks) {
  for (; blocks > 0; --blocks, out += kLanes * kLaneBytes) {
    LaneWords s0 = {};
    LaneWords s1 = {};
    LaneWords s2 = {};
    LaneWords s3 = {};
    Rng lane = rng;
    for (size_t k = 0; k < kLanes; ++k) {
      if (k > 0) RngPaths::Jump(lane);
      const uint64_t* state = RngPaths::State(lane);
      s0[k] = state[0];
      s1[k] = state[1];
      s2[k] = state[2];
      s3[k] = state[3];
    }
    for (size_t i = 0; i < kLaneBytes; i += 8) {
      // Eight draws per lane, their low bytes packed into one word per lane.
      LaneWords bytes = {};
      DrawEight(s0, s1, s2, s3, bytes, ByteShifts{});
      uint64_t words[kLanes];
      std::memcpy(words, &bytes, sizeof words);
      for (size_t k = 0; k < kLanes; ++k) {
        std::memcpy(out + k * kLaneBytes + i, &words[k], sizeof words[k]);
      }
    }
    uint64_t* state = RngPaths::State(rng);
    state[0] = s0[kLanes - 1];
    state[1] = s1[kLanes - 1];
    state[2] = s2[kLanes - 1];
    state[3] = s3[kLanes - 1];
  }
}

XSSD_ALWAYS_INLINE void FillInLanes(Rng& rng, uint8_t* out, size_t n) {
  const size_t blocks = n / RngPaths::kBlockBytes;
  FillBlocks(rng, out, blocks);
  const size_t done = blocks * RngPaths::kBlockBytes;
  rng.FillLowBytes(out + done, n - done);  // under a block: the inline loop
}

}  // namespace

// The lane loop's two builds. The rest of the build stays portable;
// FillLowBytes calls these only after the CPU check.
#define XSSD_AVX2 __attribute__((target("avx2")))
#define XSSD_AVX512 __attribute__((target("avx512f")))

bool RngPaths::Avx2Available() { return __builtin_cpu_supports("avx2"); }

XSSD_AVX2 void RngPaths::LanesAvx2(Rng& rng, uint8_t* out, size_t n) {
  FillInLanes(rng, out, n);
}

bool RngPaths::Avx512Available() { return __builtin_cpu_supports("avx512f"); }

XSSD_AVX512 void RngPaths::LanesAvx512(Rng& rng, uint8_t* out, size_t n) {
  FillInLanes(rng, out, n);
}

#else

bool RngPaths::Avx2Available() { return false; }

void RngPaths::LanesAvx2(Rng& rng, uint8_t* out, size_t n) {
  Scalar(rng, out, n);
}

bool RngPaths::Avx512Available() { return false; }

void RngPaths::LanesAvx512(Rng& rng, uint8_t* out, size_t n) {
  Scalar(rng, out, n);
}

#endif

namespace {

using FillPath = void (*)(Rng&, uint8_t*, size_t);

FillPath FastestPath() {
  if (RngPaths::Avx512Available()) return &RngPaths::LanesAvx512;
  if (RngPaths::Avx2Available()) return &RngPaths::LanesAvx2;
  return &RngPaths::Scalar;
}

}  // namespace

void Rng::FillLowBytesLong(uint8_t* out, size_t n) {
  static const FillPath path = FastestPath();
  path(*this, out, n);
}

}  // namespace xssd::sim
