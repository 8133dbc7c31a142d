#include "core/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <vector>

namespace sehc {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.bits(), b.bits());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_LT(equal, 4);
}

TEST(Rng, ZeroSeedIsSafe) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 32; ++i) seen.insert(r.bits());
  EXPECT_GT(seen.size(), 30u);  // not stuck at a fixed point
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowCoversAllValues) {
  Rng r(3);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[r.below(5)];
  for (int c : counts) EXPECT_GT(c, 800);  // ~1000 each
}

TEST(Rng, BelowOneAlwaysZero) {
  Rng r(3);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BelowZeroThrows) {
  Rng r(3);
  EXPECT_THROW(r.below(0), Error);
}

TEST(Rng, ChanceExtremes) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceFrequency) {
  Rng r(19);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng r(23);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto original = v;
  r.shuffle(v);
  EXPECT_FALSE(std::equal(v.begin(), v.end(), original.begin()));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Rng, SplitSameTagGivesSameStream) {
  Rng base(42);
  Rng a = base.split(1);
  Rng a2 = base.split(1);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.bits(), a2.bits());
}

TEST(Rng, SplitDifferentTagsDiverge) {
  Rng base(42);
  Rng a = base.split(1);
  Rng b = base.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.bits() == b.bits());
  EXPECT_LT(equal, 4);
}

TEST(Rng, IndexThrowsOnEmpty) {
  Rng r(1);
  EXPECT_THROW(r.index(0), Error);
}

// Known-answer vectors: the first 16 outputs of each draw for two seeds.
// Every seeded result in the repository (workloads, engines, campaigns)
// follows from these trajectories, so a change to the generator, the
// seeding or a distribution shows up here first. `below_next` and
// `index_next` are the bits() right after the 16 draws: they pin how many
// raw draws the rejection loop consumed (below(2^63 + 1) rejects about
// half of them).
constexpr std::array<std::uint64_t, 8> kBelowN{
    1, 2, 3, 7, 100, 201, (std::uint64_t{1} << 32) + 1,
    (std::uint64_t{1} << 63) + 1};

struct KnownAnswers {
  std::uint64_t seed;
  std::array<std::uint64_t, 16> bits;
  std::array<std::array<std::uint64_t, 16>, kBelowN.size()> below;
  std::array<std::uint64_t, kBelowN.size()> below_next;
  std::array<double, 16> uniform;
  std::array<std::size_t, 16> index37;  // index(37)
  std::uint64_t index_next;
  const char* chance;  // chance(0.3), one '0' or '1' per draw
};

const KnownAnswers kKnownAnswers[] = {
    {1,
     {
       0xB3F2AF6D0FC710C5, 0x853B559647364CEA, 0x92F89756082A4514,
       0x642E1C7BC266A3A7, 0xB27A48E29A233673, 0x24C123126FFDA722,
       0x123004EF8DF510E6, 0x61954DCC47B1E89D, 0xDDFDB48AB9ED4A21,
       0x8D3CDB8C3AA5B1D0, 0xEEBD114BD87226D1, 0xF50C3FF1E7D7E8A6,
       0xEECA3115E23BC8F1, 0xAB49ED3DB4C66435, 0x99953C6C57808DD7,
       0xE3FA941B05219325
     },
     {{
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 1, 1, 1},
         {1, 1, 2, 2, 2, 1, 2, 0, 1, 1, 1, 1, 0, 2, 0, 1},
         {3, 6, 4, 6, 1, 6, 0, 0, 6, 0, 5, 1, 5, 5, 6, 4},
         {57, 22, 0, 83, 71, 62, 86, 29, 21, 8, 41, 10, 1, 73, 91, 49},
         {
           34, 199, 134, 152, 101, 160, 14, 78, 160, 34, 64, 76, 174, 134, 114,
           25
         },
         {
           1540645209, 3254450005, 1966190015, 1580762924, 3886607762,
           1262257168, 2076511223, 3860634322, 3689911704, 2909328965,
           3920958855, 4073433270, 4084307933, 159151864, 3186315628, 556203787
         },
         {
           3743247123249303748, 376989097743764713, 1367008882666915091,
           3637299787140904562, 6772767922552916512, 953878616421544399,
           7979553132221966032, 8434186510367451301, 7983247259527268592,
           3119285066212467764, 1843446058500263382, 7204233397703643940,
           2043754401061426368, 6538102727716223439, 4632772384157870116,
           8895865007937003950
         },
     }},
     {
       0x1498C2C122087C87, 0x1498C2C122087C87, 0x1498C2C122087C87,
       0x1498C2C122087C87, 0x1498C2C122087C87, 0x1498C2C122087C87,
       0x1498C2C122087C87, 0x02CFB6839447A959
     },
     {
       0x1.67e55eda1f8e2p-1, 0x1.0a76ab2c8e6c9p-1, 0x1.25f12eac10548p-1,
       0x1.90b871ef099a8p-2, 0x1.64f491c534466p-1, 0x1.260918937fedp-3,
       0x1.23004ef8df51p-4, 0x1.865537311ec7ap-2, 0x1.bbfb691573da9p-1,
       0x1.1a79b718754b6p-1, 0x1.dd7a2297b0e44p-1, 0x1.ea187fe3cfafdp-1,
       0x1.dd94622bc4779p-1, 0x1.5693da7b698ccp-1, 0x1.332a78d8af011p-1,
       0x1.c7f528360a432p-1
     },
     {18, 26, 14, 16, 9, 7, 13, 29, 14, 7, 11, 7, 4, 36, 21, 26},
     0x1498C2C122087C87,
     "0000011000000000"},
    {987654321,
     {
       0xFFFC8F91C3773EB9, 0xDF15ACF623CC94F8, 0xAFC6D8E1CF1D94E2,
       0x60960BB69B2DDF6A, 0xF15FC8395BFCE3A5, 0x6071B96577F304CC,
       0x0F10CF0F4FC58465, 0x5E26017987732D74, 0x58F2D17EC3BA5424,
       0x0BD7CA6B4F83C761, 0x017CE9D90F6C02D9, 0x6BF6CDD4CF5794B5,
       0x970C9E9A835A3C7B, 0x3B529DC7019FD9EB, 0x9AA3EB04D9376387,
       0x79E1653E5A088F51
     },
     {{
         {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
         {1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1},
         {0, 1, 2, 2, 2, 0, 0, 2, 2, 0, 2, 1, 0, 2, 0, 0},
         {1, 3, 2, 0, 2, 3, 0, 0, 5, 1, 0, 6, 3, 1, 2, 0},
         {41, 32, 74, 58, 73, 20, 57, 40, 56, 81, 77, 73, 19, 79, 47, 1},
         {63, 178, 104, 77, 77, 21, 63, 5, 35, 165, 35, 112, 15, 92, 174, 117},
         {
           3279597353, 1152837635, 525777921, 983028660, 1788681069, 394349415,
           1085584726, 692923387, 1791460006, 1135344886, 233773312, 1667286753,
           3964509666, 3326950437, 1049852035, 3760663060
         },
         {
           9222403993160335032, 6851572581276620023, 3442677429525386465,
           8169468397755360164, 1660876749058751610, 1919636272246645638,
           3297620067545534665, 7491703694890361239, 6047628908017320329,
           3715949778354453468, 8451824162624591978, 3067671135715614265,
           3151524482556972713, 2397419957808315502, 2717502014413562858,
           4093407444063901935
         },
     }},
     {
       0xADC37FFADA4050CA, 0xADC37FFADA4050CA, 0xADC37FFADA4050CA,
       0xADC37FFADA4050CA, 0xADC37FFADA4050CA, 0xADC37FFADA4050CA,
       0xADC37FFADA4050CA, 0x150238F297C2DF7F
     },
     {
       0x1.fff91f2386ee7p-1, 0x1.be2b59ec47992p-1, 0x1.5f8db1c39e3b2p-1,
       0x1.82582eda6cb76p-2, 0x1.e2bf9072b7f9cp-1, 0x1.81c6e595dfccp-2,
       0x1.e219e1e9f8bp-5, 0x1.789805e61dccap-2, 0x1.63cb45fb0ee94p-2,
       0x1.7af94d69f078p-5, 0x1.7ce9d90f6cp-8, 0x1.afdb37533d5e4p-2,
       0x1.2e193d3506b47p-1, 0x1.da94ee380cfecp-3, 0x1.3547d609b26ecp-1,
       0x1.e78594f968222p-2
     },
     {15, 13, 11, 31, 34, 22, 10, 30, 32, 7, 32, 2, 12, 18, 34, 11},
     0xADC37FFADA4050CA,
     "0000001001100100"},
};

TEST(RngKnownAnswers, Bits) {
  for (const KnownAnswers& known : kKnownAnswers) {
    Rng r(known.seed);
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(r.bits(), known.bits[i]) << "seed " << known.seed << " #" << i;
    }
  }
}

TEST(RngKnownAnswers, Below) {
  for (const KnownAnswers& known : kKnownAnswers) {
    for (std::size_t j = 0; j < kBelowN.size(); ++j) {
      Rng r(known.seed);
      for (std::size_t i = 0; i < 16; ++i) {
        EXPECT_EQ(r.below(kBelowN[j]), known.below[j][i])
            << "seed " << known.seed << " n " << kBelowN[j] << " #" << i;
      }
      EXPECT_EQ(r.bits(), known.below_next[j])
          << "seed " << known.seed << " n " << kBelowN[j];
    }
  }
}

TEST(RngKnownAnswers, UniformIndexChance) {
  for (const KnownAnswers& known : kKnownAnswers) {
    Rng u(known.seed);
    Rng x(known.seed);
    Rng c(known.seed);
    std::string chances;
    for (std::size_t i = 0; i < 16; ++i) {
      EXPECT_EQ(u.uniform(), known.uniform[i]) << "seed " << known.seed;
      EXPECT_EQ(x.index(37), known.index37[i]) << "seed " << known.seed;
      chances += c.chance(0.3) ? '1' : '0';
    }
    EXPECT_EQ(x.bits(), known.index_next) << "seed " << known.seed;
    EXPECT_EQ(chances, known.chance) << "seed " << known.seed;
  }
}

TEST(Splitmix, KnownTrajectoryIsStable) {
  // Pin the splitmix64 output for a fixed state so cross-platform
  // reproducibility regressions are caught.
  std::uint64_t state = 0;
  const std::uint64_t first = splitmix64(state);
  std::uint64_t state2 = 0;
  EXPECT_EQ(first, splitmix64(state2));
  EXPECT_NE(splitmix64(state), first);
}

}  // namespace
}  // namespace sehc
