// Eight-lane AVX-512 ports of glibc 2.36's scalar exp, log, erf and log1p.
//
// Each port follows the x86-64 libm.so.6 machine code lane for lane:
//  * exp and log resolve, through glibc's ifunc, to the FMA build of Arm's
//    table-driven routines on any AVX2+FMA CPU. _mm512_fmadd_pd appears
//    exactly where that build fuses a multiply into an add; every other
//    step is a separately rounded multiply, add or subtract.
//  * log1p is fdlibm's s_log1p.c, and its ifunc likewise picks an FMA build
//    on AVX2+FMA CPUs; the fused steps are marked the same way.
//  * erf is fdlibm's s_erf.c compiled as plain SSE2 code, so its own
//    arithmetic has no fused operations; the two exp calls it makes for
//    1.25 <= |x| < 6 go to the FMA exp above (ExpLanes here). Each of its
//    three ranges is a kernel of its own (ErfSmall, ErfMid, ErfLarge), and
//    ErfAvx512 sorts the lanes by range before running them (see "erf: range
//    compaction" below).
// The build passes -ffp-contract=off so the compiler cannot fuse the
// separate multiplies and adds either. Lanes outside the ported ranges
// (NaN, infinities, tiny and huge arguments, zero, negative and subnormal
// log arguments, log1p arguments at or below -1 and those on libm's
// |f| < 2^-20 branch) call the scalar std:: function on a copy of the input
// taken before anything is stored, so `out` may alias `a`.
//
// Only the kernel functions carry the avx512f/fma target attribute; no file
// flag changes the ISA, so inline functions this file shares with others
// are never compiled for AVX-512. LibmAvx512Active() (exp, log, erf) and
// Log1pAvx512Active() enable the ports only on CPUs with AVX-512F, and only
// after a self-check against the process's own libm.
//
// Constants are copied bit for bit from glibc 2.36's libm read-only data:
//  * erf's and log1p's coefficients come from fdlibm. Copyright (C) 1993 by
//    Sun Microsystems, Inc. All rights reserved. Developed at SunPro, a Sun
//    Microsystems, Inc. business. Permission to use, copy, modify, and
//    distribute this software is freely granted, provided that this notice
//    is preserved.
//  * exp's and log's tables and coefficients come from Arm's
//    optimized-routines (Copyright (c) 2018 Arm Limited, MIT licence), as
//    shipped in glibc's sysdeps/ieee754/dbl-64.
#include "vecmath/libm_avx512.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>

#if defined(__x86_64__) && defined(__GNUC__)
// GCC 12's AVX-512 header initialises its "undefined" vectors from
// themselves, which -Wuninitialized reports wherever they are inlined (GCC
// bug 105593, fixed in GCC 13).
#if !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#if !defined(__clang__)
#pragma GCC diagnostic pop
#endif

#define MZ_AVX512 __attribute__((target("avx512f,fma,popcnt")))

namespace vecmath::internal {
namespace {

constexpr double D(std::uint64_t bits) { return std::bit_cast<double>(bits); }

// ---- exp (glibc e_exp.c, EXP_TABLE_BITS = 7) ----
constexpr double kExpInvLn2N = D(0x40671547652b82fe);    // 128 / ln 2
constexpr double kExpNegLn2hiN = D(0xbf762e42fefa0000);  // -ln 2 / 128, high part
constexpr double kExpNegLn2loN = D(0xbd0cf79abc9e3b3a);  // -ln 2 / 128, low part
constexpr double kExpShift = D(0x4338000000000000);      // 0x1.8p52
constexpr double kExpC2 = D(0x3fdffffffffffdbd);
constexpr double kExpC3 = D(0x3fc555555555543c);
constexpr double kExpC4 = D(0x3fa55555cf172b91);
constexpr double kExpC5 = D(0x3f81111167a4d017);

// ---- log (glibc e_log.c, LOG_TABLE_BITS = 7) ----
constexpr double kLogLn2hi = D(0x3fe62e42fefa3800);
constexpr double kLogLn2lo = D(0x3d2ef35793c76730);
constexpr double kLogA[5] = {D(0xbfe0000000000001), D(0x3fd555555551305b),
                             D(0xbfcfffffffeb4590), D(0x3fc999b324f10111),
                             D(0xbfc55575e506c89f)};
constexpr double kLogB[11] = {D(0xbfe0000000000000), D(0x3fd5555555555577),
                              D(0xbfcffffffffffdcb), D(0x3fc999999995dd0c),
                              D(0xbfc55555556745a7), D(0x3fc24924a344de30),
                              D(0xbfbfffffa4423d65), D(0x3fbc7184282ad6ca),
                              D(0xbfb999eb43b068ff), D(0x3fb78182f7afd085),
                              D(0xbfb5521375d145cd)};
constexpr std::int64_t kLogOff = 0x3fe6000000000000;
// log takes its polynomial-only path for bits(x) in [kLogNearLo, kLogNearHi):
// 1 - 0x1p-4 <= x < 1 + 0x1.09p-4.
constexpr std::int64_t kLogNearLo = 0x3fee000000000000;
constexpr std::int64_t kLogNearHi = 0x3ff1090000000000;

// ---- erf (fdlibm s_erf.c) ----
constexpr double kErx = D(0x3feb0ac160000000);  // erf(1) rounded to 24 bits
// |x| < 0.84375: erf(x) = x + x * (pp(z) / qq(z)), z = x^2.
constexpr double kPp[5] = {D(0x3fc06eba8214db68), D(0xbfd4cd7d691cb913), D(0xbf9d2a51dbd7194f),
                           D(0xbf77a291236668e4), D(0xbef8ead6120016ac)};
constexpr double kQq[6] = {0.0,
                           D(0x3fd97779cddadc09),
                           D(0x3fb0a54c5536ceba),
                           D(0x3f74d022c4d36b0f),
                           D(0x3f215dc9221c1a10),
                           D(0xbed09c4342a26120)};
// 0.84375 <= |x| < 1.25: erf(x) = erx + pa(s) / qa(s), s = |x| - 1.
constexpr double kPa[7] = {D(0xbf6359b8bef77538), D(0x3fda8d00ad92b34d), D(0xbfd7d240fbb8c3f1),
                           D(0x3fd45fca805120e4), D(0xbfbc63983d3e28ec), D(0x3fa22a36599795eb),
                           D(0xbf61bf380a96073f)};
constexpr double kQa[7] = {0.0,
                           D(0x3fbb3e6618eee323),
                           D(0x3fe14af092eb6f33),
                           D(0x3fb2635cd99fe9a7),
                           D(0x3fc02660e763351f),
                           D(0x3f8bedc26b51dd1c),
                           D(0x3f888b545735151d)};
// 1.25 <= |x| < 1/0.35 (ra, sa) and 1/0.35 <= |x| < 6 (rb, sb):
// erf(x) = 1 - exp(-z^2 - 0.5625) * exp((z - |x|)(z + |x|) + R/S) / |x|,
// with z = |x| cut to its high word and R/S polynomials in s = 1/x^2. rb
// has one coefficient fewer than ra and sb one fewer than sa; the zero
// padding (rb[7], sb[8]) makes the rb/sb sums add an exact +0 to the same
// terms, so one evaluation with per-lane coefficients serves both.
constexpr double kRa[8] = {D(0xbf843412600d6435), D(0xbfe63416e4ba7360), D(0xc0251e0441b0e726),
                           D(0xc04f300ae4cba38d), D(0xc0644cb184282266), D(0xc067135cebccabb2),
                           D(0xc054526557e4d2f2), D(0xc023a0efc69ac25c)};
constexpr double kSa[9] = {0.0,
                           D(0x4033a6b9bd707687),
                           D(0x4061350c526ae721),
                           D(0x407b290dd58a1a71),
                           D(0x40842b1921ec2868),
                           D(0x407ad02157700314),
                           D(0x405b28a3ee48ae2c),
                           D(0x401a47ef8e484a93),
                           D(0xbfaeeff2ee749a62)};
constexpr double kRb[8] = {D(0xbf84341239e86f4a), D(0xbfe993ba70c285de), D(0xc031c209555f995a),
                           D(0xc064145d43c5ed98), D(0xc083ec881375f228), D(0xc09004616a2e5992),
                           D(0xc07e384e9bdc383f), 0.0};
constexpr double kSb[9] = {0.0,
                           D(0x403e568b261d5190),
                           D(0x40745cae221b9f0a),
                           D(0x409802eb189d5118),
                           D(0x40a8ffb7688c246a),
                           D(0x40a3f219cedf3be6),
                           D(0x407da874e79fe763),
                           D(0xc03670e242712d62),
                           0.0};
// High words of |x| at erf's range boundaries.
constexpr std::int64_t kErfTiny = 0x3e300000;   // 2^-28
constexpr std::int64_t kErfSmall = 0x3feb0000;  // 0.84375
constexpr std::int64_t kErfMid = 0x3ff40000;    // 1.25
constexpr std::int64_t kErfRa = 0x4006db6e;     // 1/0.35
constexpr std::int64_t kErfBig = 0x40180000;    // 6

// ---- log1p (fdlibm s_log1p.c) ----
constexpr double kLn2Hi = D(0x3fe62e42fee00000);
constexpr double kLn2Lo = D(0x3dea39ef35793c76);
// log(1 + f) = 2s + s R(s^2), s = f / (2 + f); R(z) = Lp[1] z + ... + Lp[7] z^7.
constexpr double kLp[8] = {0.0,
                           D(0x3fe5555555555593),
                           D(0x3fd999999997fa04),
                           D(0x3fd2492494229359),
                           D(0x3fcc71c51d8e78af),
                           D(0x3fc7466496cb03de),
                           D(0x3fc39a09d078c69f),
                           D(0x3fc2f112df3e5244)};
// High words of x at log1p's branch edges (libm compares them signed):
// 2^-29 <= |x| < 0.41422 takes f = x, k = 0, except x <= -0.2929, which
// joins 0.41422 <= x < 2^53 in reducing u = 1 + x to 2^k (1 + f).
constexpr std::int64_t kLog1pTiny = 0x3e200000;     // 2^-29
constexpr std::int64_t kLog1pPos = 0x3fda827a;      // 0.41422
constexpr std::int64_t kLog1pBig = 0x43400000;      // 2^53
constexpr std::int64_t kLog1pNegTiny = 0xbe200000;  // -2^-29
constexpr std::int64_t kLog1pNeg = 0xbfd2bec4;      // -0.2929
constexpr std::int64_t kLog1pNegOne = 0xbff00000;   // -1
// u's mantissa high bits from which u is halved (u / 2^k >= sqrt(2)).
constexpr std::int64_t kLog1pHalve = 0x6a09e;

// glibc __exp_data.tab: for i in [0, 128), {tail, scale bits - (i << 45)},
// where 2^(i/128) ~= scale * (1 + tail).
alignas(64) constexpr std::uint64_t kExpTab[256] = {
    0x0000000000000000, 0x3ff0000000000000, 0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061, 0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574, 0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8, 0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f, 0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2, 0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51, 0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0, 0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b, 0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75, 0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa, 0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6, 0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238, 0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd, 0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1, 0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b, 0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715, 0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff, 0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb, 0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7, 0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422, 0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a, 0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d, 0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0, 0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27, 0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7, 0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82, 0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da, 0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429, 0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148, 0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585, 0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225, 0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd, 0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f, 0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74, 0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9, 0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187, 0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62, 0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13, 0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed, 0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db, 0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736, 0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5, 0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50, 0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090, 0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565, 0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d, 0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf, 0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad, 0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb, 0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47, 0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2, 0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c, 0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b, 0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069, 0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c, 0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487, 0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285, 0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f, 0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6, 0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da, 0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27, 0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540, 0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8, 0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
};

// glibc __log_data.tab: for i in [0, 128), {invc, logc}, c near the centre
// of the i-th subinterval of [0x1.6p-1, 0x1.6p0).
alignas(64) constexpr std::uint64_t kLogTab[256] = {
    0x3ff734f0c3e0de9f, 0xbfd7cc7f79e69000, 0x3ff713786a2ce91f, 0xbfd76feec20d0000,
    0x3ff6f26008fab5a0, 0xbfd713e31351e000, 0x3ff6d1a61f138c7d, 0xbfd6b85b38287800,
    0x3ff6b1490bc5b4d1, 0xbfd65d5590807800, 0x3ff69147332f0cba, 0xbfd602d076180000,
    0x3ff6719f18224223, 0xbfd5a8ca86909000, 0x3ff6524f99a51ed9, 0xbfd54f4356035000,
    0x3ff63356aa8f24c4, 0xbfd4f637c36b4000, 0x3ff614b36b9ddc14, 0xbfd49da7fda85000,
    0x3ff5f66452c65c4c, 0xbfd445923989a800, 0x3ff5d867b5912c4f, 0xbfd3edf439b0b800,
    0x3ff5babccb5b90de, 0xbfd396ce448f7000, 0x3ff59d61f2d91a78, 0xbfd3401e17bda000,
    0x3ff5805612465687, 0xbfd2e9e2ef468000, 0x3ff56397cee76bd3, 0xbfd2941b3830e000,
    0x3ff54725e2a77f93, 0xbfd23ec58cda8800, 0x3ff52aff42064583, 0xbfd1e9e129279000,
    0x3ff50f22dbb2bddf, 0xbfd1956d2b48f800, 0x3ff4f38f4734ded7, 0xbfd141679ab9f800,
    0x3ff4d843cfde2840, 0xbfd0edd094ef9800, 0x3ff4bd3ec078a3c8, 0xbfd09aa518db1000,
    0x3ff4a27fc3e0258a, 0xbfd047e65263b800, 0x3ff4880524d48434, 0xbfcfeb224586f000,
    0x3ff46dce1b192d0b, 0xbfcf474a7517b000, 0x3ff453d9d3391854, 0xbfcea4443d103000,
    0x3ff43a2744b4845a, 0xbfce020d44e9b000, 0x3ff420b54115f8fb, 0xbfcd60a22977f000,
    0x3ff40782da3ef4b1, 0xbfccc00104959000, 0x3ff3ee8f5d57fe8f, 0xbfcc202956891000,
    0x3ff3d5d9a00b4ce9, 0xbfcb81178d811000, 0x3ff3bd60c010c12b, 0xbfcae2c9ccd3d000,
    0x3ff3a5242b75dab8, 0xbfca45402e129000, 0x3ff38d22cd9fd002, 0xbfc9a877681df000,
    0x3ff3755bc5847a1c, 0xbfc90c6d69483000, 0x3ff35dce49ad36e2, 0xbfc87120a645c000,
    0x3ff34679984dd440, 0xbfc7d68fb4143000, 0x3ff32f5cceffcb24, 0xbfc73cb83c627000,
    0x3ff3187775a10d49, 0xbfc6a39a9b376000, 0x3ff301c8373e3990, 0xbfc60b3154b7a000,
    0x3ff2eb4ebb95f841, 0xbfc5737d76243000, 0x3ff2d50a0219a9d1, 0xbfc4dc7b8fc23000,
    0x3ff2bef9a8b7fd2a, 0xbfc4462c51d20000, 0x3ff2a91c7a0c1bab, 0xbfc3b08abc830000,
    0x3ff293726014b530, 0xbfc31b996b490000, 0x3ff27dfa5757a1f5, 0xbfc2875490a44000,
    0x3ff268b39b1d3bbf, 0xbfc1f3b9f879a000, 0x3ff2539d838ff5bd, 0xbfc160c8252ca000,
    0x3ff23eb7aac9083b, 0xbfc0ce7f57f72000, 0x3ff22a012ba940b6, 0xbfc03cdc49fea000,
    0x3ff2157996cc4132, 0xbfbf57bdbc4b8000, 0x3ff201201dd2fc9b, 0xbfbe370896404000,
    0x3ff1ecf4494d480b, 0xbfbd17983ef94000, 0x3ff1d8f5528f6569, 0xbfbbf9674ed8a000,
    0x3ff1c52311577e7c, 0xbfbadc79202f6000, 0x3ff1b17c74cb26e9, 0xbfb9c0c3e7288000,
    0x3ff19e010c2c1ab6, 0xbfb8a646b372c000, 0x3ff18ab07bb670bd, 0xbfb78d01b3ac0000,
    0x3ff1778a25efbcb6, 0xbfb674f145380000, 0x3ff1648d354c31da, 0xbfb55e0e6d878000,
    0x3ff151b990275fdd, 0xbfb4485cdea1e000, 0x3ff13f0ea432d24c, 0xbfb333d94d6aa000,
    0x3ff12c8b7210f9da, 0xbfb22079f8c56000, 0x3ff11a3028ecb531, 0xbfb10e4698622000,
    0x3ff107fbda8434af, 0xbfaffa6c6ad20000, 0x3ff0f5ee0f4e6bb3, 0xbfadda8d4a774000,
    0x3ff0e4065d2a9fce, 0xbfabbcece4850000, 0x3ff0d244632ca521, 0xbfa9a1894012c000,
    0x3ff0c0a77ce2981a, 0xbfa788583302c000, 0x3ff0af2f83c636d1, 0xbfa5715e67d68000,
    0x3ff09ddb98a01339, 0xbfa35c8a49658000, 0x3ff08cabaf52e7df, 0xbfa149e364154000,
    0x3ff07b9f2f4e28fb, 0xbf9e72c082eb8000, 0x3ff06ab58c358f19, 0xbf9a55f152528000,
    0x3ff059eea5ecf92c, 0xbf963d62cf818000, 0x3ff04949cdd12c90, 0xbf9228fb8caa0000,
    0x3ff038c6c6f0ada9, 0xbf8c317b20f90000, 0x3ff02865137932a9, 0xbf8419355daa0000,
    0x3ff0182427ea7348, 0xbf781203c2ec0000, 0x3ff008040614b195, 0xbf60040979240000,
    0x3fefe01ff726fa1a, 0x3f6feff384900000, 0x3fefa11cc261ea74, 0x3f87dc41353d0000,
    0x3fef6310b081992e, 0x3f93cea3c4c28000, 0x3fef25f63ceeadcd, 0x3f9b9fc114890000,
    0x3feee9c8039113e7, 0x3fa1b0d8ce110000, 0x3feeae8078cbb1ab, 0x3fa58a5bd001c000,
    0x3fee741aa29d0c9b, 0x3fa95c8340d88000, 0x3fee3a91830a99b5, 0x3fad276aef578000,
    0x3fee01e009609a56, 0x3fb07598e598c000, 0x3fedca01e577bb98, 0x3fb253f5e30d2000,
    0x3fed92f20b7c9103, 0x3fb42edd8b380000, 0x3fed5cac66fb5cce, 0x3fb606598757c000,
    0x3fed272caa5ede9d, 0x3fb7da76356a0000, 0x3fecf26e3e6b2ccd, 0x3fb9ab434e1c6000,
    0x3fecbe6da2a77902, 0x3fbb78c7bb0d6000, 0x3fec8b266d37086d, 0x3fbd431332e72000,
    0x3fec5894bd5d5804, 0x3fbf0a3171de6000, 0x3fec26b533bb9f8c, 0x3fc067152b914000,
    0x3febf583eeece73f, 0x3fc147858292b000, 0x3febc4fd75db96c1, 0x3fc2266ecdca3000,
    0x3feb951e0c864a28, 0x3fc303d7a6c55000, 0x3feb65e2c5ef3e2c, 0x3fc3dfc33c331000,
    0x3feb374867c9888b, 0x3fc4ba366b7a8000, 0x3feb094b211d304a, 0x3fc5933928d1f000,
    0x3feadbe885f2ef7e, 0x3fc66acd2418f000, 0x3feaaf1d31603da2, 0x3fc740f8ec669000,
    0x3fea82e63fd358a7, 0x3fc815c0f51af000, 0x3fea5740ef09738b, 0x3fc8e92954f68000,
    0x3fea2c2a90ab4b27, 0x3fc9bb3602f84000, 0x3fea01a01393f2d1, 0x3fca8bed1c2c0000,
    0x3fe9d79f24db3c1b, 0x3fcb5b515c01d000, 0x3fe9ae2505c7b190, 0x3fcc2967ccbcc000,
    0x3fe9852ef297ce2f, 0x3fccf635d5486000, 0x3fe95cbaeea44b75, 0x3fcdc1bd3446c000,
    0x3fe934c69de74838, 0x3fce8c01b8cfe000, 0x3fe90d4f2f6752e6, 0x3fcf5509c0179000,
    0x3fe8e6528effd79d, 0x3fd00e6c121fb800, 0x3fe8bfce9fcc007c, 0x3fd071b80e93d000,
    0x3fe899c0dabec30e, 0x3fd0d46b9e867000, 0x3fe87427aa2317fb, 0x3fd13687334bd000,
    0x3fe84f00acb39a08, 0x3fd1980d67234800, 0x3fe82a49e8653e55, 0x3fd1f8ffe0cc8000,
    0x3fe8060195f40260, 0x3fd2595fd7636800, 0x3fe7e22563e0a329, 0x3fd2b9300914a800,
    0x3fe7beb377dcb5ad, 0x3fd3187210436000, 0x3fe79baa679725c2, 0x3fd377266dec1800,
    0x3fe77907f2170657, 0x3fd3d54ffbaf3000, 0x3fe756cadbd6130c, 0x3fd432eee32fe000,
};

MZ_AVX512 inline __m512d Set(double v) { return _mm512_set1_pd(v); }
MZ_AVX512 inline __m512i SetI(std::int64_t v) { return _mm512_set1_epi64(v); }
MZ_AVX512 inline __m512d Mul(__m512d a, __m512d b) { return _mm512_mul_pd(a, b); }
MZ_AVX512 inline __m512d Add(__m512d a, __m512d b) { return _mm512_add_pd(a, b); }
MZ_AVX512 inline __m512d Sub(__m512d a, __m512d b) { return _mm512_sub_pd(a, b); }
MZ_AVX512 inline __m512d Fma(__m512d a, __m512d b, __m512d c) { return _mm512_fmadd_pd(a, b, c); }
// c0 + s * c1, rounded twice, as erf's SSE2 code computes it.
MZ_AVX512 inline __m512d MulAdd(__m512d s, double c1, double c0) {
  return Add(Mul(s, Set(c1)), Set(c0));
}
// Lanes whose v lies in [lo, hi).
MZ_AVX512 inline __mmask8 InRange(__m512i v, std::int64_t lo, std::int64_t hi) {
  return _mm512_cmplt_epu64_mask(_mm512_sub_epi64(v, SetI(lo)), SetI(hi - lo));
}
MZ_AVX512 inline __mmask8 Not(__mmask8 m) { return static_cast<__mmask8>(~m); }
MZ_AVX512 inline __m512d Xor(__m512d a, __m512d b) {
  return _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
}
MZ_AVX512 inline __m512d Gather(__m512i index, const std::uint64_t* table) {
  return _mm512_i64gather_pd(index, table, 8);
}

// glibc's exp for 2^-54 <= |x| < 512; `special` gets the other lanes.
MZ_AVX512 inline __m512d ExpLanes(__m512d x, __mmask8* special) {
  const __m512i abstop =
      _mm512_and_si512(_mm512_srli_epi64(_mm512_castpd_si512(x), 52), SetI(0x7ff));
  *special = Not(InRange(abstop, 0x3c9, 0x408));
  // x = k ln2/128 + r with |r| <= ln2/256; exp(x) = 2^(k/128) exp(r).
  __m512d kd = Fma(x, Set(kExpInvLn2N), Set(kExpShift));
  const __m512i ki = _mm512_castpd_si512(kd);
  kd = Sub(kd, Set(kExpShift));
  __m512d r = Fma(kd, Set(kExpNegLn2hiN), x);
  r = Fma(kd, Set(kExpNegLn2loN), r);
  const __m512i idx = _mm512_slli_epi64(_mm512_and_si512(ki, SetI(127)), 1);
  const __m512d tail = Gather(idx, kExpTab);
  const __m512i sbits = _mm512_add_epi64(_mm512_i64gather_epi64(_mm512_add_epi64(idx, SetI(1)),
                                                                kExpTab, 8),
                                         _mm512_slli_epi64(ki, 45));
  const __m512d c23 = Fma(r, Set(kExpC3), Set(kExpC2));
  const __m512d c45 = Fma(r, Set(kExpC5), Set(kExpC4));
  const __m512d r2 = Mul(r, r);
  __m512d tmp = Fma(c23, r2, Add(tail, r));
  tmp = Fma(Mul(r2, r2), c45, tmp);
  const __m512d scale = _mm512_castsi512_pd(sbits);
  return Fma(scale, tmp, scale);
}

// glibc's log for positive normal finite x; `special` gets the other lanes.
MZ_AVX512 inline __m512d LogLanes(__m512d x, __mmask8* special) {
  const __m512i ix = _mm512_castpd_si512(x);
  const __mmask8 near1 = InRange(ix, kLogNearLo, kLogNearHi);
  const __mmask8 normal = InRange(_mm512_srli_epi64(ix, 48), 0x0010, 0x7ff0);
  *special = Not(near1 | normal);
  __m512d y = Set(0.0);
  if ((normal & Not(near1)) != 0) {
    // x = 2^k z with z in [kLogOff, 2 kLogOff); log(x) = k ln2 + log(c) +
    // log1p(z/c - 1) for the table's c near z.
    const __m512i tmp = _mm512_sub_epi64(ix, SetI(kLogOff));
    const __m512i i2 =
        _mm512_slli_epi64(_mm512_and_si512(_mm512_srli_epi64(tmp, 45), SetI(127)), 1);
    const __m512i k = _mm512_srai_epi64(tmp, 52);
    const __m512d z = _mm512_castsi512_pd(
        _mm512_sub_epi64(ix, _mm512_and_si512(tmp, SetI(std::int64_t(0xfffULL << 52)))));
    const __m512d invc = Gather(i2, kLogTab);
    const __m512d logc = Gather(_mm512_add_epi64(i2, SetI(1)), kLogTab);
    const __m512d kd = _mm512_cvtepi32_pd(_mm512_cvtepi64_epi32(k));
    const __m512d w = Fma(kd, Set(kLogLn2hi), logc);
    const __m512d r = Fma(z, invc, Set(-1.0));
    const __m512d hi = Add(w, r);
    const __m512d lo = Fma(kd, Set(kLogLn2lo), Add(Sub(w, hi), r));
    const __m512d r2 = Mul(r, r);
    const __m512d p = Fma(Fma(r, Set(kLogA[4]), Set(kLogA[3])), r2,
                          Fma(r, Set(kLogA[2]), Set(kLogA[1])));
    y = Add(Fma(Mul(r, r2), p, Fma(r2, Set(kLogA[0]), lo)), hi);
  }
  if (near1 != 0) {
    // log(1 + r) as r + B[0] r^2 (computed in two parts) + r^3 poly(r).
    const __m512d r = Sub(x, Set(1.0));
    const __m512d r2 = Mul(r, r);
    const __m512d r3 = Mul(r, r2);
    const __m512d p1 = Fma(r2, Set(kLogB[3]), Fma(r, Set(kLogB[2]), Set(kLogB[1])));
    const __m512d p2 = Fma(r2, Set(kLogB[6]), Fma(r, Set(kLogB[5]), Set(kLogB[4])));
    __m512d p3 = Fma(r2, Set(kLogB[9]), Fma(r, Set(kLogB[8]), Set(kLogB[7])));
    p3 = Fma(r3, Set(kLogB[10]), p3);
    const __m512d poly = Fma(Fma(p3, r3, p2), r3, p1);
    const __m512d split = Set(0x1p27);
    const __m512d rhi = _mm512_fnmadd_pd(r, split, Fma(r, split, r));
    const __m512d rlo = Sub(r, rhi);
    const __m512d rhi2 = Mul(rhi, rhi);
    const __m512d hi = Fma(rhi2, Set(kLogB[0]), r);
    __m512d lo = Fma(rhi2, Set(kLogB[0]), Sub(r, hi));
    lo = Fma(Mul(Set(kLogB[0]), rlo), Add(r, rhi), lo);
    y = _mm512_mask_blend_pd(near1, y, Add(hi, Fma(poly, r3, lo)));
  }
  return y;
}

// fdlibm's log1p for -1 < x < 2^53 with |x| >= 2^-29 and libm's `hu` not
// zero; `special` gets the other lanes. hu == 0 marks |f| < 2^-20 (and every
// x = 2^k - 1), where libm takes a short series this port leaves to it.
MZ_AVX512 inline __m512d Log1pLanes(__m512d x, __mmask8* special) {
  const __m512i hx = _mm512_srli_epi64(_mm512_castpd_si512(x), 32);
  const __mmask8 direct =
      InRange(hx, kLog1pTiny, kLog1pPos) | InRange(hx, kLog1pNegTiny, kLog1pNeg);
  const __mmask8 via_u = InRange(hx, kLog1pPos, kLog1pBig) | InRange(hx, kLog1pNeg, kLog1pNegOne);
  *special = Not(direct | via_u);
  const __m512d one = Set(1.0);
  const __m512i zero = _mm512_setzero_si512();
  __m512d f = x;
  __m512i k = zero;
  __m512d c = Set(0.0);
  if (via_u != 0) {
    // u = 1 + x = 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2); c corrects
    // the rounding of 1 + x.
    const __m512d u = Add(x, one);
    const __m512i ubits = _mm512_castpd_si512(u);
    const __m512i hu = _mm512_srli_epi64(ubits, 32);
    const __m512i ku = _mm512_sub_epi64(_mm512_srli_epi64(hu, 20), SetI(1023));
    // c = (k > 0 ? 1 - (u - x) : x - (u - 1)) / u, with u's unscaled k.
    const __mmask8 kpos = _mm512_cmpgt_epi64_mask(ku, zero);
    c = _mm512_div_pd(_mm512_mask_blend_pd(kpos, Sub(x, Sub(u, one)), Sub(one, Sub(u, x))), u);
    const __m512i frac = _mm512_and_si512(hu, SetI(0xfffff));
    const __mmask8 halve = _mm512_cmpge_epi64_mask(frac, SetI(kLog1pHalve));
    const __m512i top = _mm512_mask_blend_epi64(halve, SetI(0x3ff00000), SetI(0x3fe00000));
    const __m512i un = _mm512_or_si512(_mm512_slli_epi64(_mm512_or_si512(frac, top), 32),
                                       _mm512_and_si512(ubits, SetI(0xffffffff)));
    k = _mm512_maskz_mov_epi64(via_u, _mm512_mask_add_epi64(ku, halve, ku, SetI(1)));
    const __m512i hu_left = _mm512_mask_blend_epi64(
        halve, frac, _mm512_srai_epi64(_mm512_sub_epi64(SetI(0x100000), frac), 2));
    *special |= via_u & _mm512_cmpeq_epi64_mask(hu_left, zero);
    f = _mm512_mask_blend_pd(via_u, x, Sub(_mm512_castsi512_pd(un), one));
  }
  const __m512d hfsq = Mul(Mul(f, Set(0.5)), f);
  const __m512d s = _mm512_div_pd(f, Add(f, Set(2.0)));
  const __m512d z = Mul(s, s);
  const __m512d r2 = Fma(z, Set(kLp[3]), Set(kLp[2]));
  const __m512d r3 = Fma(z, Set(kLp[5]), Set(kLp[4]));
  const __m512d r4 = Fma(z, Set(kLp[7]), Set(kLp[6]));
  const __m512d z2 = Mul(z, z);
  const __m512d z4 = Mul(z2, z2);
  const __m512d z6 = Mul(z2, z4);
  __m512d r = Fma(z, Set(kLp[1]), Mul(z2, r2));
  r = Fma(z4, r3, r);
  r = Fma(z6, r4, r);
  const __m512d sr = Mul(Add(r, hfsq), s);
  __m512d y = Sub(f, Sub(hfsq, sr));  // k == 0
  const __mmask8 scaled = _mm512_test_epi64_mask(k, k);
  if (scaled != 0) {
    const __m512d kd = _mm512_cvtepi32_pd(_mm512_cvtepi64_epi32(k));
    const __m512d lo = Add(Fma(kd, Set(kLn2Lo), c), sr);
    y = _mm512_mask_blend_pd(scaled, y, _mm512_fmsub_pd(kd, Set(kLn2Hi), Sub(Sub(hfsq, lo), f)));
  }
  return y;
}

// s * c[i] per lane, where c is table a in the `ra` lanes and table b in
// the others. Both products are taken and merged rather than the
// coefficients blended first, so each constant feeds its multiply or add
// straight from memory and GCC no longer spills blended coefficients.
MZ_AVX512 inline __m512d MulPick(__m512d s, __mmask8 ra, const double* a, const double* b, int i) {
  return _mm512_mask_mul_pd(Mul(s, Set(b[i])), ra, s, Set(a[i]));
}
// c[i] + s * c[i + 1], with c picked per lane as above.
MZ_AVX512 inline __m512d Pair(__m512d s, __mmask8 ra, const double* a, const double* b, int i) {
  const __m512d m = MulPick(s, ra, a, b, i + 1);
  return _mm512_mask_add_pd(Add(m, Set(b[i])), ra, m, Set(a[i]));
}

// The high word of |x| in each lane, which selects erf's range.
MZ_AVX512 inline __m512i ErfHigh(__m512d x) {
  return _mm512_srli_epi64(_mm512_castpd_si512(_mm512_abs_pd(x)), 32);
}

// fdlibm's erf, one kernel per range. Each Lanes() is that range's body of
// s_erf.c, op for op, for lanes known to lie in the range: high words of
// |x| in [kLo, kHi). kPad is an argument inside the range, which fills the
// lanes past the end of a partial vector.
struct ErfRange {
  static double Scalar(double x) { return std::erf(x); }
};

// 2^-28 <= |x| < 0.84375: erf(x) = x + x * (pp(z) / qq(z)), z = x^2.
struct ErfSmall : ErfRange {
  static constexpr std::int64_t kLo = kErfTiny;
  static constexpr std::int64_t kHi = kErfSmall;
  static constexpr double kPad = 0.5;
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) {
    *special = 0;
    const __m512d z = Mul(x, x);
    const __m512d z2 = Mul(z, z);
    const __m512d z4 = Mul(z2, z2);
    const __m512d r = Add(Add(MulAdd(z, kPp[1], kPp[0]), Mul(z2, MulAdd(z, kPp[3], kPp[2]))),
                          Mul(z4, Set(kPp[4])));
    const __m512d s =
        Add(Add(Add(Mul(z, Set(kQq[1])), Set(1.0)), Mul(z2, MulAdd(z, kQq[3], kQq[2]))),
            Mul(z4, MulAdd(z, kQq[5], kQq[4])));
    return Add(Mul(_mm512_div_pd(r, s), x), x);
  }
};

// 0.84375 <= |x| < 1.25: erf(x) = ±(erx + pa(s) / qa(s)), s = |x| - 1.
struct ErfMid : ErfRange {
  static constexpr std::int64_t kLo = kErfSmall;
  static constexpr std::int64_t kHi = kErfMid;
  static constexpr double kPad = 1.0;
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) {
    *special = 0;
    const __m512d ax = _mm512_abs_pd(x);
    const __m512d sign = Xor(x, ax);
    const __m512d one = Set(1.0);
    const __m512d s = Sub(ax, one);
    const __m512d s2 = Mul(s, s);
    const __m512d s4 = Mul(s2, s2);
    const __m512d s6 = Mul(s4, s2);
    const __m512d p = Add(Add(Add(MulAdd(s, kPa[1], kPa[0]), Mul(s2, MulAdd(s, kPa[3], kPa[2]))),
                              Mul(s4, MulAdd(s, kPa[5], kPa[4]))),
                          Mul(s6, Set(kPa[6])));
    const __m512d q =
        Add(Add(Add(Add(Mul(s, Set(kQa[1])), one), Mul(s2, MulAdd(s, kQa[3], kQa[2]))),
                Mul(s4, MulAdd(s, kQa[5], kQa[4]))),
            Mul(s6, Set(kQa[6])));
    return Xor(Add(_mm512_div_pd(p, q), Set(kErx)), sign);
  }
};

// 1.25 <= |x| < 6: erf(x) = ±(1 - exp(-z^2 - 0.5625) exp((z - |x|)(z + |x|)
// + R/S) / |x|). `special` gets the lanes where either exp argument leaves
// exp's main path, which no argument in the range does (the two arguments
// stay in [-36.6, -2.1] and [-0.22, -0.023]).
struct ErfLarge : ErfRange {
  static constexpr std::int64_t kLo = kErfMid;
  static constexpr std::int64_t kHi = kErfBig;
  static constexpr double kPad = 2.0;
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) {
    const __m512d ax = _mm512_abs_pd(x);
    const __m512d sign = Xor(x, ax);
    const __m512d one = Set(1.0);
    const __mmask8 ra = _mm512_cmplt_epu64_mask(ErfHigh(x), SetI(kErfRa));
    const __m512d s = _mm512_div_pd(one, Mul(ax, ax));
    const __m512d s2 = Mul(s, s);
    const __m512d s4 = Mul(s2, s2);
    const __m512d s6 = Mul(s4, s2);
    const __m512d s8 = Mul(s4, s4);
    const __m512d r = Add(Add(Add(Pair(s, ra, kRa, kRb, 0), Mul(s2, Pair(s, ra, kRa, kRb, 2))),
                              Mul(s4, Pair(s, ra, kRa, kRb, 4))),
                          Mul(s6, Pair(s, ra, kRa, kRb, 6)));
    const __m512d q =
        Add(Add(Add(Add(Add(MulPick(s, ra, kSa, kSb, 1), one), Mul(s2, Pair(s, ra, kSa, kSb, 2))),
                    Mul(s4, Pair(s, ra, kSa, kSb, 4))),
                Mul(s6, Pair(s, ra, kSa, kSb, 6))),
            MulPick(s8, ra, kSa, kSb, 8));
    const __m512d z =
        _mm512_castsi512_pd(_mm512_and_si512(_mm512_castpd_si512(ax), SetI(~0xffffffffLL)));
    __mmask8 special1;
    __mmask8 special2;
    const __m512d e1 = ExpLanes(Sub(Mul(Xor(z, Set(-0.0)), z), Set(0.5625)), &special1);
    const __m512d e2 =
        ExpLanes(Add(Mul(Sub(z, ax), Add(z, ax)), _mm512_div_pd(r, q)), &special2);
    *special = special1 | special2;
    return Xor(Sub(one, _mm512_div_pd(Mul(e2, e1), ax)), sign);
  }
};

struct ExpKernel {
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) { return ExpLanes(x, special); }
  static double Scalar(double x) { return std::exp(x); }
};
struct LogKernel {
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) { return LogLanes(x, special); }
  static double Scalar(double x) { return std::log(x); }
};
struct Log1pKernel {
  MZ_AVX512 static __m512d Lanes(__m512d x, __mmask8* special) { return Log1pLanes(x, special); }
  static double Scalar(double x) { return std::log1p(x); }
};

// Stores the `live` lanes of y to out, with each `special` lane replaced by
// the scalar function of that lane of x. x is the input as loaded, so this
// is right even when out aliases the input.
template <typename K>
MZ_AVX512 void StoreLanes(__m512d x, __m512d y, __mmask8 special, __mmask8 live, double* out) {
  alignas(64) double xs[8];
  alignas(64) double ys[8];
  _mm512_store_pd(xs, x);
  _mm512_store_pd(ys, y);
  for (int j = 0; j < 8; ++j) {
    if ((special >> j) & 1) {
      ys[j] = K::Scalar(xs[j]);
    }
  }
  _mm512_mask_storeu_pd(out, live, _mm512_load_pd(ys));
}

// The first min(k, 8) lanes.
inline __mmask8 Live(long k) { return k >= 8 ? 0xff : static_cast<__mmask8>((1u << k) - 1); }

template <typename K>
MZ_AVX512 void Map(long n, const double* a, double* out) {
  long i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_loadu_pd(a + i);
    __mmask8 special;
    const __m512d y = K::Lanes(x, &special);
    if (special == 0) {
      _mm512_storeu_pd(out + i, y);
    } else {
      StoreLanes<K>(x, y, special, 0xff, out + i);
    }
  }
  if (i < n) {
    // The lanes past the end load 0.5, which every kernel handles in
    // vector form, and are never stored.
    const __mmask8 live = Live(n - i);
    const __m512d x = _mm512_mask_loadu_pd(Set(0.5), live, a + i);
    __mmask8 special;
    const __m512d y = K::Lanes(x, &special);
    StoreLanes<K>(x, y, special & live, live, out + i);
  }
}

// ---- erf: range compaction ----
//
// erf runs different code in each of its three ranges, and Black Scholes'
// arguments put lanes of two or three ranges into almost every vector, so a
// kernel that blends the ranges per vector runs all three bodies, both exp
// calls and three divides on nearly every vector. ErfAvx512 instead runs
// each range's kernel only on that range's lanes:
//  * A run of vectors whose lanes all lie in one range goes straight through
//    that range's kernel (ErfRun).
//  * Anything else is taken kErfChunk elements at a time (ErfSorted).
//    _mm512_maskz_compress_pd packs each vector's lanes of each range into
//    that range's buffer, each range's kernel runs over its own buffer in
//    place, and _mm512_mask_expand_pd puts the results back in input order.
//    Lanes in no range (NaN, infinities, |x| < 2^-28 and |x| >= 6) are packed
//    the same way into a fourth buffer and go to std::erf.
// A chunk reads all of its input before it writes any output, and a run
// reads each vector before writing it, so `out` may alias `a`.

// Elements per sorted chunk: its four buffers (16.5 KiB), input and output
// stay in L1.
constexpr int kErfChunk = 512;

// Appends the `m` lanes of x to buf at *n.
MZ_AVX512 inline void Pack(__mmask8 m, __m512d x, double* buf, int* n) {
  if (m != 0) {
    _mm512_storeu_pd(buf + *n, _mm512_maskz_compress_pd(m, x));
    *n += __builtin_popcount(m);
  }
}

// Moves the next popcount(m) values of buf, from *n on, into y's `m` lanes.
MZ_AVX512 inline __m512d Unpack(__m512d y, __mmask8 m, const double* buf, int* n) {
  if (m != 0) {
    y = _mm512_mask_expand_pd(y, m, _mm512_loadu_pd(buf + *n));
    *n += __builtin_popcount(m);
  }
  return y;
}

// Runs R over buf[0, n) in place, in whole vectors: the last one is padded
// with R::kPad, for which buf has a vector of room past n.
template <typename R>
MZ_AVX512 void EvalInPlace(int n, double* buf) {
  _mm512_storeu_pd(buf + n, Set(R::kPad));
  Map<R>((n + 7) & ~7, buf, buf);
}

// erf of a[0, m), m <= kErfChunk, sorted by range.
MZ_AVX512 void ErfSorted(int m, const double* a, double* out) {
  // Each Pack stores, and each Unpack loads, a whole vector at its cursor.
  alignas(64) double small[kErfChunk + 8];
  alignas(64) double mid[kErfChunk + 8];
  alignas(64) double large[kErfChunk + 8];
  alignas(64) double other[kErfChunk + 8];
  __mmask8 in_small[kErfChunk / 8];
  __mmask8 in_mid[kErfChunk / 8];
  __mmask8 in_large[kErfChunk / 8];
  __mmask8 in_other[kErfChunk / 8];
  const int nv = (m + 7) / 8;
  int n_small = 0;
  int n_mid = 0;
  int n_large = 0;
  int n_other = 0;
  for (int v = 0; v < nv; ++v) {
    // The phases of a chunk do not overlap its memory traffic with compute
    // the way a streaming loop does, so the next chunk's input is fetched
    // while this one is sorted. The address may lie past the end of `a`,
    // which a prefetch tolerates; it is formed as an integer for that reason.
    _mm_prefetch(reinterpret_cast<const char*>(reinterpret_cast<std::uintptr_t>(a + 8 * v) +
                                               kErfChunk * sizeof(double)),
                 _MM_HINT_T0);
    const __mmask8 live = Live(m - 8 * v);
    const __m512d x = _mm512_maskz_loadu_pd(live, a + 8 * v);
    const __m512i ix = ErfHigh(x);
    in_small[v] = InRange(ix, ErfSmall::kLo, ErfSmall::kHi) & live;
    in_mid[v] = InRange(ix, ErfMid::kLo, ErfMid::kHi) & live;
    in_large[v] = InRange(ix, ErfLarge::kLo, ErfLarge::kHi) & live;
    in_other[v] = live & Not(in_small[v] | in_mid[v] | in_large[v]);
    Pack(in_small[v], x, small, &n_small);
    Pack(in_mid[v], x, mid, &n_mid);
    Pack(in_large[v], x, large, &n_large);
    Pack(in_other[v], x, other, &n_other);
  }
  EvalInPlace<ErfSmall>(n_small, small);
  EvalInPlace<ErfMid>(n_mid, mid);
  EvalInPlace<ErfLarge>(n_large, large);
  for (int i = 0; i < n_other; ++i) {
    other[i] = std::erf(other[i]);
  }
  n_small = n_mid = n_large = n_other = 0;
  for (int v = 0; v < nv; ++v) {
    __m512d y = _mm512_setzero_pd();
    y = Unpack(y, in_small[v], small, &n_small);
    y = Unpack(y, in_mid[v], mid, &n_mid);
    y = Unpack(y, in_large[v], large, &n_large);
    y = Unpack(y, in_other[v], other, &n_other);
    _mm512_mask_storeu_pd(out + 8 * v, Live(m - 8 * v), y);
  }
}

// Runs R over the leading vectors of a[0, n) whose live lanes all lie in R's
// range; returns the number of elements done, 0 if the first vector has a
// lane outside the range. Sorting handles such vectors too, but its pack and
// unpack cost 1.3x the blend's time on all-small inputs and 1.15x on
// all-large ones (in-process A/B on 8 Ki elements); a run pays one range
// check per vector.
template <typename R>
MZ_AVX512 long ErfRun(long n, const double* a, double* out) {
  for (long i = 0; i < n; i += 8) {
    const __mmask8 live = Live(n - i);
    const __m512d x = _mm512_mask_loadu_pd(Set(R::kPad), live, a + i);
    if (InRange(ErfHigh(x), R::kLo, R::kHi) != 0xff) {
      return i;
    }
    __mmask8 special;
    const __m512d y = R::Lanes(x, &special);
    if ((special & live) == 0) {
      _mm512_mask_storeu_pd(out + i, live, y);
    } else {
      StoreLanes<R>(x, y, special & live, live, out + i);
    }
  }
  return n;
}

// ---- self-check ----

// Appends v, its neighbours one ulp either side, and their negatives.
int AddEdge(double v, double* p, int n) {
  const double e[3] = {std::nextafter(v, 0.0), v, std::nextafter(v, 2.0 * v)};
  for (double x : e) {
    p[n++] = x;
    p[n++] = -x;
  }
  return n;
}

// Appends kSweep evenly spaced values over [lo, hi]. A rounding step placed
// differently from libm's changes the last bit of a small share of
// results, so the check needs many ordinary arguments, not only edges.
constexpr int kSweep = 16000;
int AddSweep(double lo, double hi, double* p, int n) {
  for (int i = 0; i < kSweep; ++i) {
    p[n++] = lo + (hi - lo) * i / (kSweep - 1);
  }
  return n;
}

// Appends the values every kernel sends to its scalar fallback.
int AddSpecials(double* p, int n) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {0.0,  -0.0, inf,     -inf,    nan,    -nan,
                             1.0,  -1.0, 5e-324,  -5e-324, 1e-310, 1e-300,
                             1e300, 709.7, -745.1, 1000.0, -1000.0};
  for (double x : specials) {
    p[n++] = x;
  }
  return n;
}

// Every exp table index (k mod 128 for k in [-160, 160)), a sweep of the
// vector range, and both of its edges.
int ExpProbes(double* p) {
  int n = 0;
  for (int k = -160; k < 160; ++k) {
    p[n++] = (k + 0.25) * 0x1.62e42fefa39efp-1 / 128;
  }
  n = AddSweep(-511.9, 511.9, p, n);
  n = AddEdge(0x1p-54, p, n);
  n = AddEdge(512.0, p, n);
  return AddSpecials(p, n);
}

// Every log table index at several exponents (including subnormal-adjacent
// and huge ones), a sweep, and both edges of each range.
int LogProbes(double* p) {
  int n = 0;
  for (int i = 0; i < 128; ++i) {
    const double z =
        D(static_cast<std::uint64_t>(kLogOff) + (std::uint64_t(i) << 45) + (1ULL << 44));
    const int exponents[] = {-1021, -3, 0, 7, 1020};
    for (int e : exponents) {
      p[n++] = std::ldexp(z, e);
    }
  }
  n = AddSweep(0.25, 4.0, p, n);  // crosses the near-1 range
  n = AddEdge(D(kLogNearLo), p, n);
  n = AddEdge(D(kLogNearHi), p, n);
  n = AddEdge(std::numeric_limits<double>::min(), p, n);
  n = AddEdge(std::numeric_limits<double>::max(), p, n);
  return AddSpecials(p, n);
}

// A sweep that crosses every range, both edges of each range boundary, and
// the sweep again transposed: lane j of vector v holds sweep point
// v + j kSweep / 8, so each vector spans [-6.25, 6.25] in steps of about
// 1.56 and mixes ranges, which sends every chunk through erf's compaction.
int ErfProbes(double* p) {
  int n = AddSweep(-6.25, 6.25, p, 0);
  const std::int64_t boundaries[] = {kErfTiny, kErfSmall, kErfMid, kErfRa, kErfBig};
  for (std::int64_t hi : boundaries) {
    n = AddEdge(D(static_cast<std::uint64_t>(hi) << 32), p, n);
  }
  n = AddSpecials(p, n);
  for (int v = 0; v < kSweep / 8; ++v) {
    for (int j = 0; j < 8; ++j) {
      p[n++] = p[v + j * (kSweep / 8)];
    }
  }
  return n;
}

// Sweeps of (-1, 12], one per branch range and two over the k != 0 range
// above 0.41422, both sides of every branch edge, the halving edge of u in
// several binades, and every x = 2^k - 1 (libm's hu == 0 branch).
int Log1pProbes(double* p) {
  int n = AddSweep(-0.9999, -0.2929, p, 0);
  n = AddSweep(-0.2929, 0.4142, p, n);
  n = AddSweep(0.4142, 2.0, p, n);
  n = AddSweep(2.0, 12.0, p, n);
  const std::int64_t edges[] = {kLog1pTiny, kLog1pPos, kLog1pBig, kLog1pNeg, kLog1pNegOne,
                                0x3c900000 /* 2^-54 */};
  for (std::int64_t hi : edges) {
    n = AddEdge(D(static_cast<std::uint64_t>(hi) << 32), p, n);
  }
  for (int e = -1; e <= 4; ++e) {
    n = AddEdge(std::ldexp(D(0x3ff0000000000000 | (std::uint64_t(kLog1pHalve) << 32)), e) - 1.0,
                p, n);
  }
  for (int e = 1; e <= 53; ++e) {
    p[n++] = std::ldexp(1.0, e) - 1.0;
  }
  return AddSpecials(p, n);
}

constexpr int kMaxProbes = 4 * kSweep + 1000;

// Runs the entry point vecmath calls over the probes and compares each
// output with K::Scalar bit for bit.
template <typename K>
bool Matches(int (*probes)(double*), void (*kernel)(long, const double*, double*)) {
  const std::unique_ptr<double[]> in(new double[kMaxProbes]);
  const std::unique_ptr<double[]> out(new double[kMaxProbes]);
  const int n = probes(in.get());
  kernel(n, in.get(), out.get());
  for (int i = 0; i < n; ++i) {
    if (std::bit_cast<std::uint64_t>(out[i]) != std::bit_cast<std::uint64_t>(K::Scalar(in[i]))) {
      return false;
    }
  }
  return true;
}

bool CpuHasAvx512Fma() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("popcnt");
}

}  // namespace

bool LibmAvx512Active() {
  static const bool active = CpuHasAvx512Fma() && Matches<ExpKernel>(ExpProbes, ExpAvx512) &&
                             Matches<LogKernel>(LogProbes, LogAvx512) &&
                             Matches<ErfRange>(ErfProbes, ErfAvx512);
  return active;
}

bool Log1pAvx512Active() {
  static const bool active =
      CpuHasAvx512Fma() && Matches<Log1pKernel>(Log1pProbes, Log1pAvx512);
  return active;
}

void ExpAvx512(long n, const double* a, double* out) { Map<ExpKernel>(n, a, out); }
void LogAvx512(long n, const double* a, double* out) { Map<LogKernel>(n, a, out); }
void ErfAvx512(long n, const double* a, double* out) {
  for (long i = 0, done = 0; i < n; i += done) {
    done = ErfRun<ErfSmall>(n - i, a + i, out + i);
    if (done == 0) {
      done = ErfRun<ErfMid>(n - i, a + i, out + i);
    }
    if (done == 0) {
      done = ErfRun<ErfLarge>(n - i, a + i, out + i);
    }
    if (done == 0) {
      done = n - i < kErfChunk ? n - i : kErfChunk;
      ErfSorted(static_cast<int>(done), a + i, out + i);
    }
  }
}
void Log1pAvx512(long n, const double* a, double* out) { Map<Log1pKernel>(n, a, out); }

}  // namespace vecmath::internal

#else  // no AVX-512 port for this target: vecmath keeps its scalar loops

namespace vecmath::internal {

bool LibmAvx512Active() { return false; }
bool Log1pAvx512Active() { return false; }
void ExpAvx512(long, const double*, double*) {}
void LogAvx512(long, const double*, double*) {}
void ErfAvx512(long, const double*, double*) {}
void Log1pAvx512(long, const double*, double*) {}

}  // namespace vecmath::internal

#endif
