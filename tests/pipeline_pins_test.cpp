// Exact-timing pins on non-default pipeline shapes.  The goldens, the
// ledger snapshot and the BENCH baselines all run the Table I
// geometry, and the shape tests in core_property_test only check
// commit counts.  These pins lock cycles, committed ops, mispredicts,
// exceptions and every stall-cause count on nine shapes that stress
// the scheduler's corner cases: writeback carry-over at narrow widths,
// ROB ring wrap-around at sizes that are not a power of two, tiny
// load/store queues, wide cores, flush storms and the no-wrong-path
// fetch stall.
//
// Re-pinning after a deliberate timing change: a mismatch prints the
// row as measured, in table syntax, ready to paste over the old one.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/experiment.hh"
#include "pipeline_shapes.hh"
#include "workloads/workloads.hh"

namespace {

using namespace rrs;
using harness::RunConfig;
using test::Shape;

constexpr std::uint64_t kCap = 20'000;
constexpr std::uint32_t kRegs = 56;

const char *const kSchemes[] = {"baseline", "reuse"};

/** One run's pinned numbers; stalls are indexed by obs::CycleCause. */
struct Pin
{
    const char *shape;
    const char *workload;
    const char *scheme;
    std::uint64_t cycles, ops, mispredicts, exceptions;
    std::uint64_t stalls[obs::numCycleCauses];
};

// clang-format off
const Pin kPins[] = {
    {"table1", "int_sort", "baseline",
     20716, 20000, 442, 0, {9050, 0, 3059, 0, 0, 0, 6474, 2133}},
    {"table1", "int_sort", "reuse",
     20755, 20321, 442, 0, {9060, 0, 3004, 0, 0, 0, 6505, 2186}},
    {"table1", "int_hash", "baseline",
     37793, 20000, 209, 0, {8924, 4, 24361, 0, 0, 0, 2424, 2080}},
    {"table1", "int_hash", "reuse",
     36498, 21132, 209, 0, {8823, 4, 22721, 0, 0, 0, 2386, 2564}},
    {"table1", "int_graph", "baseline",
     27094, 20000, 427, 0, {9641, 2, 9268, 0, 0, 0, 5926, 2257}},
    {"table1", "int_graph", "reuse",
     26834, 20320, 427, 0, {9566, 2, 8729, 0, 0, 0, 5852, 2685}},
    {"table1", "fp_fir", "baseline",
     10218, 20000, 116, 0, {7870, 1, 106, 0, 0, 0, 1312, 929}},
    {"table1", "fp_fir", "reuse",
     10197, 20000, 116, 0, {7868, 1, 83, 0, 0, 0, 1300, 945}},
    {"table1", "fp_nbody", "baseline",
     38933, 20000, 63, 0, {9609, 72, 25986, 0, 0, 0, 611, 2655}},
    {"table1", "fp_nbody", "reuse",
     37028, 20525, 62, 0, {9091, 54, 24182, 0, 0, 0, 611, 3090}},
    {"table1", "media_adpcm", "baseline",
     23947, 20000, 429, 0, {8595, 10, 5074, 0, 0, 0, 5327, 4941}},
    {"table1", "media_adpcm", "reuse",
     23942, 20061, 429, 0, {8588, 10, 4816, 0, 0, 0, 5417, 5111}},
    {"table1", "cog_knn", "baseline",
     14502, 20000, 67, 0, {7568, 6, 5125, 0, 0, 0, 885, 918}},
    {"table1", "cog_knn", "reuse",
     13760, 20000, 67, 0, {7381, 5, 4248, 0, 0, 0, 875, 1251}},
    {"narrow1_wb1", "int_sort", "baseline",
     30618, 20000, 442, 0, {20000, 0, 932, 0, 0, 0, 6273, 3413}},
    {"narrow1_wb1", "int_sort", "reuse",
     30760, 20504, 442, 0, {20000, 0, 1027, 0, 0, 0, 6186, 3547}},
    {"narrow1_wb1", "int_hash", "baseline",
     41928, 20000, 210, 0, {20000, 3, 13304, 0, 0, 0, 2118, 6503}},
    {"narrow1_wb1", "int_hash", "reuse",
     40361, 21128, 210, 0, {20000, 3, 11457, 0, 0, 0, 2080, 6821}},
    {"narrow1_wb1", "int_graph", "baseline",
     36376, 20000, 427, 0, {20000, 3, 5137, 0, 0, 0, 5257, 5979}},
    {"narrow1_wb1", "int_graph", "reuse",
     36079, 20347, 427, 0, {20000, 3, 4546, 0, 0, 0, 5191, 6339}},
    {"narrow1_wb1", "fp_fir", "baseline",
     22788, 20000, 116, 0, {20000, 0, 43, 0, 0, 0, 1411, 1334}},
    {"narrow1_wb1", "fp_fir", "reuse",
     22767, 20000, 116, 0, {20000, 0, 28, 0, 0, 0, 1404, 1335}},
    {"narrow1_wb1", "fp_nbody", "baseline",
     38953, 20000, 62, 0, {20000, 45, 10190, 0, 0, 0, 610, 8108}},
    {"narrow1_wb1", "fp_nbody", "reuse",
     38764, 20577, 62, 0, {20000, 27, 11206, 0, 0, 0, 610, 6921}},
    {"narrow1_wb1", "media_adpcm", "baseline",
     34407, 20000, 429, 0, {20000, 11, 628, 0, 0, 0, 5578, 8190}},
    {"narrow1_wb1", "media_adpcm", "reuse",
     34414, 20060, 429, 0, {20000, 11, 596, 0, 0, 0, 5605, 8202}},
    {"narrow1_wb1", "cog_knn", "baseline",
     23457, 20000, 67, 0, {20000, 0, 670, 0, 0, 0, 1050, 1737}},
    {"narrow1_wb1", "cog_knn", "reuse",
     23161, 20000, 67, 0, {20000, 0, 441, 0, 0, 0, 1160, 1560}},
    {"wb1", "int_sort", "baseline",
     30339, 20000, 442, 0, {19185, 0, 2980, 0, 0, 0, 6598, 1576}},
    {"wb1", "int_sort", "reuse",
     30343, 20244, 442, 0, {19169, 0, 2966, 0, 0, 0, 6621, 1587}},
    {"wb1", "int_hash", "baseline",
     38808, 20000, 209, 0, {9637, 3, 24879, 0, 0, 0, 2448, 1841}},
    {"wb1", "int_hash", "reuse",
     37060, 21118, 209, 0, {9408, 3, 23063, 0, 0, 0, 2381, 2205}},
    {"wb1", "int_graph", "baseline",
     34661, 20000, 427, 0, {17608, 0, 8957, 0, 0, 0, 6257, 1839}},
    {"wb1", "int_graph", "reuse",
     34337, 20284, 427, 0, {17299, 0, 8953, 0, 0, 0, 6125, 1960}},
    {"wb1", "fp_fir", "baseline",
     22401, 20000, 116, 0, {14290, 8, 5606, 0, 0, 0, 1643, 854}},
    {"wb1", "fp_fir", "reuse",
     22371, 20000, 116, 0, {14284, 8, 5433, 0, 0, 0, 1626, 1020}},
    {"wb1", "fp_nbody", "baseline",
     38975, 20000, 63, 0, {9635, 71, 25856, 0, 0, 0, 569, 2844}},
    {"wb1", "fp_nbody", "reuse",
     37823, 20469, 63, 0, {9274, 71, 24643, 0, 0, 0, 569, 3266}},
    {"wb1", "media_adpcm", "baseline",
     30882, 20000, 429, 0, {14313, 11, 7716, 0, 0, 0, 6096, 2746}},
    {"wb1", "media_adpcm", "reuse",
     30895, 20054, 429, 0, {14306, 11, 7441, 0, 0, 0, 6156, 2981}},
    {"wb1", "cog_knn", "baseline",
     22169, 20000, 67, 0, {11349, 16, 8965, 0, 0, 0, 1085, 754}},
    {"wb1", "cog_knn", "reuse",
     22166, 20000, 67, 0, {11312, 23, 8816, 0, 0, 0, 1069, 946}},
    {"wb2_issue8", "int_sort", "baseline",
     22468, 20000, 442, 0, {10983, 0, 3129, 0, 0, 0, 6540, 1816}},
    {"wb2_issue8", "int_sort", "reuse",
     22536, 20321, 442, 0, {11041, 0, 3071, 0, 0, 0, 6553, 1871}},
    {"wb2_issue8", "int_hash", "baseline",
     37960, 20000, 209, 0, {9003, 4, 24500, 0, 0, 0, 2403, 2050}},
    {"wb2_issue8", "int_hash", "reuse",
     36237, 21065, 209, 0, {8820, 4, 22474, 0, 0, 0, 2356, 2583}},
    {"wb2_issue8", "int_graph", "baseline",
     28075, 20000, 427, 0, {10430, 2, 9267, 0, 0, 0, 6148, 2228}},
    {"wb2_issue8", "int_graph", "reuse",
     27726, 20316, 427, 0, {10263, 2, 8945, 0, 0, 0, 5967, 2549}},
    {"wb2_issue8", "fp_fir", "baseline",
     12606, 20000, 116, 0, {7870, 4, 1786, 0, 0, 0, 1526, 1420}},
    {"wb2_issue8", "fp_fir", "reuse",
     12582, 20000, 116, 0, {7868, 4, 1456, 0, 0, 0, 1511, 1743}},
    {"wb2_issue8", "fp_nbody", "baseline",
     38926, 20000, 63, 0, {9611, 72, 25968, 0, 0, 0, 611, 2664}},
    {"wb2_issue8", "fp_nbody", "reuse",
     37114, 20534, 63, 0, {9113, 68, 24210, 0, 0, 0, 611, 3112}},
    {"wb2_issue8", "media_adpcm", "baseline",
     24799, 20000, 429, 0, {8810, 12, 5579, 0, 0, 0, 5578, 4820}},
    {"wb2_issue8", "media_adpcm", "reuse",
     25041, 20039, 429, 0, {8813, 12, 5457, 0, 0, 0, 5691, 5068}},
    {"wb2_issue8", "cog_knn", "baseline",
     15402, 20000, 67, 0, {7683, 7, 5791, 0, 0, 0, 971, 950}},
    {"wb2_issue8", "cog_knn", "reuse",
     14870, 20000, 67, 0, {7572, 10, 5091, 0, 0, 0, 950, 1247}},
    {"rob100_iq13_lq5_sq3", "int_sort", "baseline",
     20731, 20000, 442, 0, {9050, 0, 2258, 0, 1, 854, 6490, 2078}},
    {"rob100_iq13_lq5_sq3", "int_sort", "reuse",
     20766, 20328, 442, 0, {9061, 0, 1985, 0, 0, 1057, 6517, 2146}},
    {"rob100_iq13_lq5_sq3", "int_hash", "baseline",
     37771, 20000, 209, 0, {8921, 4, 19564, 0, 4640, 410, 2399, 1833}},
    {"rob100_iq13_lq5_sq3", "int_hash", "reuse",
     36063, 21314, 209, 0, {8748, 4, 15206, 0, 5168, 2400, 2350, 2187}},
    {"rob100_iq13_lq5_sq3", "int_graph", "baseline",
     27388, 20000, 427, 0, {9973, 2, 2662, 0, 169, 6426, 5991, 2165}},
    {"rob100_iq13_lq5_sq3", "int_graph", "reuse",
     27455, 20332, 427, 0, {9966, 2, 2295, 0, 191, 6678, 6075, 2248}},
    {"rob100_iq13_lq5_sq3", "fp_fir", "baseline",
     10220, 20000, 116, 0, {7870, 1, 9, 0, 0, 100, 1314, 926}},
    {"rob100_iq13_lq5_sq3", "fp_fir", "reuse",
     10220, 20000, 116, 0, {7870, 1, 0, 0, 0, 108, 1314, 927}},
    {"rob100_iq13_lq5_sq3", "fp_nbody", "baseline",
     41991, 20000, 62, 0, {9621, 67, 2045, 0, 26940, 284, 611, 2423}},
    {"rob100_iq13_lq5_sq3", "fp_nbody", "reuse",
     39839, 20502, 62, 0, {9286, 67, 5434, 0, 22137, 316, 611, 1988}},
    {"rob100_iq13_lq5_sq3", "media_adpcm", "baseline",
     24010, 20000, 429, 0, {8595, 10, 500, 0, 5126, 50, 5467, 4262}},
    {"rob100_iq13_lq5_sq3", "media_adpcm", "reuse",
     24005, 20123, 429, 0, {8592, 10, 646, 0, 4967, 23, 5551, 4216}},
    {"rob100_iq13_lq5_sq3", "cog_knn", "baseline",
     14462, 20000, 67, 0, {7568, 6, 4836, 0, 248, 6, 885, 913}},
    {"rob100_iq13_lq5_sq3", "cog_knn", "reuse",
     13598, 20000, 67, 0, {7452, 2, 727, 0, 189, 2703, 879, 1646}},
    {"rob7_iq3_lq2_sq1_fq4", "int_sort", "baseline",
     23035, 20000, 442, 0, {11530, 0, 0, 3271, 728, 130, 6661, 715}},
    {"rob7_iq3_lq2_sq1_fq4", "int_sort", "reuse",
     23136, 20507, 442, 0, {11560, 0, 0, 3348, 739, 78, 6665, 746}},
    {"rob7_iq3_lq2_sq1_fq4", "int_hash", "baseline",
     68521, 20000, 210, 0, {12635, 4, 0, 35875, 16011, 122, 3406, 468}},
    {"rob7_iq3_lq2_sq1_fq4", "int_hash", "reuse",
     69054, 21716, 210, 0, {12623, 4, 0, 36040, 16449, 98, 3406, 434}},
    {"rob7_iq3_lq2_sq1_fq4", "int_graph", "baseline",
     33055, 20000, 430, 0, {12497, 2, 0, 717, 11437, 1137, 6627, 638}},
    {"rob7_iq3_lq2_sq1_fq4", "int_graph", "reuse",
     33249, 20390, 430, 0, {12475, 2, 0, 695, 11617, 1142, 6630, 688}},
    {"rob7_iq3_lq2_sq1_fq4", "fp_fir", "baseline",
     19010, 20000, 116, 0, {10803, 0, 0, 5760, 135, 0, 1578, 734}},
    {"rob7_iq3_lq2_sq1_fq4", "fp_fir", "reuse",
     19010, 20000, 116, 0, {10803, 0, 0, 5760, 135, 0, 1578, 734}},
    {"rob7_iq3_lq2_sq1_fq4", "fp_nbody", "baseline",
     59233, 20000, 61, 0, {13588, 24, 0, 4758, 39271, 14, 1171, 407}},
    {"rob7_iq3_lq2_sq1_fq4", "fp_nbody", "reuse",
     59219, 20890, 61, 0, {13401, 24, 0, 8316, 35696, 14, 1165, 603}},
    {"rob7_iq3_lq2_sq1_fq4", "media_adpcm", "baseline",
     29181, 20000, 429, 0, {9857, 2, 0, 3798, 8112, 1, 6324, 1087}},
    {"rob7_iq3_lq2_sq1_fq4", "media_adpcm", "reuse",
     29183, 20000, 429, 0, {9857, 2, 0, 3774, 8094, 24, 6330, 1102}},
    {"rob7_iq3_lq2_sq1_fq4", "cog_knn", "baseline",
     27856, 20000, 67, 0, {14087, 9, 0, 9397, 2706, 0, 1252, 405}},
    {"rob7_iq3_lq2_sq1_fq4", "cog_knn", "reuse",
     27856, 20000, 67, 0, {14087, 9, 0, 9397, 2706, 0, 1252, 405}},
    {"wide8_iq96_rob192", "int_sort", "baseline",
     18888, 20000, 442, 0, {6884, 0, 3840, 0, 0, 0, 6621, 1543}},
    {"wide8_iq96_rob192", "int_sort", "reuse",
     18919, 20287, 442, 0, {6923, 0, 3744, 0, 0, 0, 6694, 1558}},
    {"wide8_iq96_rob192", "int_hash", "baseline",
     37735, 20000, 209, 0, {5909, 4, 27665, 0, 0, 0, 2516, 1641}},
    {"wide8_iq96_rob192", "int_hash", "reuse",
     35983, 21161, 209, 0, {5544, 4, 26128, 0, 0, 0, 2482, 1825}},
    {"wide8_iq96_rob192", "int_graph", "baseline",
     25358, 20000, 427, 0, {7535, 4, 10290, 0, 0, 0, 5977, 1552}},
    {"wide8_iq96_rob192", "int_graph", "reuse",
     25044, 20267, 427, 0, {7308, 4, 9839, 0, 0, 0, 5989, 1904}},
    {"wide8_iq96_rob192", "fp_fir", "baseline",
     9696, 20000, 116, 0, {3372, 8, 4153, 0, 0, 0, 960, 1203}},
    {"wide8_iq96_rob192", "fp_fir", "reuse",
     9453, 20000, 116, 0, {3369, 8, 3908, 0, 0, 0, 724, 1444}},
    {"wide8_iq96_rob192", "fp_nbody", "baseline",
     38874, 20000, 63, 0, {7011, 79, 30126, 0, 0, 0, 569, 1089}},
    {"wide8_iq96_rob192", "fp_nbody", "reuse",
     36983, 20445, 63, 0, {6176, 75, 28927, 0, 0, 0, 569, 1236}},
    {"wide8_iq96_rob192", "media_adpcm", "baseline",
     23260, 20000, 429, 0, {6239, 12, 8649, 0, 0, 0, 5369, 2991}},
    {"wide8_iq96_rob192", "media_adpcm", "reuse",
     23532, 20062, 429, 0, {6249, 12, 8639, 0, 0, 0, 5470, 3162}},
    {"wide8_iq96_rob192", "cog_knn", "baseline",
     13597, 20000, 67, 0, {4213, 12, 7842, 0, 0, 0, 861, 669}},
    {"wide8_iq96_rob192", "cog_knn", "reuse",
     13034, 20000, 67, 0, {4205, 14, 7243, 0, 0, 0, 851, 721}},
    {"faults_interrupts", "int_sort", "baseline",
     23929, 20000, 444, 50, {9188, 0, 2746, 0, 0, 0, 9704, 2291}},
    {"faults_interrupts", "int_sort", "reuse",
     24268, 20312, 443, 52, {9188, 0, 2731, 0, 0, 0, 10001, 2348}},
    {"faults_interrupts", "int_hash", "baseline",
     45480, 20000, 219, 44, {9543, 4, 24460, 0, 0, 0, 8720, 2753}},
    {"faults_interrupts", "int_hash", "reuse",
     43973, 21099, 222, 42, {9340, 4, 22539, 0, 0, 0, 8585, 3505}},
    {"faults_interrupts", "int_graph", "baseline",
     31819, 20000, 435, 52, {9960, 2, 8684, 0, 0, 0, 10556, 2617}},
    {"faults_interrupts", "int_graph", "reuse",
     32274, 20307, 440, 51, {9888, 2, 8459, 0, 0, 0, 10824, 3101}},
    {"faults_interrupts", "fp_fir", "baseline",
     14918, 20000, 123, 86, {7931, 5, 105, 0, 0, 0, 5213, 1664}},
    {"faults_interrupts", "fp_fir", "reuse",
     14936, 20000, 124, 85, {7923, 5, 83, 0, 0, 0, 5240, 1685}},
    {"faults_interrupts", "fp_nbody", "baseline",
     48122, 20000, 73, 47, {9834, 78, 26856, 0, 0, 0, 7367, 3987}},
    {"faults_interrupts", "fp_nbody", "reuse",
     46538, 20524, 71, 47, {9401, 82, 25042, 0, 0, 0, 7453, 4560}},
    {"faults_interrupts", "media_adpcm", "baseline",
     26528, 20000, 430, 13, {8602, 10, 4765, 0, 0, 0, 7842, 5309}},
    {"faults_interrupts", "media_adpcm", "reuse",
     26295, 20062, 432, 15, {8606, 10, 4618, 0, 0, 0, 7663, 5398}},
    {"faults_interrupts", "cog_knn", "baseline",
     18810, 20000, 70, 62, {7810, 6, 4788, 0, 0, 0, 4530, 1676}},
    {"faults_interrupts", "cog_knn", "reuse",
     19095, 20000, 71, 63, {7686, 12, 3889, 0, 0, 0, 5277, 2231}},
    {"no_wrong_path", "int_sort", "baseline",
     20509, 20000, 442, 0, {9050, 0, 595, 0, 0, 0, 6575, 4289}},
    {"no_wrong_path", "int_sort", "reuse",
     20474, 20368, 442, 0, {9062, 0, 488, 0, 0, 0, 6532, 4392}},
    {"no_wrong_path", "int_hash", "baseline",
     37380, 20000, 209, 0, {8914, 4, 20275, 0, 0, 0, 2388, 5799}},
    {"no_wrong_path", "int_hash", "reuse",
     35786, 21059, 209, 0, {8774, 4, 18649, 0, 0, 0, 2304, 6055}},
    {"no_wrong_path", "int_graph", "baseline",
     26813, 20000, 427, 0, {9641, 2, 4986, 0, 0, 0, 5926, 6258}},
    {"no_wrong_path", "int_graph", "reuse",
     26475, 20355, 427, 0, {9559, 2, 3990, 0, 0, 0, 5744, 7180}},
    {"no_wrong_path", "fp_fir", "baseline",
     10168, 20000, 116, 0, {7870, 1, 56, 0, 0, 0, 1316, 925}},
    {"no_wrong_path", "fp_fir", "reuse",
     10166, 20000, 116, 0, {7870, 1, 54, 0, 0, 0, 1314, 927}},
    {"no_wrong_path", "fp_nbody", "baseline",
     38826, 20000, 63, 0, {9609, 72, 25805, 0, 0, 0, 611, 2729}},
    {"no_wrong_path", "fp_nbody", "reuse",
     37018, 20539, 62, 0, {9086, 69, 24166, 0, 0, 0, 611, 3086}},
    {"no_wrong_path", "media_adpcm", "baseline",
     23839, 20000, 429, 0, {8595, 10, 2296, 0, 0, 0, 5532, 7406}},
    {"no_wrong_path", "media_adpcm", "reuse",
     23842, 20040, 429, 0, {8593, 10, 1882, 0, 0, 0, 5532, 7825}},
    {"no_wrong_path", "cog_knn", "baseline",
     14325, 20000, 67, 0, {7585, 6, 4749, 0, 0, 0, 977, 1008}},
    {"no_wrong_path", "cog_knn", "reuse",
     13557, 20000, 67, 0, {7396, 3, 3875, 0, 0, 0, 963, 1320}},
};
// clang-format on

Pin
measure(const Shape &shape, const char *workload, const char *scheme)
{
    RunConfig cfg = harness::schemeConfig(scheme, kRegs);
    cfg.maxInsts = kCap;
    shape.apply(cfg.core);
    const harness::Outcome out =
        harness::runOn(workloads::workload(workload), cfg);

    Pin p{shape.name, workload, scheme, out.sim.cycles,
          out.sim.committedOps, out.mispredicts, out.exceptions, {}};
    for (int c = 0; c < obs::numCycleCauses; ++c)
        p.stalls[c] = out.stalls.counts[c];
    return p;
}

/** A pin as a kPins row. */
std::string
row(const Pin &p)
{
    std::string s = std::string("    {\"") + p.shape + "\", \"" +
                    p.workload + "\", \"" + p.scheme + "\",\n     ";
    char buf[64];
    for (std::uint64_t v : {p.cycles, p.ops, p.mispredicts, p.exceptions}) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64 ", ", v);
        s += buf;
    }
    s += "{";
    for (int c = 0; c < obs::numCycleCauses; ++c) {
        std::snprintf(buf, sizeof(buf), "%s%" PRIu64, c ? ", " : "",
                      p.stalls[c]);
        s += buf;
    }
    return s + "}},";
}

const Pin *
findPin(const char *shape, const char *workload, const char *scheme)
{
    for (const Pin &p : kPins) {
        if (std::strcmp(p.shape, shape) == 0 &&
            std::strcmp(p.workload, workload) == 0 &&
            std::strcmp(p.scheme, scheme) == 0) {
            return &p;
        }
    }
    return nullptr;
}

bool
samePin(const Pin &a, const Pin &b)
{
    if (a.cycles != b.cycles || a.ops != b.ops ||
        a.mispredicts != b.mispredicts || a.exceptions != b.exceptions)
        return false;
    for (int c = 0; c < obs::numCycleCauses; ++c) {
        if (a.stalls[c] != b.stalls[c])
            return false;
    }
    return true;
}

class PipelinePins : public ::testing::TestWithParam<Shape>
{
};

TEST_P(PipelinePins, ExactTiming)
{
    const Shape &shape = GetParam();
    for (const char *workload : test::kShapeWorkloads) {
        for (const char *scheme : kSchemes) {
            const Pin got = measure(shape, workload, scheme);
            const Pin *want = findPin(shape.name, workload, scheme);
            if (!want) {
                ADD_FAILURE() << "no pin; measured:\n" << row(got);
                continue;
            }
            EXPECT_TRUE(samePin(got, *want))
                << "pinned:\n" << row(*want) << "\nmeasured:\n"
                << row(got);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PipelinePins,
                         ::testing::ValuesIn(test::kShapes));

} // namespace
