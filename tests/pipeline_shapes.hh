// The nine non-default pipeline shapes, and the seven kernels each
// runs, that pipeline_pins_test pins exact timing on and
// quiet_skip_test replays with and without the quiet-cycle skip.

#ifndef RRS_TESTS_PIPELINE_SHAPES_HH
#define RRS_TESTS_PIPELINE_SHAPES_HH

#include <ostream>

#include "core/params.hh"

namespace rrs::test {

struct Shape
{
    const char *name;
    void (*apply)(core::CoreParams &);
};

inline void
setWidths(core::CoreParams &c, std::uint32_t w)
{
    c.fetchWidth = c.renameWidth = w;
    c.issueWidth = c.wbWidth = c.commitWidth = w;
}

inline const Shape kShapes[] = {
    {"table1", [](core::CoreParams &) {}},
    {"narrow1_wb1", [](core::CoreParams &c) { setWidths(c, 1); }},
    {"wb1", [](core::CoreParams &c) { c.wbWidth = 1; }},
    {"wb2_issue8",
     [](core::CoreParams &c) {
         c.wbWidth = 2;
         c.issueWidth = 8;
     }},
    {"rob100_iq13_lq5_sq3",
     [](core::CoreParams &c) {
         c.robEntries = 100;
         c.iqEntries = 13;
         c.loadQueueEntries = 5;
         c.storeQueueEntries = 3;
     }},
    {"rob7_iq3_lq2_sq1_fq4",
     [](core::CoreParams &c) {
         c.robEntries = 7;
         c.iqEntries = 3;
         c.loadQueueEntries = 2;
         c.storeQueueEntries = 1;
         c.fetchQueueEntries = 4;
     }},
    {"wide8_iq96_rob192",
     [](core::CoreParams &c) {
         setWidths(c, 8);
         c.iqEntries = 96;
         c.robEntries = 192;
     }},
    {"faults_interrupts",
     [](core::CoreParams &c) {
         c.loadFaultProbability = 0.03;
         c.interruptInterval = 700;
     }},
    {"no_wrong_path", [](core::CoreParams &c) { c.modelWrongPath = false; }},
};

inline const char *const kShapeWorkloads[] = {
    "int_sort", "int_hash",    "int_graph", "fp_fir",
    "fp_nbody", "media_adpcm", "cog_knn"};

// gtest_discover_tests copies the printed parameter into the ctest
// name, e.g. "Shapes/PipelinePins.ExactTiming/wb1".
inline void
PrintTo(const Shape &s, std::ostream *os)
{
    *os << s.name;
}

} // namespace rrs::test

#endif // RRS_TESTS_PIPELINE_SHAPES_HH
