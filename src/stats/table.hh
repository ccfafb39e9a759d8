/**
 * @file
 * Plain-text table formatter used by the benchmark harness to print the
 * paper's tables and figure data series in aligned columns.
 */

#ifndef RRS_STATS_TABLE_HH
#define RRS_STATS_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace rrs::stats {

/**
 * A simple column-aligned text table.  Cells are strings; numeric
 * convenience adders format with a fixed precision.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Start a new row. Subsequent cell() calls fill it left to right. */
    TextTable &row();

    /** Append a string cell to the current row. */
    TextTable &cell(std::string value);

    /** Append a formatted numeric cell (fixed precision). */
    TextTable &cell(double value, int precision = 2);

    /** Append an integer cell. */
    TextTable &cell(std::uint64_t value);
    TextTable &cell(std::uint32_t value);
    TextTable &cell(int value);

    /** Render with column alignment and a header underline. */
    void print(std::ostream &os, const std::string &title = "") const;

    std::size_t numRows() const { return rows.size(); }

  private:
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

} // namespace rrs::stats

#endif // RRS_STATS_TABLE_HH
