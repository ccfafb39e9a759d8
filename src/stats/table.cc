#include "table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/logging.hh"

namespace rrs::stats {

TextTable::TextTable(std::vector<std::string> headers)
    : headers(std::move(headers))
{
}

TextTable &
TextTable::row()
{
    rows.emplace_back();
    return *this;
}

TextTable &
TextTable::cell(std::string value)
{
    rrs_assert(!rows.empty(), "cell() before row()");
    rows.back().push_back(std::move(value));
    return *this;
}

TextTable &
TextTable::cell(double value, int precision)
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision) << value;
    return cell(oss.str());
}

TextTable &
TextTable::cell(std::uint64_t value)
{
    return cell(std::to_string(value));
}

TextTable &
TextTable::cell(std::uint32_t value)
{
    return cell(std::to_string(value));
}

TextTable &
TextTable::cell(int value)
{
    return cell(std::to_string(value));
}

void
TextTable::print(std::ostream &os, const std::string &title) const
{
    std::vector<std::size_t> widths(headers.size());
    for (std::size_t c = 0; c < headers.size(); ++c)
        widths[c] = headers[c].size();
    for (const auto &r : rows) {
        for (std::size_t c = 0; c < r.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], r[c].size());
    }

    if (!title.empty())
        os << title << "\n";

    auto emitRow = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            std::string v = c < cells.size() ? cells[c] : "";
            os << "  " << std::left << std::setw(static_cast<int>(widths[c]))
               << v;
        }
        os << "\n";
    };

    emitRow(headers);
    std::size_t total = 0;
    for (auto w : widths)
        total += w + 2;
    os << "  " << std::string(total > 2 ? total - 2 : 0, '-') << "\n";
    for (const auto &r : rows)
        emitRow(r);
}

} // namespace rrs::stats
