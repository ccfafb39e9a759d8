#include "atomicfile.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

namespace rrs {

bool
ensureParentDir(const std::string &path, std::string &error)
{
    const std::filesystem::path parent =
        std::filesystem::path(path).parent_path();
    if (parent.empty())
        return true;
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
    if (ec) {
        error = "cannot create directory '" + parent.string() +
                "': " + ec.message();
        return false;
    }
    return true;
}

bool
tryWriteFileAtomic(const std::string &path, std::string_view contents,
                   std::string &error, bool createParents)
{
    if (createParents && !ensureParentDir(path, error))
        return false;
    const std::string tmp = path + ".tmp";
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            error = "cannot open '" + tmp + "' for writing";
            return false;
        }
        os.write(contents.data(),
                 static_cast<std::streamsize>(contents.size()));
        if (!os) {
            error = "short write to '" + tmp + "'";
            return false;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        error = "cannot rename '" + tmp + "' to '" + path + "'";
        return false;
    }
    return true;
}

bool
tryReadFile(const std::string &path, std::string &contents)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    contents = text.str();
    return true;
}

} // namespace rrs
