/**
 * @file
 * Whole-file I/O.  Writes use the tmp+rename idiom every writer of
 * machine-readable artifacts (ledger nodes, campaign sidecars,
 * telemetry traces, reports) shares: a crash or concurrent writer can
 * never leave a half-written file at the destination path, and missing
 * parent directories are created instead of failing.  Reads of those
 * artifacts and of hand-written inputs (sweep matrices, manifests) go
 * through tryReadFile.
 */

#ifndef RRS_COMMON_ATOMICFILE_HH
#define RRS_COMMON_ATOMICFILE_HH

#include <string>
#include <string_view>

namespace rrs {

/**
 * Create every missing parent directory of `path`.
 * @return false (with `error` set) when creation fails; a path with no
 *         directory component trivially succeeds.
 */
bool ensureParentDir(const std::string &path, std::string &error);

/**
 * Write `contents` to `path` atomically: bytes go to "<path>.tmp", and
 * the temp file is renamed over the destination only after a complete
 * write.  Readers therefore see either the old file or the whole new
 * one, never a prefix.
 * @param createParents true: create missing parent directories first;
 *        false: a missing directory is a write failure, so a mistyped
 *        directory is never materialised.
 * @return false with `error` set on any failure (the temp file may be
 *         left behind; the destination is untouched).
 */
bool tryWriteFileAtomic(const std::string &path, std::string_view contents,
                        std::string &error, bool createParents = true);

/**
 * Read the whole of `path` into `contents`.
 * @return false when the file cannot be opened; each caller words its
 *         own diagnostic.
 */
bool tryReadFile(const std::string &path, std::string &contents);

} // namespace rrs

#endif // RRS_COMMON_ATOMICFILE_HH
