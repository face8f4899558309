// Filesystem durability helpers shared by every on-disk writer (snapshot,
// trace, WAL segments, checkpoints); util::commit_staged (util/binary_io.hpp)
// runs the publish protocol below on a util::WritableFile.
//
// Two concerns live here because they are inseparable in practice:
//
//   * errno context — every failing syscall is reported as
//     "path: syscall: strerror (errno N)", so a recovery log says *why* a
//     segment was rejected (ENOSPC vs EIO vs EACCES changes the operator's
//     next move) instead of a bare "write failed".
//
//   * the atomic-publish protocol — write to `path.tmp`, fsync the file,
//     rename(2) over `path`, fsync the directory. rename is atomic on
//     POSIX filesystems, so a reader can never observe a half-written file
//     at the published path: it sees either the old complete file or the
//     new complete file. The directory fsync only narrows the window in
//     which a crash can lose the rename itself (the old file then
//     survives, which is still a consistent state); it is best-effort
//     because several filesystems reject fsync on directory fds.
#pragma once

#include <string>

namespace dmis::util {

/// "path: syscall: strerror (errno N)" — the one error format every I/O
/// path in this repository uses.
[[nodiscard]] std::string errno_context(const std::string& path, const char* syscall,
                                        int err);

/// Best-effort fsync of the directory containing `path` (makes a recent
/// create/rename/unlink in that directory durable). Failures are ignored —
/// see the header comment.
void fsync_parent_dir(const std::string& path);

/// rename `tmp_path` over `final_path` (atomic replace) and fsync the
/// parent directory (an error names both paths). A publish must have
/// fsynced `tmp_path`'s contents first; util::commit_staged does that.
bool atomic_publish(const std::string& tmp_path, const std::string& final_path,
                    std::string* error);

/// mkdir -p equivalent; true if the directory exists afterwards.
bool ensure_dir(const std::string& dir, std::string* error);

/// unlink with errno context; removing a file that does not exist is an
/// error (callers decide whether absence is fine before calling).
bool remove_file(const std::string& path, std::string* error);

}  // namespace dmis::util
