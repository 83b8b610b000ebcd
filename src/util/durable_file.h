// Durable publication of a small text file: write a tmp file, sync it,
// rename it into place, sync the directory.
//
// The sweep store's records and the work queue's manifest are published by
// rename, so a reader never sees half a file. A rename alone is atomic but
// not durable: after a power loss the new name can point at a file whose
// data never reached the disk, or the rename itself can be lost. Syncing
// the tmp file before the rename and its directory after it closes both
// windows; a crash before the rename leaves at most the tmp file.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace ides {

/// Publishes `text` at `finalPath` through `tmpPath`:
///   1. creates `tmpPath`, truncating a leftover of the same name;
///   2. writes every byte, retrying short writes and EINTR;
///   3. fsyncs and closes it;
///   4. asks `stillWanted` (when given) whether to go on — if not, removes
///      the tmp file and returns false;
///   5. passes the fault point "pre-rename" (util/fault_injection.h);
///   6. renames it onto `finalPath`, replacing any file there;
///   7. fsyncs the directory that holds `finalPath`.
/// Returns true once published. A failed step throws std::runtime_error
/// naming `what`, the step and the path ("<what>: cannot write <tmp>",
/// "<what>: short write to <tmp>", "<what>: cannot publish <final>"), with
/// the tmp file removed when the rename did not happen.
bool publishFileDurably(const std::string& tmpPath,
                        const std::string& finalPath, std::string_view text,
                        std::string_view what,
                        const std::function<bool()>& stillWanted = {});

}  // namespace ides
