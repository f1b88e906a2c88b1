#ifndef SCCF_SERVER_DISPATCH_H_
#define SCCF_SERVER_DISPATCH_H_

#include <string>

#include "online/engine.h"
#include "server/protocol.h"

namespace sccf::server {

/// Command dispatch: executes one parsed request frame against the
/// Engine and appends exactly one RESP reply to `*out`. Pure with
/// respect to the transport — the reactor, the loopback tests, and any
/// future transport all call this, which is what makes "server replies
/// are bit-identical to direct Engine calls" a testable statement: run
/// the same Command through Execute on a twin engine and compare bytes.
///
/// The command set (case-insensitive names):
///
///   PING
///     -> +PONG
///   INGEST user item ts [user item ts ...] [NOIDENTIFY]
///     One or more (user, item, ts) triples absorbed as one
///     Engine::Ingest batch (atomic: all events validated first).
///     NOIDENTIFY skips the post-update neighborhood search.
///     -> *3  :num_events  :users_touched  :cold_start_users
///        (timings are deliberately not on the wire: they are
///        wall-clock and would break bit-identical comparison)
///   RECOMMEND user n [BETA b] [WITHSEEN]
///     Eq. 12 candidate list. BETA overrides Options::beta for this
///     request; WITHSEEN disables the exclude-seen masking.
///     -> *2k alternating  :item  $score
///   NEIGHBORS user [BETA b]
///     Eq. 11 neighborhood.
///     -> *2k alternating  :user  $similarity
///   HISTORY user
///     -> *k of  :item   (chronological)
///   STATS
///     -> *18 alternating  $name  :value   for num_users, num_shards,
///        pending_upserts, background_compaction (0/1),
///        save_in_progress (0/1), last_save_duration_ms (-1 until a
///        save completes), embedding_bytes, code_bytes, tombstones
///        (each summed over all shards)
///   SAVE
///     Writes a full snapshot to the configured data directory and
///     rotates the ingest journal (Engine::Save). Synchronous: +OK means
///     the snapshot is durably on disk.
///     -> +OK; -BUSY while another SAVE/BGSAVE is running;
///        -FAILEDPRECONDITION when the server runs without --data_dir
///   BGSAVE
///     Same snapshot + rotation, but off the serving thread: the epoll
///     reactor intercepts this name before dispatch, runs
///     Engine::BgSave on a helper thread, and defers the reply until
///     the completion wakeup — other connections keep being served the
///     whole time. This dispatch entry is the synchronous fallback for
///     transports without deferred-reply plumbing (the loopback test
///     harness); both paths emit the identical bytes (AppendSaveReply).
///     -> +OK on durable completion; -BUSY while another SAVE/BGSAVE is
///        running; -IOERROR if the save failed (previous snapshot
///        generation stays intact); -FAILEDPRECONDITION without
///        --data_dir
///   LASTSAVE
///     -> :unix_seconds of the last successful SAVE/BGSAVE, or :-1 if
///        none yet this process (distinguishes "never saved" from a
///        save at epoch 0)
///   QUIT
///     -> +OK, and Execute returns true (close after the reply flushes)
///
/// Errors: argument/parse problems reply `-ERR <reason>`; non-OK Engine
/// statuses reply `-<UPPERCASED CODE> <message>` (e.g. -INVALIDARGUMENT,
/// -NOTFOUND), so the Engine's validation contract — including the
/// "must be positive" knobs — is visible verbatim at the wire.
///
/// Returns true when the connection should close once the reply has
/// been flushed (QUIT). Never throws, never crashes on malformed args.
bool Execute(online::Engine& engine, const Command& command,
             std::string* out);

/// Serializes a SAVE/BGSAVE outcome: +OK on success, -BUSY for the
/// single-flight guard (Engine reports it as AlreadyExists), otherwise
/// the usual -<CODE> status error. Shared between ExecuteSave/-BgSave
/// and the reactor's deferred BGSAVE completion path so every save
/// reply is byte-identical regardless of which thread produced it.
void AppendSaveReply(std::string* out, const Status& status);

}  // namespace sccf::server

#endif  // SCCF_SERVER_DISPATCH_H_
