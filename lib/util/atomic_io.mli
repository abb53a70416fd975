(** Crash-safe file writes via the tmp+rename discipline.

    [write] serializes to [path ^ ".tmp"], flushes and closes, then
    renames over the target: a crash mid-write leaves the previous file
    (or nothing) plus a stray [.tmp] — never a truncated file a later
    reader would half-parse.  [sweep_tmp] is the matching startup
    cleanup for directories of atomically-written files.

    {2 Durability}

    Plain [write] is atomic with respect to concurrent readers but not
    to power loss: the rename can be journaled before the data blocks
    reach the disk, leaving a correctly-named empty or partial file
    after a crash.  [write ~durable:true] closes that window with the
    full fsync discipline — fsync the temp file before the rename and
    fsync the parent directory after it — which is what
    profile-database saves and store installs use.

    {2 Fault injection}

    Every physical step of a durable write is a {e fault point}: a test
    injector can make any one of them tear, fail with [ENOSPC], or
    "crash" the process (raise {!Injected_crash}, unwinding without
    cleanup exactly like a [kill -9] at that instant).  The seam is an optional [inject]
    callback consulted once per fault point; production code passes
    nothing and pays nothing. *)

type action =
  | Proceed  (** perform the operation normally *)
  | Crash  (** skip the operation and raise {!Injected_crash} *)
  | Torn of int
      (** for data writes: persist only the first [n] bytes, then raise
          {!Injected_crash} — a torn write.  Non-write operations treat
          it as [Crash]. *)
  | Fail of int
      (** for data writes: persist only the first [n] bytes, then raise
          [Unix.Unix_error (ENOSPC, _, _)] — a short write surfaced as
          an ordinary I/O error the caller must contain (no crash).
          Non-write operations raise the error without side effects. *)

type injector = op:string -> action
(** Consulted once per fault point with the operation's name
    ([aio.write], [aio.fsync], [aio.rename], [aio.fsync_dir]).
    Stateful by construction: a crash-point sweep counts calls and
    fires at its chosen index. *)

exception Injected_crash of string
(** Raised at an injected crash point, carrying the operation name.
    Simulates the process dying there: no cleanup code between the
    fault point and the test harness's recovery path runs. *)

val write : ?durable:bool -> ?inject:injector -> string -> string -> unit
(** [write path data] atomically replaces [path] with [data].
    [durable] (default [false]) adds the fsync discipline described
    above.  [inject] arms the fault seam (tests only). *)

val read_file : string -> string
(** Whole-file read (binary).  Raises [Sys_error] if unreadable. *)

val sweep_tmp : string -> int
(** Remove every [*.tmp] orphan left in the directory by interrupted
    {!write}s.  Returns the number removed; 0 for a missing directory.
    Only safe to call when no writer is concurrently mid-[write] in the
    directory (i.e. at startup/open time). *)
