(** Dynamic instruction traces.

    Expanding a block path over a program yields the event stream the
    pipeline simulates: per-instruction program counters, concrete memory
    addresses, and control-transfer outcomes.  Expansion is fully
    deterministic in (program, path, seed); memory-address randomness is
    keyed on (seed, instruction uid, access count) so that compiler
    passes which reorder instructions inside a block do not perturb any
    other instruction's address stream. *)

type event = {
  seq : int;                (** position in the dynamic stream *)
  pc : int;                 (** byte address of the instruction *)
  size : int;               (** encoded size: 4 or 2 bytes *)
  instr : Isa.Instr.t;
  block_id : int;
  body_index : int;         (** index within the block body; -1 for the
                                synthetic terminator *)
  func : int;
  mem_addr : int;           (** concrete byte address; -1 for non-memory *)
  is_cond_branch : bool;    (** consults the direction predictor *)
  taken : bool;             (** actual control outcome *)
  next_pc : int;            (** address of the next dynamic instruction *)
  fetch_break : bool;       (** a taken transfer ends the fetch group *)
}

type t = event array

module Stream : sig
  (** Pull-based event cursor: the same dynamic stream {!expand}
      materializes, produced one event at a time in O(1) space (plus the
      per-static-instruction access counters).  [expand] itself is
      implemented by materializing this stream, so the two can never
      diverge. *)

  type cursor

  val of_program : Program.t -> seed:int -> Walk.path -> cursor
  (** Expand lazily over [path]; each pull yields the next event.  One
      event of internal lookahead resolves [next_pc]/[fetch_break]. *)

  val of_trace : t -> cursor
  (** Replay an already-materialized trace — the thin adapter used by
      tests and by callers that still hold arrays. *)

  val next : cursor -> event option
  (** Consume and return the next event, or [None] at end of stream. *)

  val end_marker : event
  (** Sentinel returned by {!next_ev} at end of stream.  Physically
      distinct from every deliverable event; never store it in a
      trace. *)

  val next_ev : cursor -> event
  (** Allocation-free {!next}: returns {!end_marker} (compare with
      [==]) instead of wrapping each event in [Some]. *)

  val peek : cursor -> event option
  (** Return the next event without consuming it. *)

  val iter : (event -> unit) -> cursor -> unit
  val fold : ('a -> event -> 'a) -> 'a -> cursor -> 'a

  val to_trace : cursor -> t
  (** Materialize the rest of the stream into an array. *)
end

module Pack : sig
  (** Compact binary trace container: a length-framed, versioned,
      digest-verified file of packed dynamic events (32 bytes each; see
      DESIGN.md §13 for the exact layout).  Recording streams a cursor
      to disk once; replay maps the file ([Unix.map_file]) and feeds the
      standard {!Stream} cursor machinery — the payload stays in the
      page cache, decoding is unboxed, and the only per-event allocation
      is the delivered event record itself, so replay memory is O(batch)
      regardless of budget.

      A pack stores only the dynamic side (uids, addresses, outcomes);
      instruction pointers, sizes and functions are resolved from the
      program at replay, so a pack must be replayed against the exact
      program it was recorded from.  Callers caching packs through the
      store key them by (context key, scheme) to enforce that. *)

  type t

  val version : int
  val header_bytes : int
  val record_bytes : int

  val record : path:string -> Stream.cursor -> int
  (** Drain [cursor] into a pack file at [path] (overwriting), then
      patch the header with the payload digest — a crash mid-write never
      leaves a file whose digest verifies.  Returns the event count. *)

  val open_file : string -> (t, string) result
  (** Map a pack file, verifying magic, version, framed length and
      payload digest up front; any mismatch is an [Error] naming the
      violation (the caller treats it like a cache miss). *)

  val count : t -> int
  (** Number of event records. *)

  val file_bytes : t -> int
  (** Total on-disk size, header included. *)

  val cursor : t -> Program.t -> Stream.cursor
  (** Replay cursor over the mapped records, resolving static fields
      from [program].  Bit-identical to [Stream.of_program] on the
      (program, seed, path) the pack was recorded from (test- and
      differential-locked). *)
end

val expand : Program.t -> seed:int -> Walk.path -> t
(** Expand a block path into the dynamic event stream.  Synthetic
    control-transfer instructions are appended per block terminator
    (conditional branch, jump, call, return); [Fallthrough] appends
    nothing.  Equivalent to materializing {!Stream.of_program}. *)

val length_of_path : Program.t -> Walk.path -> int
(** Number of events {!expand} would produce for [path] — body
    instructions plus one synthetic terminator per non-fallthrough
    block visit — computed in O(path) without expanding. *)

val is_work : event -> bool
(** True for useful-work events: everything except synthetic block
    terminators and CDP markers. *)

val work_count : t -> int
(** Number of useful-work events ({!instr_events} length). *)

val control_uid_base : int
(** Synthetic terminator instructions get uid
    [control_uid_base + block_id]; the range never collides with body
    instruction uids (which are non-negative and far smaller). *)
