(** Set-associative cache with a pluggable replacement policy
    ({!Replacement}; true LRU by default).

    Tag state only — no data are stored, since the simulator never
    interprets values.  Access counters feed both the performance model
    (miss stalls) and the energy model (per-access energies). *)

type t

type stats = {
  accesses : int;
  hits : int;
  misses : int;
  fills : int;
  prefetch_fills : int;
  writebacks : int;  (** dirty lines evicted *)
}

val create :
  ?policy:Replacement.kind ->
  name:string ->
  size_bytes:int ->
  assoc:int ->
  line_bytes:int ->
  unit ->
  t
(** Geometry must be consistent: [size_bytes] divisible by
    [assoc * line_bytes], and [line_bytes] a power of two.  [policy]
    defaults to {!Replacement.Lru}, the historical behavior. *)

val name : t -> string
val line_bytes : t -> int
val sets : t -> int
val assoc : t -> int

val policy : t -> Replacement.kind

val line_of : t -> int -> int
(** Line-aligned address of the line containing the byte address. *)

val access : ?write:bool -> t -> int -> bool
(** [access c addr] looks up the line; on a miss it fills it.  Returns
    [true] on hit.  Updates replacement state and counters; [write]
    (default false) marks the line dirty. *)

val access_evict : ?write:bool -> t -> int -> bool * (int * bool) option
(** Like {!access}, also reporting the victim when the fill evicted a
    valid line: [(line_address, was_dirty)].  Dirty evictions are what
    the next level must absorb as writebacks. *)

val access_demand : write:bool -> t -> int -> bool
(** Allocation-free {!access_evict}: same counter and replacement
    effects, returning only the hit flag.  The victim, if any, is left
    in {!victim_addr}/{!victim_dirty} until the next access.  [~write]
    is a required label (not optional) so runtime flags on the hot path
    never box an option. *)

val access_demand_hinted : write:bool -> hint:int -> t -> int -> bool
(** {!access_demand} carrying a replacement fill hint: the block
    temperature for {!Replacement.Trrip} (0 hot .. 3 cold; negative =
    unknown).  Other policies ignore it; [access_demand] is this with
    [~hint:(-1)]. *)

val victim_addr : t -> int
(** Line address of the valid line displaced by the most recent
    {!access_demand} or {!fill}; [-1] when nothing was displaced. *)

val victim_dirty : t -> bool
(** Whether that victim was dirty.  Meaningless when
    [victim_addr c = -1]. *)

val probe : t -> int -> bool
(** Lookup without any state change or counting. *)

val fill : t -> int -> unit
(** Install a line (e.g. a prefetch) without counting an access.  Like
    an install on the demand path, the displaced line — if any — is
    reported through {!victim_addr}/{!victim_dirty} so the caller can
    absorb a dirty victim's writeback; when the line was already
    resident, {!victim_addr} is cleared. *)

val invalidate_all : t -> unit
(** Drop every line: tags, dirty bits, replacement state, and the
    pending victim report all return to the post-{!create} state. *)

val stats : t -> stats

val miss_rate : t -> float
(** Misses per access; 0 when never accessed. *)
