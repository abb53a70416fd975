(** Pluggable cache-replacement policies.

    A policy owns one small integer of state per (set, way) — an LRU
    recency stamp or an RRIP re-reference prediction value — and three
    hooks the cache calls on its behalf: {!on_hit} when a resident line
    is referenced, {!on_fill} when a line is installed, and {!victim}
    when every way of a set is valid and one must be displaced.
    Invalid-way preference stays in {!Cache}: [victim] is only
    consulted for full sets.

    Implemented kinds:

    - [Lru] — true LRU via a global clock; bit-identical to the
      historical hard-coded policy (golden digests depend on this).
    - [Srrip] — static RRIP with 2-bit RRPVs (Jaleel et al.): fills
      predict a {e long} re-reference interval (RRPV 2), hits promote
      to {e near-immediate} (0), victims are found by aging every way
      until one reaches {e distant} (3).
    - [Brrip] — bimodal RRIP: like SRRIP but most fills predict
      {e distant} (3); every 32nd fill predicts {e long} (2).  The
      1/32 throttle is a deterministic fill counter, not a PRNG, so
      simulations replay exactly.
    - [Trrip] — temperature RRIP ("A TRRIP Down Memory Lane"): the
      fill RRPV comes from a per-block temperature hint supplied by the
      profiler (0 hot … 3 cold; negative = unknown, treated as SRRIP's
      long).  Hits promote to 0 as usual. *)

type kind = Lru | Srrip | Brrip | Trrip

val kind_name : kind -> string
(** ["lru"], ["srrip"], ["brrip"], ["trrip"]. *)

val all_kinds : kind list

type t

val create : kind -> sets:int -> assoc:int -> t
val kind : t -> kind

val on_hit : t -> set:int -> way:int -> unit

val on_fill : t -> set:int -> way:int -> hint:int -> unit
(** [hint] is a temperature in 0..3 (0 hottest) or negative for
    unknown.  Only [Trrip] reads it. *)

val victim : t -> set:int -> int
(** Way to displace.  Precondition: every way of [set] holds a valid
    line (the cache prefers invalid ways without consulting the
    policy). *)

val reset : t -> unit
(** Return all per-set state (and the LRU clock / BRRIP fill counter)
    to the post-{!create} value. *)
