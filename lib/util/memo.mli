(** A thread-safe in-process memo: the one find-or-add every in-memory
    cache of the simulator goes through.

    Computations run outside the lock, so a computation may itself ask
    the same memo for another key, and two domains that miss on one key
    at once both compute; the first insert wins and both callers get
    that value.  Memoized computations are deterministic, so the loser
    only wastes its work.  A computation that raises inserts nothing. *)

type ('k, 'v) t

val create : ?capacity:int -> unit -> ('k, 'v) t
(** An empty memo; keys are compared structurally.  With [capacity]
    (clamped to ≥ 1) an insert past it evicts the least recently used
    entry; without, the memo is unbounded. *)

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** The value memoized under the key, computing and inserting it on a
    miss. *)

val find_opt : ('k, 'v) t -> 'k -> 'v option

val fold : ('k -> 'v -> 'acc -> 'acc) -> ('k, 'v) t -> 'acc -> 'acc
(** Fold over a snapshot of the entries, in unspecified order. *)

val length : ('k, 'v) t -> int

val inserts : ('k, 'v) t -> int
(** Entries inserted so far: one per computation whose result was kept. *)

val evictions : ('k, 'v) t -> int
(** Entries evicted so far by the capacity bound. *)
