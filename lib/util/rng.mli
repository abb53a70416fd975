(** Deterministic pseudo-random number generation.

    Every stochastic component of the simulator draws from an explicit
    [Rng.t] so that a given seed reproduces a run bit-for-bit.  The
    implementation is SplitMix64, which is fast, has a 64-bit state and
    supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each subsystem (workload, cache warmup, ...) its own
    stream so adding draws in one place does not perturb another. *)

val copy : t -> t
(** [copy t] duplicates the current state without advancing [t]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0 .. n-1].  [n] must be positive. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is [true] with probability [p] (clamped to [0,1]). *)

val geometric : t -> float -> int
(** [geometric t p] draws the number of failures before the first success
    of a Bernoulli([p]) trial; mean [(1-p)/p].  [p] must be in (0, 1]. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val weighted_index : t -> float array -> int
(** [weighted_index t w] draws index [i] with probability proportional to
    [w.(i)].  Weights must be non-negative with a positive sum. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
