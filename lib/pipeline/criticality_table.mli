(** PC-indexed criticality predictor.

    The conventional hardware scheme (Sec. II-A of the paper): a table,
    looked up at fetch with the PC, remembers which static instructions
    exceeded the fanout threshold on earlier executions — "similar to
    branch predictors".  Drives both the critical-load prefetching
    baseline [18] and the BackendPrio issue policy [32, 33]. *)

type t

val create : ?entries:int -> threshold:int -> unit -> t
(** [entries] defaults to 4096 (direct-mapped by PC). *)

val predict : t -> pc:int -> bool
(** Whether the instruction at [pc] is predicted critical. *)

val train : t -> pc:int -> fanout:int -> unit
(** Record the observed fanout of a completed instruction; a 2-bit
    confidence counter hysteresis avoids flapping on variable fanout. *)
