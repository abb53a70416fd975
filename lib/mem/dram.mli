(** LPDDR3 main-memory timing model (DRAMSim2 substitute).

    Open-page policy over channel/rank/bank geometry from Table I of the
    paper: 1 channel, 2 ranks/channel, 8 banks/rank, with
    tCL = tRP = tRCD = 13 ns.  A row hit pays tCL + burst; a row miss
    pays tRP + tRCD + tCL + burst; bank busy times serialize back-to-back
    accesses to the same bank. *)

type t

type config = {
  channels : int;
  ranks_per_channel : int;
  banks_per_rank : int;
  row_bytes : int;       (** bytes covered by one open row *)
  tcl_cycles : int;      (** CAS latency, in CPU cycles *)
  trp_cycles : int;      (** precharge *)
  trcd_cycles : int;     (** activate *)
  burst_cycles : int;    (** data transfer for one cache line *)
}

val default_config : config
(** Table I values at a 1.3 GHz CPU clock: 13 ns ≈ 17 cycles for each of
    tCL/tRP/tRCD, 4-cycle burst. *)

type stats = {
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
}

val create : ?config:config -> unit -> t

val access : t -> now:int -> write:bool -> int -> int
(** [access t ~now ~write addr] returns the total latency (queueing
    included) of the access issued at cycle [now], and updates bank
    state. *)

val stats : t -> stats
