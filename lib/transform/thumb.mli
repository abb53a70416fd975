(** Thumb (16-bit) conversion passes.

    {!convert_run} is the shared primitive: it re-encodes a run of
    instructions to the 16-bit format, prefixing a CDP switch marker per
    nine instructions (the CDP's 3-bit argument covers at most l+1 = 9).

    {!opp16} and {!compress} are the two criticality-agnostic schemes of
    Sec. V: OPP16 converts any run of at least 3 consecutive convertible instructions without reordering anything;
    Compress models the fine-grained profile-guided Thumb conversion of
    Krishnaswamy & Gupta [78], which converts more aggressively (runs of
    at least 2). *)

type report = {
  runs_converted : int;
  instrs_converted : int;
  cdp_inserted : int;
}

val zero_report : report
val add_report : report -> report -> report

val convert_run :
  fresh_uid:(unit -> int) -> Isa.Instr.t list -> Isa.Instr.t list * report
(** Convert a run (all members must be Thumb-convertible), inserting CDP
    markers.  Returns the replacement instruction sequence. *)

val opp16 : Prog.Program.t -> Prog.Program.t * report
(** Opportunistic conversion of every eligible run of 32-bit
    convertible instructions; already-converted (Thumb) instructions and
    CDP markers are left alone, so it composes with the CritIC pass. *)

val compress : Prog.Program.t -> Prog.Program.t * report
(** The Compress baseline: {!opp16} with runs of at least 2. *)
